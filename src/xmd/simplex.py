"""The open unit simplex: the Dirichlet transport cost, the transport map and
conformal gradient flow of the diversity generators, the guarded conformal
step, and the entropic mirror step as a baseline.

The simplex is a vector space under componentwise perturbation (+) and
powering (x). For an exponentially concave generator phi with portfolio map
pi, the transport map q = p (+) pi(neg p) plays the role of the mirror map,
and the cost

    c(p, q) = log(mean(q/p)) - mean(log(q/p))

is the associated divergence (nonnegative by AM-GM, zero iff p = q). The
generators here are the diversity family, phi(p) = log(sum p^alpha)/alpha
for alpha < 1 and its limit mean(log p) at alpha = 0, the equal-weighted
generator. Its portfolio map is alpha-powering, so pi(neg p) is the
(-alpha)-powering of p and the transport map the (1 - alpha)-powering: the
maps below take alpha and state these closed forms. The generic formulas
through grad phi are test oracles.

Every map below except ``as_simplex`` and ``sample_simplex`` takes one point
``(n,)`` or a batch ``(batch, n)``, over the last axis: a point is a batch of
one, and each row of a batch gets the numbers that row alone would. alpha is
one exponent or a column ``(batch, 1)`` of them, one per row, so one
``step_conformal`` call steps rows of several exponents, 0 among them, each
row with the bits of its own exponent.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .core import DomainError
from .flows import _guarded_step

WEIGHT_FLOOR = 1e-300


def as_simplex(w) -> np.ndarray:
    """Validate strict positivity and renormalize."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("a simplex point needs at least two weights")
    if not np.all(w > 0.0) or not np.all(np.isfinite(w)):
        raise DomainError("simplex weights must be strictly positive and finite")
    return w / w.sum()


def barycenter(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def perturb(p, q) -> np.ndarray:
    """Componentwise product, renormalized over the last axis (Aitchison
    addition), for one point or a batch of rows."""
    r = np.asarray(p, dtype=float) * np.asarray(q, dtype=float)
    return r / r.sum(axis=-1, keepdims=True)


def _normalize_logs(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def dirichlet_cost(p, q):
    """c(p, q) for one point ``(n,)`` or a batch ``(batch, n)`` of either
    argument, over the last axis: a float for one pair, a ``(batch,)`` array
    for a batch."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = q / p
    return np.log(np.mean(r, axis=-1)) - np.mean(np.log(r), axis=-1)


def dirichlet_cost_grad(p, p_star) -> np.ndarray:
    """Euclidean gradient of p -> dirichlet_cost(p, p_star), row by row."""
    p = np.asarray(p, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    ratio = p_star / p
    return -ratio / p / ratio.sum(axis=-1, keepdims=True) + 1.0 / (p.shape[-1] * p)


def _exponent(alpha) -> np.ndarray:
    """alpha as an array, one diversity exponent or a column of them; alpha
    must be < 1."""
    a = np.asarray(alpha, dtype=float)
    if np.count_nonzero(a >= 1.0):
        raise ValueError("diversity exponent must be < 1")
    return a


def _log(p) -> np.ndarray:
    return np.log(np.maximum(p, WEIGHT_FLOOR))


def directional_derivs(grad_fn: Callable[[np.ndarray], np.ndarray], p) -> np.ndarray:
    """<grad f(p), e_i - p> for each vertex direction; p-weighted sum is zero.

    ``p`` is one point ``(n,)`` or a batch ``(batch, n)``, over the last axis;
    the result has the shape of p, one row of derivatives per row of p."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(grad_fn(p), dtype=float)
    return g - np.vecdot(p, g)[..., None]


def transport_map(alpha, p) -> np.ndarray:
    """q = p (+) pi(neg p) for the diversity exponent ``alpha``: pi is
    alpha-powering, so q is the (1 - alpha)-powering of p."""
    return _normalize_logs((1.0 - _exponent(alpha)) * _log(p))


def simplex_flow_rhs(alpha, obj_grad, p) -> np.ndarray:
    """d/dt log q_i along the transport-map image of the gradient flow, at p:
    (-p_i / pi_i(neg p)) * [dd_i f(p) - q_i * sum_j (p_j/p_i)^2 dd_j f(p)],
    where q = transport_map(alpha, p) and pi(neg p) is the (-alpha)-powering
    of p."""
    p = np.asarray(p, dtype=float)
    q = transport_map(alpha, p)
    pi_neg = _normalize_logs(-_exponent(alpha) * _log(p))
    dd = directional_derivs(obj_grad, p)
    weighted = np.sum(p ** 2 * dd, axis=-1, keepdims=True)
    return (-p / pi_neg) * (dd - q * weighted / p ** 2)


def _descends(obj_grad, log_p: np.ndarray):
    """Accept test of the simplex steps from p (``log_p`` = log p), row by
    row (see ``flows._guarded_step``): takes a row of p_next if it is finite
    and strictly positive and the slope of f at it along the log-p segment
    from p, sum_i p'_i dd_i f(p') log(p'_i/p_i), is nonpositive. p_next sums
    to one, so an infinite weight would have made some weight NaN, which
    fails the min test."""
    def accept(p_next):
        positive = p_next.min(axis=-1) > 0.0
        dd = directional_derivs(obj_grad, p_next)
        slope = np.sum(p_next * dd * (np.log(p_next) - log_p), axis=-1)
        return p_next, positive & (slope <= 0.0)
    return accept


def step_conformal(alpha, obj_grad, p, delta: float) -> np.ndarray:
    """Forward Euler in log q of the flow of the diversity exponent ``alpha``,
    mapped back through the inverse transport, with step-size control, for
    one point ``(n,)`` or a batch ``(batch, n)`` over the last axis; ``alpha``
    is one exponent or a column ``(batch, 1)``, one per row. Returns the next
    point, or the batch of next rows; each row is stepped, halved and
    accepted on its own.

    A candidate is accepted only if it is finite and strictly positive and the
    slope of f at it along the log-p segment from p is nonpositive; otherwise
    delta is halved, up to MAX_HALVINGS times (``flows._guarded_step``). Every
    returned point is therefore finite and strictly positive, and f does not
    increase whenever it is convex along that segment (the Dirichlet cost is:
    it is log-sum-exp in log p plus a linear term, and the candidates trace a
    straight line in log p). If no candidate is accepted, p is stationary to
    round-off and is returned unchanged. A row whose flow direction is not
    finite, as when pi(neg p) underflows at a large negative alpha, is
    returned as NaN; the other rows are stepped as without it.

    rhs comes from ``simplex_flow_rhs``. log q up to a shift per row is
    (1 - alpha) log p; each try steps it by d * rhs and maps it back by the
    inverse transport, the 1/(1 - alpha)-powering, with one exp.
    """
    a = _exponent(alpha)
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):
        rhs = simplex_flow_rhs(a, obj_grad, p)
    log_p = _log(p)
    dilation = 1.0 / (1.0 - a)
    p_next = _guarded_step(p, (1.0 - a) * log_p, rhs, delta, _descends(obj_grad, log_p),
                           lambda log_q: _normalize_logs(dilation * log_q))[0]
    return np.where(np.isfinite(rhs).all(axis=-1, keepdims=True), p_next, np.nan)


def step_entropic(p_k, obj_grad, delta: float) -> np.ndarray:
    """Classical mirror step on the simplex, the exponentiated gradient of
    Helmbold et al. (1998): p_i <- p_i * exp(-delta * grad_i f(p)), renormalized.
    ``p_k`` is one point ``(n,)`` or a batch ``(batch, n)``, over the last
    axis; returns the next point, or the batch of next rows.

    ``obj_grad`` is the Euclidean gradient callable. The step-size control is
    that of ``step_conformal``, through the shared ``flows._guarded_step``:
    each try steps log p by -d * grad f and renormalizes.
    The candidates lie on a line in log p up to normalization, so f does not
    increase when it is scale-invariant and convex along such lines, as the
    Dirichlet cost is.
    """
    p = np.asarray(p_k, dtype=float)
    log_p = _log(p)
    grads = np.asarray(obj_grad(p), dtype=float)
    return _guarded_step(p, log_p, -grads, delta, _descends(obj_grad, log_p),
                         _normalize_logs)[0]


def sample_simplex(rng: np.random.Generator, n: int, concentration: float = 1.0) -> np.ndarray:
    """Symmetric-Dirichlet draw, floored away from the boundary."""
    w = rng.dirichlet(np.full(n, concentration))
    return as_simplex(np.maximum(w, 1e-12))
