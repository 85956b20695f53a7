"""Aitchison algebra on the open unit simplex, the Dirichlet transport cost,
portfolio/transport maps of exponentially concave generators, the induced
conformal gradient flow and its guarded step, and the entropic mirror step as
a baseline.

The simplex is a vector space under componentwise perturbation (+) and
powering (x); the transport map q = p (+) pi(neg p) plays the role of the
mirror map, and the cost

    c(p, q) = log(mean(q/p)) - mean(log(q/p))

is the associated divergence (nonnegative by AM-GM, zero iff p = q).

Every map below except ``as_simplex``, ``sample_simplex``, ``l_divergence``
and the generators' ``value`` takes one point ``(n,)`` or a batch
``(batch, n)``, over the last axis: a point is a batch of one, and each row of
a batch gets the numbers that row alone would. That holds across generators
too: ``diversity_generator`` takes a column of exponents, one per row, so one
``step_conformal`` call steps rows of several diversity exponents, the
equal-weighted exponent 0 among them, each row with the bits of its own
generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DomainError, LOG_GUARD
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


def power(alpha: float, p) -> np.ndarray:
    """Componentwise power, renormalized over the last axis (Aitchison
    scaling); stable in logs."""
    return _normalize_logs(alpha * np.log(np.maximum(np.asarray(p, dtype=float), WEIGHT_FLOOR)))


def _normalize_logs(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def neg(p) -> np.ndarray:
    return power(-1.0, p)


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


@dataclass(frozen=True)
class PortfolioGenerator:
    """An exponentially concave function on the simplex with its gradient.

    ``inverse_transport(log_q, rows)`` maps log q, up to a shift per row, to
    the p of q = transport_map(gen, p) if a closed form exists (as for
    ``diversity_generator``); ``rows`` indexes the rows of the generator's
    batch in log_q, the rows pending in a ``flows._guarded_step`` try, or all.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    inverse_transport: Optional[Callable[..., np.ndarray]] = None


def equal_weighted_generator() -> PortfolioGenerator:
    """phi(p) = mean(log p): ``diversity_generator(0.0)``, whose portfolio is
    the barycenter."""
    return diversity_generator(0.0)


def diversity_generator(alpha) -> PortfolioGenerator:
    """phi(p) = log(sum p^alpha)/alpha for alpha < 1, and its limit mean(log p)
    at alpha = 0, the equal-weighted generator; the portfolio map is the
    alpha-powering and the transport a dilation by (1 - alpha), so that the
    inverse transport is log q dilated by 1/(1 - alpha), up to a shift.

    ``alpha`` is one exponent or a column ``(batch, 1)`` of them, one per row
    of the batches that ``grad`` and ``inverse_transport`` then take; a column
    may hold 0. Row i gets the bits of ``diversity_generator(alpha[i, 0])``:
    ``grad`` powers by exp(alpha * log p), whose exp, log, * and / round a
    column exponent as the scalar one, and is exactly (1/p)/n at alpha = 0.
    ``value`` takes one point and a scalar alpha.
    """
    a = np.asarray(alpha, dtype=float)
    if np.any(a >= 1.0):
        raise ValueError("diversity exponent must be < 1")
    dilation = 1.0 / (1.0 - a)

    def value(p):
        p = np.asarray(p, dtype=float)
        if alpha == 0.0:
            return float(np.mean(np.log(p)))
        return float(np.log(np.sum(p ** alpha)) / alpha)

    def grad(p):
        p = np.asarray(p, dtype=float)
        pa = np.exp(a * np.log(p))
        return pa / p / pa.sum(axis=-1, keepdims=True)

    def inverse_transport(log_q, rows=...):
        return _normalize_logs((dilation if a.ndim == 0 else dilation[rows]) * log_q)

    name = f"diversity({alpha})" if a.ndim == 0 else f"diversity({a.size} rows)"
    return PortfolioGenerator(value=value, grad=grad, name=name,
                              inverse_transport=inverse_transport)


def l_divergence(gen: PortfolioGenerator, q, p) -> float:
    """log(1 + <grad phi(p), q - p>) - (phi(q) - phi(p)); nonnegative, zero iff q = p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = 1.0 + float(np.asarray(gen.grad(p)) @ (q - p))
    if w <= LOG_GUARD:
        raise DomainError(f"log argument {w:.3e} <= 0 in l_divergence")
    return float(np.log(w) - (gen.value(q) - gen.value(p)))


def directional_derivs(grad_fn: Callable[[np.ndarray], np.ndarray], p) -> np.ndarray:
    """<grad f(p), e_i - p> for each vertex direction; p-weighted sum is zero.

    ``p`` is one point ``(n,)`` or a batch ``(batch, n)``, over the last axis;
    the result has the shape of p, one row of derivatives per row of p."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(grad_fn(p), dtype=float)
    return g - np.vecdot(p, g)[..., None]


def portfolio_map(gen: PortfolioGenerator, p) -> np.ndarray:
    """The portfolio pi(p) = p * (1 + dd phi(p)), renormalized, for one point
    ``(n,)`` or a batch ``(batch, n)``, over the last axis; the result has the
    shape of p. A row with a weight that is not positive and finite, which
    round-off can give at a large negative alpha, is NaN: the rows that are
    not all finite are the rows where the map fails."""
    p = np.asarray(p, dtype=float)
    w = p * (1.0 + directional_derivs(gen.grad, p))
    valid = np.all((w > 0.0) & np.isfinite(w), axis=-1, keepdims=True)
    return np.where(valid, w / w.sum(axis=-1, keepdims=True), np.nan)


def transport_map(gen: PortfolioGenerator, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return perturb(p, portfolio_map(gen, neg(p)))


def simplex_flow_rhs(gen: PortfolioGenerator, obj_grad, p, q) -> np.ndarray:
    """d/dt log q_i along the transport-map image of the gradient flow:
    (-p_i / pi_i(neg p)) * [dd_i f(p) - q_i * sum_j (p_j/p_i)^2 dd_j f(p)]."""
    p = np.asarray(p, dtype=float)
    return _flow_rhs(obj_grad, p, np.asarray(q, dtype=float), portfolio_map(gen, neg(p)))


def _flow_rhs(obj_grad, p: np.ndarray, q: np.ndarray, pi_neg: np.ndarray) -> np.ndarray:
    dd = directional_derivs(obj_grad, p)
    weighted = np.sum(p ** 2 * dd, axis=-1, keepdims=True)
    return (-p / pi_neg) * (dd - q * weighted / p ** 2)


def _descends(obj_grad, log_p: np.ndarray):
    """Accept test of the simplex steps from p (``log_p`` = log p), row by
    row, for the rows ``rows`` of p (see ``flows._guarded_step``): takes a
    row of p_next if it is finite and strictly positive and the slope of f at
    it along the log-p segment from p, sum_i p'_i dd_i f(p') log(p'_i/p_i), is
    nonpositive. p_next sums to one, so an infinite weight would have made
    some weight NaN, which fails the min test."""
    def accept(p_next, rows):
        positive = p_next.min(axis=-1) > 0.0
        dd = directional_derivs(obj_grad, p_next)
        slope = np.sum(p_next * dd * (np.log(p_next) - log_p[rows]), axis=-1)
        return p_next, positive & (slope <= 0.0)
    return accept


def step_conformal(gen: PortfolioGenerator, obj_grad, p, delta: float) -> np.ndarray:
    """Forward Euler in log q, mapped back through the inverse transport, with
    step-size control, for one point ``(n,)`` or a batch ``(batch, n)`` over
    the last axis. Returns the next point, or the batch of next rows; each
    row is stepped, halved and accepted on its own.

    A candidate is accepted only if it is finite and strictly positive and the
    slope of f at it along the log-p segment from p is nonpositive; otherwise
    delta is halved, up to MAX_HALVINGS times (``flows._guarded_step``). Every
    returned point is therefore finite and strictly positive, and f does not
    increase whenever it is convex along that segment (the Dirichlet cost is:
    it is log-sum-exp in log p plus a linear term, and for every
    ``diversity_generator`` the candidates trace a straight line in log p).
    If no candidate is accepted, p is stationary to round-off and is
    returned unchanged. A row whose portfolio map fails (see
    ``portfolio_map``) is returned as NaN; the other rows are stepped as
    without it.

    Each try steps log q by d * rhs and maps the pending rows back through
    ``gen.inverse_transport`` with their index, so ``gen`` may hold per-row
    parameters, as a ``diversity_generator`` column does. log p is taken once,
    neg(p) included, and a try's one exp is the inverse transport of its log q.
    """
    if gen.inverse_transport is None:
        raise DomainError(f"generator {gen.name!r} has no registered inverse transport")
    p = np.asarray(p, dtype=float)
    log_p = np.log(np.maximum(p, WEIGHT_FLOOR))
    pi_neg = portfolio_map(gen, _normalize_logs(-log_p))
    q = perturb(p, pi_neg)
    rhs = _flow_rhs(obj_grad, p, q, pi_neg)
    log_q = np.log(np.maximum(q, WEIGHT_FLOOR))
    p_next = _guarded_step(p, log_q, rhs, delta, _descends(obj_grad, log_p),
                           gen.inverse_transport)[0]
    return np.where(np.isnan(pi_neg).any(axis=-1, keepdims=True), np.nan, p_next)


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
    log_p = np.log(np.maximum(p, WEIGHT_FLOOR))
    grads = np.asarray(obj_grad(p), dtype=float)
    return _guarded_step(p, log_p, -grads, delta, _descends(obj_grad, log_p),
                         lambda log_p_next, rows: _normalize_logs(log_p_next))[0]


def sample_simplex(rng: np.random.Generator, n: int, concentration: float = 1.0) -> np.ndarray:
    """Symmetric-Dirichlet draw, floored away from the boundary."""
    w = rng.dirichlet(np.full(n, concentration))
    return as_simplex(np.maximum(w, 1e-12))
