"""Aitchison algebra on the open unit simplex, the Dirichlet transport cost,
portfolio/transport maps of exponentially concave generators, the induced
conformal gradient flow and its guarded step, and the entropic mirror step as
a baseline.

The simplex is a vector space under componentwise perturbation (+) and
powering (x); the transport map q = p (+) pi(neg p) plays the role of the
mirror map, and the cost

    c(p, q) = log(mean(q/p)) - mean(log(q/p))

is the associated divergence (nonnegative by AM-GM, zero iff p = q).
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
    """Componentwise power, renormalized (Aitchison scaling); stable in logs."""
    return _normalize_logs(alpha * np.log(np.maximum(np.asarray(p, dtype=float), WEIGHT_FLOOR)))


def _normalize_logs(logw: np.ndarray) -> np.ndarray:
    w = np.exp(logw - logw.max())
    return w / w.sum()


def neg(p) -> np.ndarray:
    return power(-1.0, p)


def dirichlet_cost(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = q / p
    return float(np.log(np.mean(r)) - np.mean(np.log(r)))


def dirichlet_cost_grad(p, p_star) -> np.ndarray:
    """Euclidean gradient of p -> dirichlet_cost(p, p_star)."""
    p = np.asarray(p, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    ratio = p_star / p
    return -ratio / p / ratio.sum() + 1.0 / (p.size * p)


@dataclass(frozen=True)
class PortfolioGenerator:
    """An exponentially concave function on the simplex with its gradient.

    ``inverse_transport`` inverts q = transport_map(gen, p) when a closed form
    exists (it does for both named families below).
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    inverse_transport: Optional[Callable[[np.ndarray], np.ndarray]] = None


def equal_weighted_generator() -> PortfolioGenerator:
    """phi(p) = mean(log p); its portfolio is the barycenter, its transport
    the identity."""
    return PortfolioGenerator(
        value=lambda p: float(np.mean(np.log(p))),
        grad=lambda p: 1.0 / (p.size * np.asarray(p, dtype=float)),
        name="equal_weighted",
        inverse_transport=lambda q: np.asarray(q, dtype=float),
    )


def diversity_generator(alpha: float) -> PortfolioGenerator:
    """phi(p) = log(sum p^alpha)/alpha for alpha < 1; the portfolio map is the
    alpha-powering and the transport a dilation by (1 - alpha)."""
    if alpha >= 1.0:
        raise ValueError("diversity exponent must be < 1")
    if alpha == 0.0:
        return equal_weighted_generator()

    def value(p):
        return float(np.log(np.sum(np.asarray(p, dtype=float) ** alpha)) / alpha)

    def grad(p):
        p = np.asarray(p, dtype=float)
        return p ** (alpha - 1.0) / np.sum(p ** alpha)

    return PortfolioGenerator(
        value=value, grad=grad, name=f"diversity({alpha})",
        inverse_transport=lambda q: power(1.0 / (1.0 - alpha), q),
    )


def l_divergence(gen: PortfolioGenerator, q, p) -> float:
    """log(1 + <grad phi(p), q - p>) - (phi(q) - phi(p)); nonnegative, zero iff q = p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = 1.0 + float(np.asarray(gen.grad(p)) @ (q - p))
    if w <= LOG_GUARD:
        raise DomainError(f"log argument {w:.3e} <= 0 in l_divergence")
    return float(np.log(w) - (gen.value(q) - gen.value(p)))


def directional_derivs(grad_fn: Callable[[np.ndarray], np.ndarray], p) -> np.ndarray:
    """<grad f(p), e_i - p> for each vertex direction; p-weighted sum is zero."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(grad_fn(p), dtype=float)
    return g - float(p @ g)


def portfolio_map(gen: PortfolioGenerator, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    w = p * (1.0 + directional_derivs(gen.grad, p))
    if np.any(w <= 0.0):
        raise DomainError("portfolio produced a nonpositive weight")
    return w / w.sum()


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
    weighted = float(np.sum(p ** 2 * dd))
    return (-p / pi_neg) * (dd - q * weighted / p ** 2)


def _descends(obj_grad, log_p: np.ndarray):
    """Accept test of the simplex steps from p (``log_p`` = log p): takes
    p_next if it is finite and strictly positive and the slope of f at p_next
    along the log-p segment from p, sum_i p'_i dd_i f(p') log(p'_i/p_i), is
    nonpositive. p_next sums to one, so an infinite weight would have made
    some weight NaN, which fails the min test."""
    def accept(p_next):
        if not p_next.min() > 0.0:
            return p_next, False
        dd = directional_derivs(obj_grad, p_next)
        return p_next, float(np.sum(p_next * dd * (np.log(p_next) - log_p))) <= 0.0
    return accept


def step_conformal(gen: PortfolioGenerator, obj_grad, p, delta: float) -> np.ndarray:
    """Forward Euler in log q, mapped back through the inverse transport, with
    step-size control.

    A candidate is accepted only if it is finite and strictly positive and the
    slope of f at it along the log-p segment from p is nonpositive; otherwise
    delta is halved, up to MAX_HALVINGS times (``flows._guarded_step``). Every
    returned point is therefore finite and strictly positive, and f does not
    increase whenever it is convex along that segment (the Dirichlet cost is:
    it is log-sum-exp in log p plus a linear term, and for both named
    generators the candidates trace a straight line in log p). If no
    candidate is accepted, p is stationary to round-off and is returned
    unchanged.
    """
    if gen.inverse_transport is None:
        raise DomainError(f"generator {gen.name!r} has no registered inverse transport")
    p = np.asarray(p, dtype=float)
    pi_neg = portfolio_map(gen, neg(p))
    q = perturb(p, pi_neg)
    rhs = _flow_rhs(obj_grad, p, q, pi_neg)
    log_p = np.log(np.maximum(p, WEIGHT_FLOOR))
    log_q = np.log(np.maximum(q, WEIGHT_FLOOR))

    def propose(d):
        p_next = gen.inverse_transport(_normalize_logs(log_q + d * rhs))
        return p_next / p_next.sum()

    return _guarded_step(p, delta, propose, _descends(obj_grad, log_p))[0]


def step_entropic(p_k, obj_grad, delta: float) -> np.ndarray:
    """Classical mirror step on the simplex, the exponentiated gradient of
    Helmbold et al. (1998): p_i <- p_i * exp(-delta * grad_i f(p)), renormalized.

    ``obj_grad`` is the Euclidean gradient callable. The step-size control is
    that of ``step_conformal``, through the shared ``flows._guarded_step``.
    The candidates lie on a line in log p up to normalization, so f does not
    increase when it is scale-invariant and convex along such lines, as the
    Dirichlet cost is.
    """
    p = np.asarray(p_k, dtype=float)
    log_p = np.log(np.maximum(p, WEIGHT_FLOOR))
    grads = np.asarray(obj_grad(p), dtype=float)
    return _guarded_step(p, delta, lambda d: _normalize_logs(log_p - d * grads),
                         _descends(obj_grad, log_p))[0]


def sample_simplex(rng: np.random.Generator, n: int, concentration: float = 1.0) -> np.ndarray:
    """Symmetric-Dirichlet draw, floored away from the boundary."""
    w = rng.dirichlet(np.full(n, concentration))
    return as_simplex(np.maximum(w, 1e-12))
