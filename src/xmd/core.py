"""Lambda-duality primitives: logarithmic cost, mirror maps, divergences, metric.

A generator ``phi`` on an open convex domain is *regular* for a deformation
parameter ``lam != 0`` when ``Phi(theta) = (exp(lam*phi) - 1)/lam`` has a
positive-definite Hessian and ``1 - lam*<grad phi, theta> > 0`` everywhere.
Such a generator induces

* the logarithmic cost   ``c(x, y) = -(1/lam) * log(1 + lam*<x, y>)``,
* the mirror map         ``eta = grad phi / (1 - lam*<grad phi, theta>)``,
* the log divergence     ``L[t:t'] = phi(t) - phi(t') - (1/lam)*log(1 + lam*<grad phi(t'), t - t'>)``,
* the conformal metric   ``G = hess phi + lam * grad phi grad phi^T = exp(-lam*phi) * hess Phi``.

All operations fall back to the classical convex-duality limit (Bregman
divergence, plain gradient map, Hessian metric) on an exact branch when
``|lam| < BREGMAN_LIMIT``, instead of evaluating numerically-cancelling
small-``lam`` formulas.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# |lam| below this uses the exact Bregman/convex-duality branch.
BREGMAN_LIMIT = 1e-12
# log arguments must exceed this; below it we raise rather than return -inf.
LOG_GUARD = 1e-14


class GeometryError(Exception):
    """Base class for lambda-duality errors."""


class DomainError(GeometryError):
    """A point lies outside a required open domain or a log argument is nonpositive."""


class RegularityError(GeometryError):
    """A regularity condition of the generator fails at the evaluated point."""


class SolverError(GeometryError):
    """An iterative inversion failed to converge."""


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Domain:
    """Open domain: an axis-aligned box intersected with scalar constraints g(x) > 0.

    ``anchor`` must be an interior point; it seeds Newton inversions.
    """

    lower: np.ndarray
    upper: np.ndarray
    anchor: np.ndarray
    constraints: tuple[Callable[[np.ndarray], float], ...] = ()

    @staticmethod
    def box(lower, upper, anchor=None) -> "Domain":
        lower = _vec(lower)
        upper = _vec(upper)
        if anchor is None:
            lo = np.where(np.isfinite(lower), lower, np.minimum(upper - 1.0, 0.0))
            hi = np.where(np.isfinite(upper), upper, np.maximum(lower + 1.0, 0.0))
            anchor = 0.5 * (lo + hi)
        return Domain(lower, upper, _vec(anchor))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x):
        """Whether x lies in the open domain: a bool for one point ``(dim,)``,
        a row mask for a batch ``(batch, dim)``.

        The strict box test also rejects NaN and inf. Constraints are
        evaluated only when some row is inside the box, with the rows outside
        it moved to the anchor, so that no constraint sees a non-finite point.
        """
        x = _vec(x)
        inside = np.all((x > self.lower) & (x < self.upper), axis=-1)
        if self.constraints and inside.any():
            if not inside.all():
                x = np.where(inside[..., None], x, self.anchor)
            for g in self.constraints:
                inside = inside & (g(x) > 0.0)
        return inside if inside.ndim else bool(inside)

    def reflect(self, x, floor: float = 1e-12) -> np.ndarray:
        """Reflect box violations back across the violated face, row-wise.

        Constraint violations are not repaired here; callers fall back to
        step halving when a reflected point is still infeasible.
        """
        x = _vec(x)
        x = np.where(x <= self.lower, self.lower + np.maximum(self.lower - x, floor), x)
        return np.where(x >= self.upper, self.upper - np.maximum(x - self.upper, floor), x)


# ---------------------------------------------------------------------------
# generators and derived pairs


@dataclass(frozen=True)
class Generator:
    """A smooth generator phi with value/gradient oracles on an open domain.

    ``hess`` is optional, but ``metric`` needs it, and with it the primal
    flows, ``mirror_jacobian`` and both Newton inversions. The mirror map is
    always derived from ``grad`` by ``lambda_mirror``; only its inverse can be
    registered in closed form, to bypass the Newton inversion.
    """

    lam: float
    domain: Domain
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_mirror_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dual_domain: Optional[Domain] = None
    name: str = ""
    grid: tuple = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def is_bregman(self) -> bool:
        return abs(self.lam) < BREGMAN_LIMIT


@dataclass(frozen=True)
class DualPair:
    """A primal point, its mirror image, and the pairing value 1 + lam*<theta, eta>."""

    theta: np.ndarray
    eta: np.ndarray
    pi: float


# ---------------------------------------------------------------------------
# costs and divergences


def log_cost(x, y, lam: float) -> float:
    """Logarithmic pairing cost; reduces to -<x, y> in the lam -> 0 limit."""
    x = _vec(x)
    y = _vec(y)
    ip = float(x @ y)
    if abs(lam) < BREGMAN_LIMIT:
        return -ip
    arg = lam * ip
    if 1.0 + arg <= LOG_GUARD:
        raise DomainError(f"log argument 1 + lam*<x,y> = {1.0 + arg:.3e} <= 0")
    return -np.log1p(arg) / lam


def lambda_mirror(gen: Generator, theta) -> DualPair:
    """Map a primal point to eta = grad phi / (1 - lam*<grad phi, theta>), the one
    copy of the mirror map for every generator (grad phi on the Bregman branch)."""
    theta = _vec(theta)
    u = _vec(gen.grad(theta))
    if gen.is_bregman:
        return DualPair(theta, u, 1.0)
    s = 1.0 - gen.lam * float(u @ theta)
    if s <= 0.0:
        raise RegularityError(f"regularity 1 - lam*<grad,theta> = {s:.3e} <= 0 at theta={theta}")
    eta = u / s
    return DualPair(theta, eta, 1.0 + gen.lam * float(theta @ eta))


def mirror_jacobian(gen: Generator, theta) -> np.ndarray:
    """d eta / d theta, assembled from the metric as pi * (I + lam eta theta^T) G."""
    theta = _vec(theta)
    pair = lambda_mirror(gen, theta)
    g = metric(gen, theta)
    if gen.is_bregman:
        return g
    corr = np.eye(gen.dim) + gen.lam * np.outer(pair.eta, theta)
    return pair.pi * corr @ g


def inverse_mirror(gen: Generator, eta, theta0=None, tol: float = 1e-12,
                   max_iter: int = 100) -> np.ndarray:
    """Invert the mirror map: find theta with lambda_mirror(gen, theta).eta == eta.

    Uses a registered closed form when available, otherwise damped Newton
    with Armijo backtracking on the residual norm, seeded at the domain anchor.
    """
    eta = _vec(eta)
    if gen.dual_domain is not None and not gen.dual_domain.contains(eta):
        raise DomainError(f"eta={eta} outside the dual domain")
    if gen.inverse_mirror_closed is not None:
        theta = _vec(gen.inverse_mirror_closed(eta))
        if not gen.domain.contains(theta):
            raise DomainError(f"closed-form inverse left the domain at eta={eta}")
        return theta

    theta, rnorm = _damped_newton(lambda theta: lambda_mirror(gen, theta).eta - eta,
                                  lambda theta: mirror_jacobian(gen, theta),
                                  gen.domain, theta0, tol, max_iter)
    if rnorm <= tol * max(1.0, np.linalg.norm(eta)):
        return theta
    raise SolverError(f"inverse mirror did not converge for eta={eta} (residual {rnorm:.3e})")


def _damped_newton(residual, jacobian, domain: Domain, x0, tol: float,
                   max_iter: int) -> tuple[np.ndarray, float]:
    """Damped Newton on residual(x) = 0 from x0 (the domain anchor if None),
    with Armijo backtracking on the residual norm inside the open domain.
    Returns the last iterate and its residual norm, early once that is <= tol;
    raises SolverError on a singular Jacobian or a stalled line search."""
    x = _vec(x0) if x0 is not None else domain.anchor.copy()
    res = residual(x)
    rnorm = np.linalg.norm(res)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(x), -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at x={x}") from exc
        t = 1.0
        for _ in range(60):
            cand = x + t * step
            if domain.contains(cand):
                try:
                    cres = residual(cand)
                except GeometryError:
                    cres = None
                if cres is not None and np.linalg.norm(cres) <= (1.0 - 1e-4 * t) * rnorm:
                    x, res, rnorm = cand, cres, np.linalg.norm(cres)
                    break
            t *= 0.5
        else:
            raise SolverError(f"Newton line search stalled at x={x}")
    return x, rnorm


def conjugate_value(gen: Generator, pair: DualPair) -> float:
    """Value of the conjugate at the mirror image: psi(eta) = -phi(theta) - c(theta, eta)."""
    return -float(gen.value(pair.theta)) - log_cost(pair.theta, pair.eta, gen.lam)


def bregman_div(gen: Generator, theta, theta_p) -> float:
    """Bregman divergence of the generator's value, treating it as convex."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    gp = _vec(gen.grad(theta_p))
    return float(gen.value(theta)) - float(gen.value(theta_p)) - float(gp @ (theta - theta_p))


def log_div(gen: Generator, theta, theta_p) -> float:
    """Logarithmic divergence L[theta : theta_p] = phi(theta) - phi(theta_p)
    + c(grad phi(theta_p), theta - theta_p); Bregman divergence when lam ~ 0."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    return (float(gen.value(theta)) - float(gen.value(theta_p))
            + log_cost(gen.grad(theta_p), theta - theta_p, gen.lam))


def log_div_self_dual(gen: Generator, theta, eta_p) -> float:
    """Self-dual form: phi(theta) + psi(eta') - (1/lam) log(1 + lam*<theta, eta'>)."""
    theta = _vec(theta)
    eta_p = _vec(eta_p)
    theta_p = inverse_mirror(gen, eta_p)
    psi = conjugate_value(gen, DualPair(theta_p, eta_p, 1.0 + gen.lam * float(theta_p @ eta_p)))
    if gen.is_bregman:
        return float(gen.value(theta)) + psi - float(theta @ eta_p)
    return float(gen.value(theta)) + psi + log_cost(theta, eta_p, gen.lam)


def metric(gen: Generator, theta) -> np.ndarray:
    """Conformal Hessian metric G = hess phi + lam * (grad phi)(grad phi)^T;
    raises RegularityError unless G is positive definite."""
    theta = _vec(theta)
    if gen.hess is None:
        raise RegularityError(f"generator {gen.name!r} has no Hessian oracle")
    h = np.atleast_2d(np.asarray(gen.hess(theta), dtype=float))
    if gen.is_bregman:
        g = h
    else:
        u = _vec(gen.grad(theta))
        g = h + gen.lam * np.outer(u, u)
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"metric not positive definite at theta={theta}") from exc
    return g


def metric_inverse_sm(gen: Generator, pair: DualPair, jac_theta_eta: np.ndarray) -> np.ndarray:
    """Inverse metric from the mirror Jacobian: pi * (d theta/d eta) * (I + lam eta theta^T)."""
    jac = np.atleast_2d(np.asarray(jac_theta_eta, dtype=float))
    if gen.is_bregman:
        return jac
    corr = np.eye(gen.dim) + gen.lam * np.outer(pair.eta, pair.theta)
    return pair.pi * jac @ corr


# ---------------------------------------------------------------------------
# the convex generator Phi = (exp(lam*phi) - 1)/lam and its Bregman geometry


def conformal_weight(gen: Generator, theta):
    """exp(lam*phi(theta)), the rate of the clock tau that turns the Hessian
    flow of Phi into the conformal flow, so that hess Phi = weight * G; 1 on
    the Bregman branch. Complex theta gives a complex weight (complex-step
    checks)."""
    if gen.is_bregman:
        return 1.0
    return np.exp(gen.lam * gen.value(theta))


def big_phi_value(gen: Generator, theta) -> float:
    if gen.is_bregman:
        return float(gen.value(_vec(theta)))
    return float(np.expm1(gen.lam * float(gen.value(_vec(theta)))) / gen.lam)


def big_phi_grad(gen: Generator, theta):
    theta = np.asarray(theta)
    return conformal_weight(gen, theta) * np.atleast_1d(np.asarray(gen.grad(theta)))


def big_phi_hess(gen: Generator, theta) -> np.ndarray:
    theta = _vec(theta)
    return conformal_weight(gen, theta) * metric(gen, theta)


def big_phi_bregman(gen: Generator, theta, theta_p) -> float:
    """Bregman divergence of Phi; the potential behind all convergence bounds."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    gp = _vec(big_phi_grad(gen, theta_p))
    return (big_phi_value(gen, theta) - big_phi_value(gen, theta_p)
            - float(gp @ (theta - theta_p)))


def zeta_of(gen: Generator, theta) -> np.ndarray:
    """Bregman-dual coordinate zeta = grad Phi(theta)."""
    return _vec(big_phi_grad(gen, theta))


def theta_of_zeta(gen: Generator, zeta, theta0=None, tol: float = 1e-12,
                  max_iter: int = 100) -> np.ndarray:
    """Invert grad Phi by damped Newton (Jacobian is hess Phi, available in closed form)."""
    zeta = _vec(zeta)
    theta, rnorm = _damped_newton(lambda theta: zeta_of(gen, theta) - zeta,
                                  lambda theta: big_phi_hess(gen, theta),
                                  gen.domain, theta0, tol, max_iter)
    if rnorm <= tol * max(1.0, np.linalg.norm(zeta)):
        return theta
    raise SolverError(f"dual-potential inversion did not converge (residual {rnorm:.3e})")
