"""Lambda-duality primitives: logarithmic cost, mirror maps, divergences, metric.

A generator ``phi`` on an open convex domain is *regular* for a deformation
parameter ``lam != 0`` when ``Phi(theta) = (exp(lam*phi) - 1)/lam`` has a
positive-definite Hessian and ``1 - lam*<grad phi, theta> > 0`` everywhere.
Such a generator induces

* the logarithmic cost   ``c(x, y) = -(1/lam) * log(1 + lam*<x, y>)``,
* the mirror map         ``eta = grad phi / (1 - lam*<grad phi, theta>)``,
* the log divergence     ``L[t:t'] = phi(t) - phi(t') - (1/lam)*log(1 + lam*<grad phi(t'), t - t'>)``,
* the conformal metric   ``G = hess phi + lam * grad phi grad phi^T = exp(-lam*phi) * hess Phi``.

At ``lam = 0`` these are the classical convex-duality objects (Bregman
divergence, plain gradient map, Hessian metric), and every map whose formula
is finite there is written once and evaluated at ``lam = 0`` as at any other
``lam``. Only a formula that divides by ``lam``, or that cancels as ``lam``
goes to 0, keeps a separate exact branch, taken when ``|lam| < BREGMAN_LIMIT``.

The maps of a point work over the last axis: ``theta`` is one point ``(d,)``
or a batch ``(..., d)``, one point is a batch of one, and a batch gives, row
by row, the bits of the one-point calls. ``metric`` and ``big_phi_hess``
give one ``(d, d)`` matrix per row, ``(..., d, d)``; ``theta_of_zeta`` takes
one point. ``lambda_mirror``, ``log_cost``, ``log_div``, ``big_phi_value``,
``conformal_weight`` and ``zeta_of`` also take complex points, for the
complex step of ``_directional``; their domain tests read the real part.

Every LAPACK call of the package goes through two private helpers: ``_solve``
(LU, ``gesv``) and ``_cholesky`` (``potrf``). Each calls the gufunc that
``np.linalg.solve`` or ``np.linalg.cholesky`` wraps, under the same
floating-point state, so it gives the same bits and raises the same
``np.linalg.LinAlgError``, without their argument handling: at the 1x1 and
2x2 stacks of the flows, that handling cost more than LAPACK itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

# |lam| below this takes the exact lam = 0 branch, kept only where the lambda
# formula divides by lam (log_cost, big_phi_value, the value of log_loss, the
# cross-check of conformal_smoothness_estimate) or cancels as lam -> 0
# (flows._primal_logdiv_grad). Every other map has one body for all lam.
BREGMAN_LIMIT = 1e-12
# log arguments must exceed this; below it we raise rather than return -inf.
LOG_GUARD = 1e-14
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
# the least distance by which Domain.reflect puts a point back inside a face
REFLECT_FLOOR = 1e-12
_FLOAT64 = np.dtype(float)


class GeometryError(Exception):
    """Base class for lambda-duality errors."""


class DomainError(GeometryError):
    """A point lies outside a required open domain or a log argument is nonpositive."""


class RegularityError(GeometryError):
    """A regularity condition of the generator fails at the evaluated point."""


class SolverError(GeometryError):
    """An iterative inversion failed to converge."""


def _vec(x) -> np.ndarray:
    """x as a float64, or complex, base-class ndarray with ndim >= 1: x itself
    when it already is one, else a new array (a 0-d or scalar x becomes shape (1,))."""
    x = np.array(x, copy=None, ndmin=1)
    # the identity test is the fast path of the float64 arrays of the hot loops
    return x if x.dtype is _FLOAT64 or x.dtype.kind == "c" else x.astype(float, copy=False)


def _directional(f, x, v):
    """The derivative of f at x along v, over the last axis, by the complex
    step Im f(x + i*h*v) / h, h = 1e-20: with no difference to cancel, it is
    exact to round-off wherever f is analytic and takes complex input."""
    h = 1e-20
    return np.imag(f(x + 1j * h * np.asarray(v))) / h


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Domain:
    """Open domain: an axis-aligned box intersected with scalar constraints g(x) > 0.

    ``anchor`` must be an interior point: it stands in for the rows of a
    batch that a test rejects.
    """

    lower: np.ndarray
    upper: np.ndarray
    anchor: np.ndarray
    constraints: tuple[Callable[[np.ndarray], float], ...] = ()

    @staticmethod
    def box(lower, upper, anchor) -> "Domain":
        return Domain(_vec(lower), _vec(upper), _vec(anchor))

    def contains(self, x):
        """Whether x lies in the open domain: a bool for one point ``(dim,)``,
        a row mask for a batch ``(batch, dim)``.

        The strict box test also rejects NaN and inf. Constraints see only
        points inside the box: one point outside it is rejected at once, and
        in a batch the rows outside the box are moved to the anchor, so that
        no constraint sees a non-finite point. One point combines its tests
        with Python's ``and``, not with reductions over numpy scalars.
        """
        x = _vec(x)
        inside = ((x > self.lower) & (x < self.upper)).all(axis=-1)
        if x.ndim == 1:
            return bool(inside) and all(g(x) > 0.0 for g in self.constraints)
        if self.constraints:
            x = np.where(inside[..., None], x, self.anchor)
            for g in self.constraints:
                inside = inside & (g(x) > 0.0)
        return inside

    def reflect(self, x) -> np.ndarray:
        """Reflect box violations back across the violated face, row-wise,
        to at least REFLECT_FLOOR inside it.

        Constraint violations are not repaired here; callers fall back to
        step halving when a reflected point is still infeasible.
        """
        x = _vec(x)
        x = np.where(x <= self.lower, self.lower + np.maximum(self.lower - x, REFLECT_FLOOR), x)
        return np.where(x >= self.upper,
                        self.upper - np.maximum(x - self.upper, REFLECT_FLOOR), x)


# ---------------------------------------------------------------------------
# generators and derived pairs


@dataclass(frozen=True)
class Generator:
    """A smooth generator phi with value/gradient oracles on an open domain.

    ``value``, ``grad`` and ``hess`` work over the last axis: a point ``(d,)``
    gives a scalar, a ``(d,)`` gradient and a ``(d, d)`` Hessian, a batch
    ``(..., d)`` one of each per point, ``(...)``, ``(..., d)`` and
    ``(..., d, d)``, with the bits of the one-point calls. Each Hessian must
    be exactly symmetric: ``metric`` uses it as it is. ``hess`` is optional,
    but ``metric`` needs it, and with it the primal flows and
    ``theta_of_zeta``. The mirror map is always derived from ``grad`` by
    ``lambda_mirror``; ``inverse_mirror`` needs its inverse in closed form,
    registered with the dual domain it inverts.
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

    @cached_property
    def is_bregman(self) -> bool:
        return abs(self.lam) < BREGMAN_LIMIT


@dataclass(frozen=True)
class DualPair:
    """A primal point, its mirror image, and the pairing value 1 + lam*<theta, eta>:
    for a batch, rows of theta and eta and one pi per row."""

    theta: np.ndarray
    eta: np.ndarray
    pi: float | np.ndarray


# ---------------------------------------------------------------------------
# costs and divergences


def log_cost(x, y, lam: float):
    """Logarithmic pairing cost over the last axis; reduces to -<x, y> in the
    lam -> 0 limit."""
    # vecdot conjugates its first argument: conj() undoes that (free if real)
    ip = np.vecdot(_vec(x).conj(), _vec(y))
    if abs(lam) < BREGMAN_LIMIT:
        return -ip
    arg = lam * ip
    if np.count_nonzero(1.0 + arg.real <= LOG_GUARD):
        raise DomainError(f"log argument 1 + lam*<x,y> = {np.min(1.0 + arg.real):.3e} <= 0")
    return -np.log1p(arg) / lam


def lambda_mirror(gen: Generator, theta) -> DualPair:
    """Map a primal point to eta = grad phi / (1 - lam*<grad phi, theta>), the one
    copy of the mirror map for every generator (grad phi itself at lam = 0)."""
    theta = _vec(theta)
    u = gen.grad(theta)
    s = 1.0 - gen.lam * np.vecdot(u.conj(), theta)
    if np.count_nonzero(s.real <= 0.0):
        raise RegularityError(
            f"regularity 1 - lam*<grad,theta> = {np.min(s.real):.3e} <= 0 at theta={theta}")
    eta = u / s[..., None]
    return DualPair(theta, eta, 1.0 + gen.lam * np.vecdot(theta.conj(), eta))


def inverse_mirror(gen: Generator, eta) -> np.ndarray:
    """Invert the mirror map over the last axis by its registered closed form.
    Raises DomainError if a row of eta lies outside the dual domain or inverts
    outside the domain, and RegularityError if no inverse is registered."""
    eta = _vec(eta)
    theta, ok = _invert_rows(gen, eta)
    if not np.all(ok):
        raise DomainError(f"eta={eta[~ok][0]} or its inverse lies outside its domain")
    return theta


def _invert_rows(gen: Generator, eta):
    """``inverse_mirror`` with a mask: theta, and the rows of eta in the dual
    domain whose inverse lies in the domain. The closed form sees the dual
    anchor in place of each row outside the dual domain."""
    _require_inverse(gen)
    dual = gen.dual_domain
    ok = np.asarray(dual.contains(eta))
    if np.count_nonzero(ok) != ok.size:
        eta = np.where(ok[..., None], eta, dual.anchor)
    theta = _vec(gen.inverse_mirror_closed(eta))
    return theta, ok & gen.domain.contains(theta)


def _require_inverse(gen: Generator) -> None:
    """RegularityError unless a closed-form inverse and its dual domain are registered."""
    if gen.inverse_mirror_closed is None or gen.dual_domain is None:
        raise RegularityError(f"generator {gen.name!r} has no closed-form inverse mirror map")


def log_div(gen: Generator, theta, theta_p):
    """Logarithmic divergence L[theta : theta_p] = phi(theta) - phi(theta_p)
    + c(grad phi(theta_p), theta - theta_p); Bregman divergence when lam ~ 0.
    Either point may be a batch; one value per row."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    return (gen.value(theta) - gen.value(theta_p)
            + log_cost(gen.grad(theta_p), theta - theta_p, gen.lam))


def metric(gen: Generator, theta) -> np.ndarray:
    """Conformal Hessian metric G = hess phi + lam * (grad phi)(grad phi)^T,
    one ``(d, d)`` matrix per row; raises RegularityError unless every G is
    finite and positive definite.

    The check counts the non-finite entries of G, which LAPACK's Cholesky
    lets pass (NaN entries, +inf on the diagonal), then makes one Cholesky
    factorization (``_cholesky``), whose factor is discarded. The RK4 stages
    of ``flows`` assemble G by ``_assemble_metric`` unchecked and check the
    four stage metrics of a step in one stacked ``_cholesky``; they solve
    with G by LU (``_solve``), as ``flows.rhs_primal`` does. A solve through
    the factor (``cho_solve``) measured no faster at these sizes (n <= 3),
    and it would round differently, so every pinned output would change."""
    theta = _vec(theta)
    if gen.hess is None:
        raise RegularityError(f"generator {gen.name!r} has no Hessian oracle")
    g = _assemble_metric(gen, gen.grad(theta), gen.hess(theta))
    if np.count_nonzero(~np.isfinite(g)):
        raise RegularityError(f"metric not finite at theta={theta}")
    try:
        _cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"metric not positive definite at theta={theta}") from exc
    return g


def _solve(g, b) -> np.ndarray:
    """G^{-1} b over the last axis, by LU: one LAPACK ``gesv`` over the
    stack of G ``(..., d, d)`` and rows b ``(..., d)``, by the one-vector
    gufunc (``solve1``) that ``np.linalg.solve`` calls for a 1-d b. It gives
    the bits of ``np.linalg.solve(g, b[..., None])[..., 0]``, and raises
    LinAlgError if a G is singular. Real input only: complex input raises a
    TypeError."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return np.linalg._umath_linalg.solve1(g, b, signature="dd->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


def _cholesky(g) -> np.ndarray:
    """The lower Cholesky factor of each G of the stack ``(..., d, d)``,
    with the bits of ``np.linalg.cholesky(g)``; raises LinAlgError unless
    every G is positive definite. Like it, reads only the lower triangle and
    lets NaN entries and +inf diagonal entries pass. Real input only: complex
    input raises a TypeError."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return np.linalg._umath_linalg.cholesky_lo(g, signature="d->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Matrix is not positive definite") from None


def _assemble_metric(gen: Generator, u, h) -> np.ndarray:
    """G = h + lam * u u^T over the last axis, from the gradient rows u and
    the Hessians h of phi, unchecked. G is exactly symmetric, with no
    symmetrising step: h must be, and u_i * u_j is the same product as
    u_j * u_i."""
    return h + gen.lam * (u[..., None] * u[..., None, :])


# ---------------------------------------------------------------------------
# the convex generator Phi = (exp(lam*phi) - 1)/lam and its Bregman geometry


def conformal_weight(gen: Generator, theta):
    """exp(lam*phi(theta)), the rate of the clock tau that turns the Hessian
    flow of Phi into the conformal flow, so that hess Phi = weight * G; exactly
    1 at lam = 0. One weight per row of a batch."""
    return np.exp(gen.lam * gen.value(theta))


def big_phi_value(gen: Generator, theta):
    """Phi(theta) = (exp(lam*phi) - 1)/lam, phi itself when lam ~ 0; one
    value per row of a batch."""
    if gen.is_bregman:
        return gen.value(_vec(theta))
    return np.expm1(gen.lam * gen.value(_vec(theta))) / gen.lam


def big_phi_hess(gen: Generator, theta) -> np.ndarray:
    """hess Phi = exp(lam*phi) * G, one ``(d, d)`` matrix per row; raises
    RegularityError unless every G is finite and positive definite."""
    theta = _vec(theta)
    return conformal_weight(gen, theta)[..., None, None] * metric(gen, theta)


def big_phi_bregman(gen: Generator, theta, theta_p):
    """Bregman divergence of Phi; the potential behind all convergence bounds.
    Either point may be a batch; one value per row."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    gp = zeta_of(gen, theta_p)
    return (big_phi_value(gen, theta) - big_phi_value(gen, theta_p)
            - np.vecdot(gp, theta - theta_p))


def zeta_of(gen: Generator, theta) -> np.ndarray:
    """Bregman-dual coordinate zeta = grad Phi(theta) = exp(lam*phi) grad phi,
    one row per row of a batch."""
    theta = np.asarray(theta)
    return conformal_weight(gen, theta)[..., None] * gen.grad(theta)


def theta_of_zeta(gen: Generator, zeta, theta0) -> np.ndarray:
    """Invert grad Phi by damped Newton from theta0:
    Jacobian hess Phi, Armijo backtracking on the residual norm inside the
    open domain; SolverError if that fails or stalls in NEWTON_MAX_ITER steps."""
    zeta = _vec(zeta)
    theta = _vec(theta0)
    res = zeta_of(gen, theta) - zeta
    rnorm = np.linalg.norm(res)
    for _ in range(NEWTON_MAX_ITER):
        if rnorm <= NEWTON_TOL:
            break
        try:
            step = _solve(big_phi_hess(gen, theta), -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at theta={theta}") from exc
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            if gen.domain.contains(cand):
                try:
                    cres = zeta_of(gen, cand) - zeta
                except GeometryError:
                    cres = None
                if cres is not None and np.linalg.norm(cres) <= (1.0 - 1e-4 * t) * rnorm:
                    theta, res, rnorm = cand, cres, np.linalg.norm(cres)
                    break
            t *= 0.5
        else:
            raise SolverError(f"Newton line search stalled at theta={theta}")
    if rnorm <= NEWTON_TOL * max(1.0, np.linalg.norm(zeta)):
        return theta
    raise SolverError(f"dual-potential inversion did not converge (residual {rnorm:.3e})")
