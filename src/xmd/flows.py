"""Gradient flows for the conformal Hessian metric and convergence diagnostics.

The continuous flow is d theta/dt = -G^{-1}(theta) grad f(theta). Under the
mirror map it reads d eta/dt = -pi * (I + lam eta theta^T) grad f(theta), and
in the Bregman-dual coordinate zeta = grad Phi(theta) it collapses to
d zeta/dt = -exp(lam*phi(theta)) grad f(theta), exposing the flow as a time
change (with clock tau_t = integral of exp(lam*phi)) of the Hessian flow of
Phi. ``step_adaptive_mirror`` discretizes it by forward Euler in zeta.

The RK4 integrator steps a point ``(dim,)`` or a batch of rows
``(batch, dim)``: each stage evaluates the generator, the metric and the
objective over the last axis, and the four stage metrics of a step are
checked positive definite in one stacked Cholesky. Every integrator takes its
grid, and a batch steps on one grid per row. ``lyapunov_continuous`` steps a
path and its Richardson companion, on every other point of the path's grid,
as the two rows of one batch, on the grid it is given: ``_time_grid`` builds
a uniform one, as ``flow-equivalence`` steps on, or a graded one whose steps
grow geometrically, fine where a path's integration error is made and coarse
where it has settled. On a graded grid of an even step count the companion
steps on the grid of half the steps at the same stretch.

``discrete_lyapunov_run`` stops stepping at the first step that returns its
input's bits: each step is a function of its input alone, so every later
step would return them too.

The diagnostics read each claim off a whole path at once: the maps of
``core`` and the objectives' values work over the last axis, so one
trajectory ``(n, d)`` is one batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (DomainError, DualPair, Generator, GeometryError,
                   RegularityError, SolverError, _assemble_metric, _cholesky, _directional,
                   _metric_parts, _solve, _vec,
                   big_phi_bregman, conformal_weight, inverse_mirror, lambda_mirror,
                   log_div, metric, theta_of_zeta, zeta_of)

MAX_HALVINGS = 20
MONOTONE_TOL = 1e-9
# conformal_smoothness_estimate raises on a denominator B_Phi[x:y] * exp(-lam*phi(y))
# below this: the ratio it bounds is then unbounded
SMOOTHNESS_GUARD = 1e-18


@dataclass(frozen=True)
class Objective:
    """A differentiable target with optional known minimizer. ``value`` and
    ``grad`` work over the last axis, one value and one gradient row per row:
    the diagnostics read values off whole paths, and the RK4 stages take
    gradients of batches."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    theta_star: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FlowState:
    """A whole trajectory, one row per grid point: the primal points theta
    ``(n, d)``, the times t ``(n,)``, the clock tau ``(n,)`` and the
    tau-weighted running average theta_hat ``(n, d)``. ``len`` is the number
    of grid points. A batch of paths has a batch axis after the grid axis:
    theta and theta_hat ``(n, batch, d)``, and t and tau ``(n, batch)``, one
    grid per row. The dual coordinates are derived where they are read, for
    the whole path at once: eta by ``lambda_mirror(gen, theta)``, zeta by
    ``zeta_of(gen, theta)``."""

    theta: np.ndarray
    t: np.ndarray
    tau: np.ndarray
    theta_hat: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ConvergenceReport:
    """An audited potential, each series an array of rows (t or k, value):
    the potential E, the averaged-iterate bound, the gap f(average) - f* that
    it bounds, and each rise of E above MONOTONE_TOL (t or k, increase). A
    non-finite rise counts as a violation. ``bound_dominates`` holds the gap
    between -1e-12 and the bound plus 1e-12: a gap is never negative, since
    f* is the least value of f. A non-finite gap or bound fails it.

    A continuous report carries ``richardson_error``, the estimate of the
    integration error in E, and is ``monotone`` only if twice the estimate
    is under MONOTONE_TOL: a larger error could invent or hide a rise. A NaN
    estimate fails that budget. The discrete report carries None: its E is
    computed exactly from its iterates, with no budget."""

    lyapunov_series: np.ndarray
    bound_series: np.ndarray
    gap_series: np.ndarray
    violations: np.ndarray
    richardson_error: Optional[float] = None

    @property
    def monotone(self) -> bool:
        in_budget = self.richardson_error is None or 2.0 * self.richardson_error < MONOTONE_TOL
        return len(self.violations) == 0 and in_budget

    @property
    def bound_dominates(self) -> bool:
        gap = self.gap_series[:, 1]
        return bool(np.all((gap >= -1e-12) & (gap <= self.bound_series[:, 1] + 1e-12)))


def _audit(t, e, t_bound, bound, gap, richardson_error=None) -> ConvergenceReport:
    """The report of a potential e on the axis t and of a bound and a gap
    on the axis t_bound."""
    rise = np.diff(e)
    bad = ~(rise <= MONOTONE_TOL)
    return ConvergenceReport(lyapunov_series=np.column_stack((t, e)),
                             bound_series=np.column_stack((t_bound, bound)),
                             gap_series=np.column_stack((t_bound, gap)),
                             violations=np.column_stack((t[1:][bad], rise[bad])),
                             richardson_error=richardson_error)


def _row_norm(x):
    """Euclidean norm of each row, rounded as ``np.linalg.norm`` of one row."""
    return np.sqrt(np.vecdot(x, x))


def quadratic_objective(center) -> Objective:
    center = _vec(center)

    def value(t):
        diff = _vec(t) - center
        return 0.5 * np.vecdot(diff, diff)

    return Objective(value=value, grad=lambda t: _vec(t) - center, theta_star=center)


def _primal_logdiv_grad(gen: Generator, theta_star, theta, u, h) -> np.ndarray:
    """Gradient of L[theta_star : theta] over the last axis, from the
    gradient rows u and the Hessians h of phi at theta:
    -u - (h (theta_star - theta) - u) / w with w = 1 + lam*<u, theta_star - theta>,
    and -h (theta_star - theta) at lam ~ 0, where the quotient cancels."""
    step = theta_star - theta
    h_step = (h @ step[..., None])[..., 0]
    if gen.is_bregman:
        return -h_step
    w = 1.0 + gen.lam * np.vecdot(u, step)
    if np.count_nonzero(w <= 0.0):
        raise DomainError(f"log argument {np.min(w):.3e} <= 0 in the primal objective")
    return -u - (h_step - u) / w[..., None]


def dual_logdiv_objective(gen: Generator, theta_star) -> Objective:
    """f(theta) = L[theta : theta_star]; its flow follows a dual geodesic."""
    theta_star = _vec(theta_star)
    eta_star = lambda_mirror(gen, theta_star).eta
    return Objective(value=lambda t: log_div(gen, t, theta_star),
                     grad=lambda t: _dual_logdiv_grad(gen, lambda_mirror(gen, t), eta_star),
                     theta_star=theta_star)


def _dual_logdiv_grad(gen: Generator, pair: DualPair, eta_star) -> np.ndarray:
    """Gradient of L[theta : theta_star] at the mirrored point(s) ``pair``:
    eta/pi - eta_star/pi_star, with pi_star = 1 + lam*<theta, eta_star>."""
    pi_star = 1.0 + gen.lam * np.vecdot(pair.theta, eta_star)
    if np.count_nonzero(pi_star <= 0.0):
        raise DomainError(f"pairing {np.min(pi_star):.3e} <= 0 in the dual objective")
    return pair.eta / pair.pi[..., None] - eta_star / pi_star[..., None]


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_primal(gen: Generator, obj: Objective, theta) -> np.ndarray:
    """-G^{-1}(theta) grad f(theta), one row per row of theta; raises
    RegularityError unless every G is finite and positive definite."""
    theta = _vec(theta)
    return -_solve(metric(gen, theta), _vec(obj.grad(theta)))


def rhs_dual(gen: Generator, obj: Objective, pair: DualPair) -> np.ndarray:
    """-pi * (I + lam eta theta^T) grad f(theta), the flow of the dual
    variable, one row per row of ``pair``."""
    return _dual_velocity(gen, pair, _vec(obj.grad(pair.theta)))


def _dual_velocity(gen: Generator, pair: DualPair, df) -> np.ndarray:
    """-pi * (I + lam eta theta^T) df, row-wise."""
    corr = df + gen.lam * pair.eta * np.vecdot(pair.theta, df)[..., None]
    return -pair.pi[..., None] * corr


# ---------------------------------------------------------------------------
# integration


# what rejects an RK4 step: a stage off its domain or regularity, a singular
# stage metric, or a failed positive-definiteness check
_REJECTED = (GeometryError, np.linalg.LinAlgError)


def _integrate_path(stage: Callable, feasible, x0, times) -> np.ndarray:
    """Classic 4th-order Runge-Kutta over the grid ``times``, one step per
    difference, from one point ``x0`` ``(dim,)`` on one grid ``(n,)``, or
    from a batch of rows ``(batch, dim)`` on one grid per row ``(n, batch)``.
    Returns the path, one point or batch per grid point.

    ``stage(x)`` gives the derivative at x, one row per row, and the
    metrics G ``(..., d, d)`` it solved with. The four stage metrics of a
    step are checked positive definite in one stacked Cholesky, and
    ``feasible(out)`` tests the end point: a bool for one point, a mask
    over the rows of a batch.

    A step whose check fails, whose stage raises a GeometryError or a
    LinAlgError (a singular G), or whose end point is infeasible or not
    finite (a NaN clock included), is halved, and each half steps on its
    own, up to MAX_HALVINGS deep. The steps run under
    np.errstate(all="ignore"): these tests reject every non-finite value. A
    batch step that fails in any row is redone row by row from its start,
    each row through that one-point recursion, so that every row keeps the
    bits of its one-point path.

    A zero-length step holds its point still, with no stage evaluated. In a
    step where some row's grid holds still, the rows that move step row by
    row, as in a redo: a row on a grid with repeated points keeps the bits
    of its one-point path on that grid without them.

    Raises ValueError, before any step, for a grid of any other shape."""
    x0 = _vec(x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != x0.ndim or times.shape[1:] != x0.shape[:-1]:
        want = "(n,)" if x0.ndim == 1 else f"(n, {x0.shape[0]}), one grid per row"
        raise ValueError(f"a start of shape {x0.shape} steps on a grid of shape {want}, "
                         f"not {times.shape}")
    path = np.empty((len(times),) + x0.shape)
    path[0] = x0

    def rk4(x, h):
        k1, g1 = stage(x)
        k2, g2 = stage(x + 0.5 * h * k1)
        k3, g3 = stage(x + 0.5 * h * k2)
        k4, g4 = stage(x + h * k3)
        out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _cholesky(np.array((g1, g2, g3, g4)))
        ok = feasible(out)
        if np.count_nonzero(~np.isfinite(out)) or not (
                np.count_nonzero(ok) == ok.size if out.ndim > 1 else ok):
            raise DomainError("step left the domain or reached a state that is not finite")
        return out

    def advance(x, h, depth):
        try:
            return rk4(x, h)
        except _REJECTED:
            if depth >= MAX_HALVINGS:
                raise SolverError(f"step size halved {MAX_HALVINGS} times without staying feasible")
            half = advance(x, 0.5 * h, depth + 1)
            return advance(half, 0.5 * h, depth + 1)

    with np.errstate(all="ignore"):
        for i, h in enumerate(np.diff(times, axis=0).tolist()):
            if x0.ndim == 1:
                path[i + 1] = advance(path[i], h, 0) if h else path[i]
                continue
            if all(h):
                try:
                    path[i + 1] = rk4(path[i], np.array(h)[:, None])
                    continue
                except _REJECTED:
                    pass
            path[i + 1] = [advance(x, step, 0) if step else x for x, step in zip(path[i], h)]
    return path


def _time_grid(t_end: float, n_steps: int, stretch: float = 1.0) -> np.ndarray:
    """The grid of n_steps steps from 0 to t_end whose steps grow
    geometrically, the last about ``stretch`` times the first: step k ends at
    t_end * expm1(a k/n) / expm1(a), a = log(stretch). At stretch 1 it is
    ``np.linspace(0, t_end, n_steps + 1)``. Both end points are exact, and
    for an even n_steps every other point holds the bits of the grid of
    n_steps/2 steps: k/n and its halved k and n round alike."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (np.isfinite(stretch) and stretch > 0.0):
        raise ValueError("stretch must be finite and positive")
    if stretch == 1.0:
        return np.linspace(0.0, t_end, n_steps + 1)
    a = np.log(stretch)
    return t_end * (np.expm1(a * (np.arange(n_steps + 1) / n_steps)) / np.expm1(a))


def integrate(gen: Generator, obj: Objective, theta0, t) -> FlowState:
    """Integrate the conformal flow together with its clock on the grid t:
    the state (theta, tau, integral of w*theta dt) with w = exp(lam*phi(theta))
    runs through one RK4 pass, so tau and the tau-weighted average theta_hat
    are 4th-order accurate like theta. From one point theta0 ``(dim,)`` on
    one grid ``(n,)``, or from its rows ``(batch, dim)`` as one
    ``_integrate_path`` batch on one grid per row ``(n, batch)``; returns the
    path, or the batch of paths, as one FlowState."""
    theta0 = _vec(theta0)
    dim = theta0.shape[-1]

    def stage(x):
        theta = x[..., :dim]
        g = _assemble_metric(gen, gen.grad(theta), gen.hess(theta))
        w = conformal_weight(gen, theta)
        out = np.empty_like(x)
        out[..., :dim] = -_solve(g, obj.grad(theta))
        out[..., dim] = w
        out[..., dim + 1:] = w[..., None] * theta
        return out, g

    x0 = np.concatenate([theta0, np.zeros(theta0.shape[:-1] + (dim + 1,))], axis=-1)
    path = _integrate_path(stage, lambda x: gen.domain.contains(x[..., :dim]), x0, t)
    thetas, tau = path[..., :dim], path[..., dim]
    # theta_hat = (integral of w*theta dt) / tau, and theta itself where tau = 0
    theta_hat = np.divide(path[..., dim + 1:], tau[..., None], out=thetas.copy(),
                          where=tau[..., None] != 0.0)
    return FlowState(theta=thetas, t=t, tau=tau, theta_hat=theta_hat)


def integrate_hessian_flow(gen: Generator, obj: Objective, theta0, s) -> np.ndarray:
    """The Hessian gradient flow of Phi, d theta/ds = -(hess Phi)^{-1} grad f,
    with hess Phi = exp(lam*phi) G, on the grid ``s``; returns the path, one
    row per grid point."""
    def stage(theta):
        g = _assemble_metric(gen, gen.grad(theta), gen.hess(theta))
        w = conformal_weight(gen, theta)
        return -_solve(w[..., None, None] * g, obj.grad(theta)), g

    return _integrate_path(stage, gen.domain.contains, theta0, s)


# ---------------------------------------------------------------------------
# discrete steps


def _guarded_step(x, base, direction, delta, accept):
    """Step each row of x by base + d * direction, kept inside its open
    domain: the step-size control of every discrete scheme in the package.

    ``x`` is one point ``(dim,)`` or a batch ``(batch, dim)``, and ``base``
    and ``direction`` have one row per row of x. ``delta`` is one step size
    or one per row; each row takes its first accepted candidate at
    d = delta * 2**-j, j = 0..MAX_HALVINGS. A try forms every row
    z = base + d * direction, and ``accept(z)`` maps and tests them: it gives
    the rows to take (the mapped candidates, or repairs such as reflections)
    and a row mask. Only the pending rows halve d, so a row that was accepted
    or stopped is formed again at its last d on each later try, and that
    result is thrown away. Candidates run under np.errstate(all="ignore"):
    every accept test rejects non-finite rows.

    A row that its accept test rejects with z == base in every component
    stops there: the halvings of d are exact, so every later z rounds to the
    same bits and is rejected too. Returns the rows and the mask of rows
    never accepted, which keep their value from x.

    The masks of pending and stopped rows exist only once the first try
    leaves a row pending: a first try that accepts every row returns its
    candidates at once, with an all-False mask of one entry per row.
    """
    d = np.full(x.shape[:-1], delta, dtype=float)
    pending = None
    with np.errstate(all="ignore"):
        for _ in range(MAX_HALVINGS + 1):
            z = base + d[..., None] * direction
            cand, ok = accept(z)
            if pending is None:
                if np.count_nonzero(ok) == d.size:  # every row accepted at once
                    return cand, np.zeros(d.shape, dtype=bool)
                pending = np.ones(d.shape, dtype=bool)
                absorbed = np.zeros(d.shape, dtype=bool)
            take = pending & ok
            x = np.where(take[..., None], cand, x)
            pending &= ~take
            absorbed |= pending & (z == base).all(axis=-1)
            pending &= ~absorbed
            if not pending.any():
                break
            d[pending] *= 0.5
    return x, pending | absorbed


def step_adaptive_mirror(gen: Generator, obj: Objective, theta_k, delta: float) -> np.ndarray:
    """Mirror step on Phi with the conformal factor as a state-dependent
    learning rate: zeta <- zeta - delta * exp(lam*phi) * grad f."""
    theta_k = _vec(theta_k)
    if delta == 0.0:
        return theta_k.copy()
    zeta_k = zeta_of(gen, theta_k)
    w = conformal_weight(gen, theta_k)
    df = _vec(obj.grad(theta_k))

    def accept(zeta):
        # a try at zeta == zeta_k cannot fail: the solve returns theta_k at residual 0
        try:
            theta = theta_of_zeta(gen, zeta, theta0=theta_k)
        except GeometryError:
            return theta_k, False
        return theta, gen.domain.contains(theta)

    theta, failed = _guarded_step(theta_k, zeta_k, -df, delta * w, accept)
    if failed:
        raise SolverError(f"step from {theta_k} infeasible after {MAX_HALVINGS} halvings")
    return theta


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class GeodesicReport:
    dual_collinearity: float
    dual_coefficient_error: float
    primal_collinearity: float

    @property
    def max_error(self) -> float:
        """The largest of the three errors; NaN if any of them is NaN."""
        return float(np.max([self.dual_collinearity, self.dual_coefficient_error,
                             self.primal_collinearity]))


def _ratio(num, den):
    """num / den, and 0 where both are 0: at a velocity of 0 where it should
    be 0, and along a segment of no length."""
    return np.divide(num, den, out=np.zeros_like(num), where=(num != 0.0) | (den != 0.0))


def geodesic_flow_check(gen: Generator, theta_star, theta0, n_points: int) -> GeodesicReport:
    """Verify that log-divergence flows run along straight lines, at n_points
    interior points of each segment: the claims are pointwise, so nothing is
    integrated. At the points of [theta0, theta_star], ``primal_collinearity``
    is the sine |v_perp|/|v| (sqrt(1 - cos^2) cancels) of the angle between
    theta_star - theta and the velocity v of f = L[theta_star : theta]. At the
    points of [eta0, eta_star], mapped back by the closed-form inverse,
    ``dual_collinearity`` is the relative error of d eta/dt, the complex step
    of the mirror map along the velocity of f = L[theta : theta_star], and
    ``dual_coefficient_error`` the largest error of ``rhs_dual``, each against
    -(pi/pi_star)(eta - eta_star).

    theta_star and theta0 are one pair ``(d,)`` or rows of pairs ``(m, d)``,
    all points one batch. Each error is the worst over the points, NaN if any
    point gives a NaN; 0/0, at theta0 = theta_star, reads 0."""
    theta_star = _vec(theta_star)[..., None, :]
    theta0 = _vec(theta0)[..., None, :]
    s = (np.arange(1, n_points + 1) / (n_points + 1))[:, None]
    theta = theta0 + s * (theta_star - theta0)
    g, u, h = _metric_parts(gen, theta)
    v = -_solve(g, _primal_logdiv_grad(gen, theta_star, theta, u, h))
    along = theta_star - theta
    v_perp = v - _ratio(np.vecdot(v, along), np.vecdot(along, along))[..., None] * along
    pcollin = _ratio(_row_norm(v_perp), _row_norm(v))

    dual = dual_logdiv_objective(gen, theta_star)
    eta0, eta_star = lambda_mirror(gen, np.stack([theta0, theta_star])).eta
    pair = lambda_mirror(gen, inverse_mirror(gen, eta0 + s * (eta_star - eta0)))
    pi_star = 1.0 + gen.lam * np.vecdot(pair.theta, eta_star)
    expected = -(pair.pi / pi_star)[..., None] * (pair.eta - eta_star)
    measured = _directional(lambda x: lambda_mirror(gen, x).eta, pair.theta,
                            rhs_primal(gen, dual, pair.theta))
    collin = _ratio(_row_norm(measured - expected), _row_norm(expected))
    coeff = np.abs(rhs_dual(gen, dual, pair) - expected)
    return GeodesicReport(*(float(np.max(e)) for e in (collin, coeff, pcollin)))


def lyapunov_continuous(gen: Generator, obj: Objective, theta0, t) -> ConvergenceReport:
    """Log divergence to the minimizer as a Lyapunov function along the
    conformal flow from theta0, plus the averaged-iterate bound
    B_Phi[theta_star : theta_0] / tau_t where tau > 0, on the grid ``t``,
    uniform or graded (see ``_time_grid``).

    A rise of E(t) = L[theta_star : theta_t] counts as a violation above
    MONOTONE_TOL, so the path's integration error in E must stay well under
    that for the report to mean the exact flow's. The report carries the
    Richardson estimate of that error: a companion run on every other grid
    point, t[::2], steps as the second row of the path's RK4 batch, and the
    estimate is max |E_path - E_companion| / 15 over the companion's points
    (RK4 is 4th order, so the companion's error is about 16 times the
    path's); NaN if either row holds a NaN there. ``monotone`` holds the
    estimate to its budget (see ConvergenceReport).

    On a graded grid of an even step count, t[::2] is the graded grid of
    half the steps at the same stretch, the rung below on the halving ladder.
    Each companion step spans a step h and the next, r h, with r =
    stretch**(1/n), 1.010 on the suite's 1-d grid and 1.016 on its 2-d grid,
    so it is (1 + r) h: its error over the pair is (1 + r)**5 / (1 + r**5)
    times the path's, 16 to first order in r - 1. On the suite's grids the
    estimate reads about 3% over the error against a run 16 times finer on
    the same stretch: the next order of RK4's error, which makes /15
    overstate on uniform grids too."""
    if obj.theta_star is None:
        raise ValueError("lyapunov_continuous requires an objective with a known minimizer")
    star = _vec(obj.theta_star)
    f_star = float(obj.value(star))
    t = np.asarray(t, dtype=float)
    # on the grid t the companion's grid jumps two steps, then holds still for a
    # step (which leaves the row out of that step), and holds at the end when
    # the step count is odd: at each even grid point the companion holds the
    # bits of a run over t[::2]
    i = np.arange(len(t))
    coarse = t[::2][np.minimum((i + 1) // 2, (len(t) - 1) // 2)]
    batch = integrate(gen, obj, np.stack([_vec(theta0)] * 2), np.column_stack((t, coarse)))
    theta, tau = batch.theta[:, 0], batch.tau[:, 0]
    e = log_div(gen, star, theta)
    err = float(np.max(np.abs(e[::2] - log_div(gen, star, batch.theta[::2, 1])))) / 15.0
    numer = big_phi_bregman(gen, star, theta[0])
    clocked = tau > 0.0
    return _audit(t, e, t[clocked], numer / tau[clocked],
                  obj.value(batch.theta_hat[clocked, 0]) - f_star, err)


def conformal_smoothness_estimate(gen: Generator, obj: Objective,
                                  grid_pairs: Sequence) -> float:
    """Smallest L with B_f[x:y] <= L * exp(-lam*phi(y)) * B_Phi[x:y] over the grid.

    Also cross-checks the two equivalent forms of the right-hand side against
    each other to 1e-10 relative. The pairs are one batch, every form taken
    over the last axis. Raises at the first pair in list order that fails a
    check, and at a pair the checks in this order: DomainError if its B_f or
    denominator is not finite, RegularityError if its two forms disagree (a
    NaN form included), and DomainError if its denominator is under
    SMOOTHNESS_GUARD. An error that a form raises itself, such as a log
    argument out of its domain, is raised for the whole batch.
    """
    if len(grid_pairs) == 0:
        return 0.0
    x = np.array([_vec(a) for a, _ in grid_pairs])
    y = np.array([_vec(b) for _, b in grid_pairs])
    # every value below is tested for a finite, agreeing, guarded form before
    # the ratio is taken, so no row's overflow or NaN needs a warning
    with np.errstate(all="ignore"):
        bf = obj.value(x) - obj.value(y) - np.vecdot(_vec(obj.grad(y)), x - y)
        w_y = conformal_weight(gen, y)
        denom = big_phi_bregman(gen, x, y) / w_y
        # every comparison below is False for a NaN
        bad = ~(np.isfinite(bf) & np.isfinite(denom))
        if not gen.is_bregman:
            alt = (conformal_weight(gen, x) / w_y
                   * (-np.expm1(-gen.lam * log_div(gen, x, y))) / gen.lam)
            disagree = ~(np.abs(denom - alt) <= 1e-10 * np.maximum(1.0, np.abs(denom)))
        else:
            disagree = np.zeros_like(bad)
        unbounded = denom < SMOOTHNESS_GUARD
    failed = bad | disagree | unbounded
    if np.count_nonzero(failed):
        i = int(np.argmax(failed))
        pair = f"({x[i]}, {y[i]})"
        if bad[i]:
            raise DomainError(f"non-finite smoothness ratio at pair {pair}: "
                              f"B_f = {bf[i]}, denominator {denom[i]}")
        if disagree[i]:
            raise RegularityError(
                f"smoothness denominators disagree at {pair}: {denom[i]} vs {alt[i]}")
        raise DomainError(f"unbounded smoothness ratio at pair {pair}")
    return max(0.0, float(np.max(bf / denom)))


def discrete_lyapunov_run(gen: Generator, obj: Objective, theta0, delta: float,
                          k_max: int) -> ConvergenceReport:
    """Run the adaptive-mirror scheme and audit the discrete potential
    E_k = B_Phi[star : theta_k] + delta * sum_s w_s (f(theta_s) - f*), with
    weights w_s = exp(lam*phi(theta_{s-1})), and its averaged-iterate bound.
    The running sums are cumulative sums, left to right, as the steps run.

    The run stops stepping at the first step that returns its input's bits
    (the suite's run does at step 45 of 2000) and fills the later iterates
    with that point: ``step_adaptive_mirror`` is a function of (gen, obj,
    theta_k, delta) alone, so every later step would return the same bits.
    Bits, not values: a step from -0.0 to 0.0 does not stop the run."""
    if obj.theta_star is None:
        raise ValueError("discrete_lyapunov_run requires an objective with a known minimizer")
    star = _vec(obj.theta_star)
    f_star = float(obj.value(star))

    thetas = [_vec(theta0)]
    for _ in range(k_max):
        thetas.append(step_adaptive_mirror(gen, obj, thetas[-1], delta))
        if thetas[-1].tobytes() == thetas[-2].tobytes():
            break
    thetas = np.array(thetas + thetas[-1:] * (k_max + 1 - len(thetas)))

    w = conformal_weight(gen, thetas[:-1])
    wsum = np.cumsum(w)
    running = np.cumsum(w * (obj.value(thetas[1:]) - f_star))
    e = big_phi_bregman(gen, star, thetas[1:]) + delta * running
    theta_hat = np.cumsum(w[:, None] * thetas[1:], axis=0) / wsum[:, None]
    k = np.arange(1, k_max + 1)
    # e[:1] is E_1, or nothing when k_max = 0
    return _audit(k, e, k, e[:1] / (delta * wsum), obj.value(theta_hat) - f_star)


def time_change_compare(gen: Generator, obj: Objective, theta0, t) -> float:
    """Sup distance between the conformal flow on the grid t and the Hessian
    flow of Phi at its clock tau(t): the time change of the paper, checked
    at the conformal run's own grid points; NaN if either path holds a NaN.

    The exact conformal path and the Hessian path read at its clock
    coincide, so the deviation is the integration error plus any fault of
    the time change: a coarser grid can only raise it, never hide a fault,
    and the grid needs no companion run to certify it. The grid may be as
    coarse as keeps the integration error under the check's tolerance."""
    conformal = integrate(gen, obj, theta0, t)
    hess_path = integrate_hessian_flow(gen, obj, theta0, conformal.tau)
    return float(np.max(_row_norm(conformal.theta - hess_path)))
