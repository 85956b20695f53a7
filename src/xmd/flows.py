"""Gradient flows for the conformal Hessian metric, their Euler discretizations,
and convergence diagnostics.

The continuous flow is d theta/dt = -G^{-1}(theta) grad f(theta). Under the
mirror map it reads d eta/dt = -pi * (I + lam eta theta^T) grad f(theta), and
in the Bregman-dual coordinate zeta = grad Phi(theta) it collapses to
d zeta/dt = -exp(lam*phi(theta)) grad f(theta), exposing the flow as a time
change (with clock tau_t = integral of exp(lam*phi)) of the Hessian flow of
Phi. Three forward-Euler schemes discretize the same flow in the three
coordinate systems.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (Domain, DomainError, DualPair, Generator, GeometryError,
                   RegularityError, SolverError, _vec, big_phi_bregman,
                   big_phi_hess, conformal_weight, inverse_mirror,
                   lambda_mirror, log_div, metric, theta_of_zeta, zeta_of)

MAX_HALVINGS = 20
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Objective:
    """A differentiable target with optional known minimizer."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    theta_star: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FlowState:
    """One trajectory sample: the primal point, the time t, the clock tau, and
    the tau-weighted running average of the path. The dual coordinates are
    derived where they are read: eta by ``lambda_mirror(gen, theta)``, zeta by
    ``zeta_of(gen, theta)``."""

    theta: np.ndarray
    t: float
    tau: float
    theta_hat: np.ndarray


@dataclass
class ConvergenceReport:
    lyapunov_series: list = field(default_factory=list)   # (t or k, E)
    bound_series: list = field(default_factory=list)      # (t or k, bound)
    gap_series: list = field(default_factory=list)        # (t or k, f(avg) - f*)
    violations: list = field(default_factory=list)        # (t or k, increase)

    @property
    def monotone(self) -> bool:
        return not self.violations

    @property
    def bound_dominates(self) -> bool:
        return all(g <= b + 1e-12 for (_, g), (_, b) in zip(self.gap_series, self.bound_series))


def quadratic_objective(center, weight: float = 1.0) -> Objective:
    center = _vec(center)
    return Objective(
        value=lambda t: 0.5 * weight * float((_vec(t) - center) @ (_vec(t) - center)),
        grad=lambda t: weight * (_vec(t) - center),
        theta_star=center,
    )


def primal_logdiv_objective(gen: Generator, theta_star) -> Objective:
    """f(theta) = L[theta_star : theta]; its flow follows a primal geodesic."""
    theta_star = _vec(theta_star)

    def grad(theta):
        theta = _vec(theta)
        u = _vec(gen.grad(theta))
        h = np.atleast_2d(gen.hess(theta))
        if gen.is_bregman:
            return -np.asarray(h) @ (theta_star - theta)
        w = 1.0 + gen.lam * float(u @ (theta_star - theta))
        if w <= 0.0:
            raise DomainError(f"log argument {w:.3e} <= 0 in the primal objective")
        return -u - (h @ (theta_star - theta) - u) / w

    return Objective(value=lambda t: log_div(gen, theta_star, t), grad=grad,
                     theta_star=theta_star)


def dual_logdiv_objective(gen: Generator, theta_star) -> Objective:
    """f(theta) = L[theta : theta_star]; its flow follows a dual geodesic."""
    theta_star = _vec(theta_star)
    eta_star = lambda_mirror(gen, theta_star).eta

    def grad(theta):
        pair = lambda_mirror(gen, theta)
        if gen.is_bregman:
            return pair.eta - eta_star
        pi_star = 1.0 + gen.lam * float(pair.theta @ eta_star)
        if pi_star <= 0.0:
            raise DomainError(f"pairing {pi_star:.3e} <= 0 in the dual objective")
        return pair.eta / pair.pi - eta_star / pi_star

    return Objective(value=lambda t: log_div(gen, t, theta_star), grad=grad,
                     theta_star=theta_star)


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_primal(gen: Generator, obj: Objective, theta) -> np.ndarray:
    """-G^{-1}(theta) grad f(theta)."""
    theta = _vec(theta)
    return -np.linalg.solve(metric(gen, theta), _vec(obj.grad(theta)))


def rhs_dual(gen: Generator, obj: Objective, pair: DualPair) -> np.ndarray:
    """-pi * (I + lam eta theta^T) grad f(theta), the flow of the dual variable."""
    df = _vec(obj.grad(pair.theta))
    if gen.is_bregman:
        return -df
    corr = df + gen.lam * pair.eta * float(pair.theta @ df)
    return -pair.pi * corr


# ---------------------------------------------------------------------------
# integration


def _integrate_path(rhs: Callable[[np.ndarray], np.ndarray], feasible,
                    x0, times) -> np.ndarray:
    """Classic 4th-order Runge-Kutta over the grid ``times``, one step per
    difference, with step halving (up to MAX_HALVINGS) whenever a stage or
    the accepted point leaves the domain. Returns the path, one row per
    grid point."""
    x0 = _vec(x0)
    path = np.empty((len(times), x0.size))
    path[0] = x0

    def rk4(x, h):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not feasible(out):
            raise DomainError("step left the domain")
        return out

    def advance(x, h, depth):
        try:
            return rk4(x, h)
        except GeometryError:
            if depth >= MAX_HALVINGS:
                raise SolverError(f"step size halved {MAX_HALVINGS} times without staying feasible")
            half = advance(x, 0.5 * h, depth + 1)
            return advance(half, 0.5 * h, depth + 1)

    for i, h in enumerate(np.diff(times)):
        path[i + 1] = advance(path[i], h, 0)
    return path


def integrate(gen: Generator, obj: Objective, theta0, t_end: float,
              dt: float = 1e-3) -> list[FlowState]:
    """Integrate the conformal flow together with its clock: the state
    (theta, tau, integral of w*theta dt) with w = exp(lam*phi(theta)) runs
    through one RK4 pass, so tau and the tau-weighted average theta_hat are
    4th-order accurate like theta. Returns one FlowState per grid point,
    t = 0, dt, ..., n_steps*dt."""
    theta0 = _vec(theta0)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    dim = theta0.size
    n_steps = int(round(t_end / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)

    def rhs(x):
        theta = x[:dim]
        w = conformal_weight(gen, theta)
        return np.concatenate([rhs_primal(gen, obj, theta), [w], w * theta])

    path = _integrate_path(rhs, lambda x: gen.domain.contains(x[:dim]),
                           np.concatenate([theta0, [0.0], np.zeros(dim)]), times)
    states = []
    for t, x in zip(times, path):
        theta, tau = x[:dim], float(x[dim])
        theta_hat = theta.copy() if tau == 0.0 else x[dim + 1:] / tau
        states.append(FlowState(theta=theta, t=float(t), tau=tau, theta_hat=theta_hat))
    return states


def integrate_hessian_flow(gen: Generator, obj: Objective, theta0, s) -> np.ndarray:
    """The Hessian gradient flow of Phi, d theta/ds = -(hess Phi)^{-1} grad f,
    on the grid ``s``; returns the path, one row per grid point."""
    def rhs(theta):
        return -np.linalg.solve(big_phi_hess(gen, theta), _vec(obj.grad(theta)))

    return _integrate_path(rhs, gen.domain.contains, theta0, s)


# ---------------------------------------------------------------------------
# forward-Euler steps in the three coordinate systems


def _guarded_step(x, delta: float, propose, accept):
    """Step each row of x by delta, kept inside its open domain: the step-size
    control of every discrete scheme in the package.

    ``x`` is one point ``(dim,)`` or a batch ``(batch, dim)``. ``propose(d)``
    gives the candidate rows for the per-row step sizes d; ``accept(cand)``
    gives the rows to take (the candidates, or repairs such as reflections)
    and a row mask. Each row takes its first accepted candidate at
    d = delta * 2**-j, j = 0..MAX_HALVINGS; a GeometryError rejects every
    pending row at that j. Candidates run under np.errstate(all="ignore"):
    every accept test rejects non-finite rows. Returns the rows and the mask
    of rows never accepted, which keep their value from x.
    """
    d = np.full(x.shape[:-1], float(delta))
    pending = np.ones(d.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(MAX_HALVINGS + 1):
            try:
                cand, ok = accept(propose(d))
            except GeometryError:
                cand, ok = x, False
            take = pending & ok
            if take.all():  # every row accepted at once: nothing to merge
                return cand, ~take
            x = np.where(take[..., None], cand, x)
            pending = pending & ~take
            if not pending.any():
                break
            d = np.where(pending, 0.5 * d, d)
    return x, pending


def _reflecting(test, reflect):
    """Accept test that repairs by reflection: per row, the rows of
    ``test(cand)`` where its mask holds, else those of ``test(reflect(cand))``.
    ``test`` returns (rows, mask); with ``reflect`` None nothing is repaired."""
    def accept(cand):
        rows, ok = test(cand)
        ok = np.asarray(ok)
        if ok.all() or reflect is None:
            return rows, ok
        refl_rows, refl_ok = test(reflect(cand))
        return np.where((~ok & refl_ok)[..., None], refl_rows, rows), ok | refl_ok
    return accept


def _reflect_into(domain: Domain):
    """Accept test of the primal steps: the candidate, else its reflection
    across the violated box faces, if it lies in the domain."""
    return _reflecting(lambda theta: (theta, domain.contains(theta)), domain.reflect)


def _invert_rows(gen: Generator, eta, theta0):
    """``inverse_mirror`` row by row: theta, and the mask of rows where it
    succeeds. A registered closed form runs on all rows at once, with the
    rows outside the dual domain moved to its anchor."""
    if gen.inverse_mirror_closed is None:
        theta = np.array(theta0, dtype=float)
        ok = np.zeros(eta.shape[:-1], dtype=bool)
        for i in np.ndindex(ok.shape):
            try:
                theta[i] = inverse_mirror(gen, eta[i], theta0=theta0[i])
                ok[i] = True
            except GeometryError:
                pass
        return theta, ok
    dual = gen.dual_domain
    if dual is None:
        ok = np.ones(eta.shape[:-1], dtype=bool)
    else:
        ok = np.asarray(dual.contains(eta))
        if not ok.all():
            eta = np.where(ok[..., None], eta, dual.anchor)
    theta = np.asarray(gen.inverse_mirror_closed(eta), dtype=float)
    return theta, ok & gen.domain.contains(theta)


def _dual_accept(gen: Generator, theta0, reflect=None):
    """Accept test of the steps in the dual coordinate: per row, the first of
    (eta, its reflection into the dual domain) whose mirror inverse exists,
    taken as the row [eta, theta]. ``reflect`` defaults to the box reflection
    of the dual domain; inversions are seeded at theta0."""
    if reflect is None and gen.dual_domain is not None:
        reflect = gen.dual_domain.reflect

    def test(eta):
        theta, ok = _invert_rows(gen, eta, theta0)
        return np.concatenate([eta, theta], axis=-1), ok
    return _reflecting(test, reflect)


def step_primal_euler(gen: Generator, obj: Objective, theta_k, delta: float) -> np.ndarray:
    theta_k = _vec(theta_k)
    if delta == 0.0:
        return theta_k.copy()
    direction = rhs_primal(gen, obj, theta_k)
    theta, failed = _guarded_step(theta_k, delta, lambda d: theta_k + d * direction,
                                  _reflect_into(gen.domain))
    if failed:
        raise SolverError(f"step from {theta_k} infeasible after {MAX_HALVINGS} halvings")
    return theta


def step_dual_euler(gen: Generator, obj: Objective, pair: DualPair, delta: float) -> DualPair:
    """eta step followed by mirror inversion; infeasible eta is reflected into
    the dual domain (when one is registered) and the step halved otherwise."""
    if delta == 0.0:
        return pair
    direction = rhs_dual(gen, obj, pair)
    x, failed = _guarded_step(np.concatenate([pair.eta, pair.theta]), delta,
                              lambda d: pair.eta + d * direction,
                              _dual_accept(gen, pair.theta))
    if failed:
        raise SolverError("dual step infeasible after halving")
    eta, theta = np.split(x, 2)
    return DualPair(theta, eta, 1.0 + gen.lam * float(theta @ eta))


def step_adaptive_mirror(gen: Generator, obj: Objective, theta_k, delta: float) -> np.ndarray:
    """Mirror step on Phi with the conformal factor as a state-dependent
    learning rate: zeta <- zeta - delta * exp(lam*phi) * grad f."""
    theta_k = _vec(theta_k)
    if delta == 0.0:
        return theta_k.copy()
    zeta_k = zeta_of(gen, theta_k)
    w = conformal_weight(gen, theta_k)
    df = _vec(obj.grad(theta_k))
    theta, failed = _guarded_step(
        theta_k, delta, lambda d: theta_of_zeta(gen, zeta_k - d * w * df, theta0=theta_k),
        _reflect_into(gen.domain))
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
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.dual_collinearity, self.dual_coefficient_error,
                   self.primal_collinearity) < self.tol


def _segment_deviation(x, a, b) -> float:
    seg = b - a
    denom = float(seg @ seg)
    if denom == 0.0:
        return float(np.linalg.norm(x - a))
    s = np.clip(float((x - a) @ seg) / denom, 0.0, 1.0)
    return float(np.linalg.norm(x - (a + s * seg)))


def geodesic_flow_check(gen: Generator, theta_star, theta0, t_end: float = 1.0,
                        dt: float = 1e-3, tol: float = 1e-6) -> GeodesicReport:
    """Verify that log-divergence flows run along straight lines: the dual flow
    in eta with velocity -(pi/pi_star)(eta - eta_star), the primal flow in theta."""
    theta_star = _vec(theta_star)
    theta0 = _vec(theta0)
    eta_star = lambda_mirror(gen, theta_star).eta
    eta0 = lambda_mirror(gen, theta0).eta

    dual_obj = dual_logdiv_objective(gen, theta_star)
    dual_states = integrate(gen, dual_obj, theta0, t_end, dt)
    collin = 0.0
    coeff = 0.0
    for st in dual_states:
        pair = lambda_mirror(gen, st.theta)
        collin = max(collin, _segment_deviation(pair.eta, eta0, eta_star))
        measured = rhs_dual(gen, dual_obj, pair)
        pi_star = 1.0 + gen.lam * float(st.theta @ eta_star)
        expected = -(pair.pi / pi_star) * (pair.eta - eta_star)
        coeff = max(coeff, float(np.max(np.abs(measured - expected))))

    primal_obj = primal_logdiv_objective(gen, theta_star)
    primal_states = integrate(gen, primal_obj, theta0, t_end, dt)
    pcollin = max(_segment_deviation(st.theta, theta0, theta_star) for st in primal_states)

    return GeodesicReport(dual_collinearity=collin, dual_coefficient_error=coeff,
                          primal_collinearity=pcollin, tol=tol)


def lyapunov_continuous(gen: Generator, obj: Objective,
                        states: Sequence[FlowState]) -> ConvergenceReport:
    """Log divergence to the minimizer as a Lyapunov function, plus the
    averaged-iterate bound B_Phi[theta_star : theta_0] / tau_t."""
    if obj.theta_star is None:
        raise ValueError("lyapunov_continuous requires an objective with a known minimizer")
    star = _vec(obj.theta_star)
    f_star = float(obj.value(star))
    numer = big_phi_bregman(gen, star, states[0].theta)

    report = ConvergenceReport()
    prev = None
    for st in states:
        e = log_div(gen, star, st.theta)
        report.lyapunov_series.append((st.t, e))
        if prev is not None and e - prev > MONOTONE_TOL:
            report.violations.append((st.t, e - prev))
        prev = e
        if st.tau > 0.0:
            report.bound_series.append((st.t, numer / st.tau))
            report.gap_series.append((st.t, float(obj.value(st.theta_hat)) - f_star))
    return report


def conformal_smoothness_estimate(gen: Generator, obj: Objective,
                                  grid_pairs: Sequence, guard: float = 1e-18) -> float:
    """Smallest L with B_f[x:y] <= L * exp(-lam*phi(y)) * B_Phi[x:y] over the grid.

    Also cross-checks the two equivalent forms of the right-hand side against
    each other to 1e-10 relative.
    """
    worst = 0.0
    for x, y in grid_pairs:
        x = _vec(x)
        y = _vec(y)
        bf = (float(obj.value(x)) - float(obj.value(y))
              - float(_vec(obj.grad(y)) @ (x - y)))
        w_y = conformal_weight(gen, y)
        denom = big_phi_bregman(gen, x, y) / w_y
        if not gen.is_bregman:
            alt = (conformal_weight(gen, x) / w_y
                   * (-np.expm1(-gen.lam * log_div(gen, x, y))) / gen.lam)
            if abs(denom - alt) > 1e-10 * max(1.0, abs(denom)):
                raise RegularityError(
                    f"smoothness denominators disagree at ({x}, {y}): {denom} vs {alt}")
        if denom < guard:
            raise DomainError(f"unbounded smoothness ratio at pair ({x}, {y})")
        worst = max(worst, bf / denom)
    return worst


def discrete_lyapunov_run(gen: Generator, obj: Objective, theta0, delta: float,
                          k_max: int) -> ConvergenceReport:
    """Run the adaptive-mirror scheme and audit the discrete potential
    E_k = B_Phi[star : theta_k] + delta * sum_s w_s (f(theta_s) - f*), with
    weights w_s = exp(lam*phi(theta_{s-1})), and its averaged-iterate bound."""
    if obj.theta_star is None:
        raise ValueError("discrete_lyapunov_run requires an objective with a known minimizer")
    star = _vec(obj.theta_star)
    f_star = float(obj.value(star))

    thetas = [_vec(theta0)]
    for _ in range(k_max):
        thetas.append(step_adaptive_mirror(gen, obj, thetas[-1], delta))

    report = ConvergenceReport()
    running = 0.0
    wsum = 0.0
    avg_acc = np.zeros_like(thetas[0])
    prev_e = None
    e1 = None
    for k in range(1, k_max + 1):
        w = conformal_weight(gen, thetas[k - 1])
        running += w * (float(obj.value(thetas[k])) - f_star)
        wsum += w
        avg_acc = avg_acc + w * thetas[k]
        e_k = big_phi_bregman(gen, star, thetas[k]) + delta * running
        if e1 is None:
            e1 = e_k
        report.lyapunov_series.append((k, e_k))
        if prev_e is not None and e_k - prev_e > MONOTONE_TOL:
            report.violations.append((k, e_k - prev_e))
        prev_e = e_k
        theta_hat = avg_acc / wsum
        report.gap_series.append((k, float(obj.value(theta_hat)) - f_star))
        report.bound_series.append((k, e1 / (delta * wsum)))
    return report


def time_change_compare(gen: Generator, obj: Objective, theta0, t_end: float,
                        dt: float) -> float:
    """Sup distance between the conformal flow at times t and the Hessian
    flow of Phi at its clock tau(t): the time change of the paper, checked
    on the conformal run's own grid."""
    conformal = integrate(gen, obj, theta0, t_end, dt)
    hess_path = integrate_hessian_flow(gen, obj, theta0, [st.tau for st in conformal])
    return max(float(np.linalg.norm(st.theta - theta))
               for st, theta in zip(conformal, hess_path))
