"""Flow engine: right-hand sides, integration, Euler steps, geodesics, Lyapunov."""
import math

import numpy as np
import pytest

from xmd.core import (DomainError, big_phi_hess, lambda_mirror, mirror_jacobian,
                      zeta_of)
from xmd.flows import (MAX_HALVINGS, Objective, _guarded_step,
                       conformal_smoothness_estimate,
                       discrete_lyapunov_run, dual_logdiv_objective,
                       geodesic_flow_check, integrate, integrate_hessian_flow,
                       lyapunov_continuous, primal_logdiv_objective,
                       quadratic_objective, rhs_dual, rhs_primal,
                       step_adaptive_mirror, step_dual_euler,
                       step_primal_euler, time_change_compare)
from xmd.generators import (log_reciprocal_generator, quadratic_generator,
                            student_t_generator)
from oracles import fd_grad

QUAD_2D = quadratic_generator(-0.5, 2)
LOG_1D = log_reciprocal_generator(1.0)


def test_objective_gradients_match_finite_differences():
    objs = [
        (quadratic_objective([0.4, -0.2]), np.array([0.1, 0.3])),
        (primal_logdiv_objective(QUAD_2D, [0.5, -0.3]), np.array([-0.2, 0.6])),
        (dual_logdiv_objective(QUAD_2D, [0.5, -0.3]), np.array([-0.2, 0.6])),
        (primal_logdiv_objective(LOG_1D, [2.0]), np.array([1.2])),
        (dual_logdiv_objective(LOG_1D, [2.0]), np.array([0.7])),
    ]
    for obj, theta in objs:
        fd = fd_grad(obj.value, theta)
        assert np.max(np.abs(fd - obj.grad(theta))) < 1e-5


# ---------------------------------------------------------------------------
# right-hand sides


def test_rhs_primal_values():
    gen = quadratic_generator(-1.0)
    obj = quadratic_objective([0.0])
    assert rhs_primal(gen, obj, [0.0]) == pytest.approx([0.0])
    assert rhs_primal(gen, obj, [0.5])[0] == pytest.approx(-0.5 / 0.75, abs=1e-14)


def test_rhs_primal_conformal_representation():
    # -G^{-1} grad f equals -exp(lam*phi) (hess Phi)^{-1} grad f
    gen = student_t_generator(3.0)
    obj = quadratic_objective([0.1, -0.8])
    for theta in gen.grid:
        direct = rhs_primal(gen, obj, theta)
        w = np.exp(gen.lam * float(gen.value(np.asarray(theta))))
        alt = -w * np.linalg.solve(big_phi_hess(gen, theta), obj.grad(np.asarray(theta)))
        assert np.max(np.abs(direct - alt)) < 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_rhs_dual_zero_and_classical_limit():
    gen = quadratic_generator(0.0, 2)
    obj = quadratic_objective([0.2, -0.1])
    pair = lambda_mirror(gen, [0.5, 0.5])
    assert np.allclose(rhs_dual(gen, obj, pair), -obj.grad(np.array([0.5, 0.5])))
    stationary = lambda_mirror(gen, [0.2, -0.1])
    assert np.allclose(rhs_dual(gen, obj, stationary), 0.0)


def test_rhs_dual_consistent_with_mirror_jacobian():
    rng = np.random.default_rng(5)
    gen = QUAD_2D
    obj = quadratic_objective([0.3, 0.1])
    for _ in range(5):
        theta = rng.uniform(-0.7, 0.7, size=2)
        pair = lambda_mirror(gen, theta)
        pushed = mirror_jacobian(gen, theta) @ rhs_primal(gen, obj, theta)
        assert np.max(np.abs(pushed - rhs_dual(gen, obj, pair))) < 1e-7


def test_rhs_dual_matches_trajectory_derivative():
    gen = QUAD_2D
    obj = quadratic_objective([0.3, 0.1])
    dt = 1e-3
    states = integrate(gen, obj, [-0.5, 0.8], 0.2, dt)
    pairs = [lambda_mirror(gen, st.theta) for st in states]
    for i in range(1, len(states) - 1):
        fd = (pairs[i + 1].eta - pairs[i - 1].eta) / (2 * dt)
        assert np.max(np.abs(fd - rhs_dual(gen, obj, pairs[i]))) < 1e-5


# ---------------------------------------------------------------------------
# integration


def test_integrate_stationary():
    gen = LOG_1D
    obj = quadratic_objective([0.5])
    states = integrate(gen, obj, [0.5], 1.0, 1e-2)
    assert all(abs(st.theta[0] - 0.5) < 1e-14 for st in states)
    taus = [st.tau for st in states]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_integrate_monotone_toward_target():
    gen = LOG_1D
    obj = primal_logdiv_objective(gen, [2.0])
    states = integrate(gen, obj, [1.0], 2.0, 1e-3)
    gaps = [abs(st.theta[0] - 2.0) for st in states]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_integrate_fourth_order_endpoint():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    end = {dt: integrate(gen, obj, [0.5], 1.0, dt)[-1].theta[0]
           for dt in (4e-2, 2e-2, 1e-3, 5e-4)}
    ref = integrate(gen, obj, [0.5], 1.0, 2.5e-4)[-1].theta[0]
    e_coarse = abs(end[4e-2] - ref)
    e_mid = abs(end[2e-2] - ref)
    assert 10.0 < e_coarse / e_mid < 24.0
    # halving the step at dt = 1e-3 moves the endpoint by O(dt^4)
    assert abs(end[1e-3] - end[5e-4]) < 1e-11


def test_integrate_clock_and_average_fourth_order_endpoint():
    # tau and the tau-weighted average ride in the RK4 state with theta
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    end = {dt: integrate(gen, obj, [0.5], 1.0, dt)[-1] for dt in (4e-2, 2e-2, 2.5e-4)}
    ref = end[2.5e-4]
    for read in (lambda st: st.tau, lambda st: st.theta_hat[0]):
        e_coarse = abs(read(end[4e-2]) - read(ref))
        e_mid = abs(read(end[2e-2]) - read(ref))
        assert 10.0 < e_coarse / e_mid < 24.0


def test_zeta_flow_form():
    # d zeta/dt = -exp(lam*phi(theta)) grad f(theta) along the flow
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    dt = 1e-3
    states = integrate(gen, obj, [0.5], 0.5, dt)
    for i in range(1, len(states) - 1, 25):
        fd = (zeta_of(gen, states[i + 1].theta) - zeta_of(gen, states[i - 1].theta)) / (2 * dt)
        w = math.exp(gen.lam * float(gen.value(states[i].theta)))
        expected = -w * obj.grad(states[i].theta)
        assert np.max(np.abs(fd - expected)) < 1e-5


# ---------------------------------------------------------------------------
# Euler steps


def test_step_primal_euler_values():
    gen = quadratic_generator(-1.0)
    obj = quadratic_objective([0.0])
    assert step_primal_euler(gen, obj, [0.5], 0.0)[0] == 0.5
    stepped = step_primal_euler(gen, obj, [0.5], 0.1)[0]
    assert stepped == pytest.approx(0.5 - 0.1 * 2.0 / 3.0, abs=1e-14)


def _flow_endpoint(gen, obj, theta0, t):
    return integrate(gen, obj, theta0, t, t / 64.0)[-1].theta


@pytest.mark.parametrize("step", [step_primal_euler, step_adaptive_mirror],
                         ids=["primal", "adaptive-mirror"])
def test_steps_agree_with_flow_to_second_order(step):
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    theta0 = [0.6]
    errs = []
    for delta in (0.02, 0.01):
        approx = step(gen, obj, theta0, delta)
        exact = _flow_endpoint(gen, obj, theta0, delta)
        errs.append(abs(approx[0] - exact[0]))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_step_dual_euler_agrees_with_flow_to_second_order():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    pair0 = lambda_mirror(gen, [0.6])
    errs = []
    for delta in (0.02, 0.01):
        stepped = step_dual_euler(gen, obj, pair0, delta)
        exact = _flow_endpoint(gen, obj, [0.6], delta)
        errs.append(abs(stepped.theta[0] - exact[0]))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_step_dual_euler_trivial_and_classical():
    gen = quadratic_generator(0.0, 2)
    obj = quadratic_objective([0.2, -0.1])
    pair = lambda_mirror(gen, [0.2, -0.1])
    same = step_dual_euler(gen, obj, pair, 0.3)
    assert np.allclose(same.eta, pair.eta)
    # lam -> 0: classical mirror update eta - delta * grad f
    pair = lambda_mirror(gen, [0.5, 0.5])
    stepped = step_dual_euler(gen, obj, pair, 0.25)
    assert np.allclose(stepped.eta, pair.eta - 0.25 * obj.grad(np.array([0.5, 0.5])))


def test_step_dual_euler_matches_geodesic_coefficient():
    # one step on the dual log-divergence objective moves eta along
    # -(pi/pi_star)(eta - eta_star)
    gen = QUAD_2D
    star = np.array([0.5, -0.3])
    obj = dual_logdiv_objective(gen, star)
    theta = np.array([-0.6, 0.4])
    pair = lambda_mirror(gen, theta)
    eta_star = lambda_mirror(gen, star).eta
    delta = 0.05
    stepped = step_dual_euler(gen, obj, pair, delta)
    pi_star = 1.0 + gen.lam * float(theta @ eta_star)
    expected = pair.eta - delta * (pair.pi / pi_star) * (pair.eta - eta_star)
    assert np.max(np.abs(stepped.eta - expected)) < 1e-12


def test_step_adaptive_mirror_trivial():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    assert step_adaptive_mirror(gen, obj, [0.6], 0.0)[0] == 0.6


def test_step_adaptive_mirror_classical_on_zero_potential():
    # for the lam -> 0 branch the step is a plain mirror step on Phi = phi
    gen = quadratic_generator(0.0, 2)
    obj = quadratic_objective([0.2, -0.1])
    theta = np.array([0.5, 0.5])
    stepped = step_adaptive_mirror(gen, obj, theta, 0.25)
    assert np.allclose(stepped, theta - 0.25 * obj.grad(theta), atol=1e-12)


def test_guarded_step_takes_each_rows_first_accepted_halving():
    # row i accepts a step d only while d <= limit[i]; the last row never does
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    limit = np.array([1.0, 0.3, 1e-3, -1.0])
    tried = []

    def propose(d):
        tried.append(d.copy())
        return x + d[:, None] * np.array([1.0, -2.0])

    out, failed = _guarded_step(x, 1.0, propose,
                                lambda cand: (cand, cand[:, 0] - x[:, 0] <= limit))
    for i, j in enumerate([0, 2, 10]):
        assert np.array_equal(out[i], propose(np.full(4, 2.0 ** -j))[i])
    assert np.array_equal(out[3], x[3])
    assert failed.tolist() == [False, False, False, True]
    # only the rows not yet accepted halve
    assert tried[MAX_HALVINGS].tolist() == [1.0, 0.25, 2.0 ** -10, 2.0 ** -MAX_HALVINGS]


def test_guarded_step_counts_a_geometry_error_as_a_rejection():
    x = np.array([1.0, 2.0])

    def propose(d):
        if d > 0.1:
            raise DomainError("step too long")
        return x + d

    out, failed = _guarded_step(x, 1.0, propose, lambda cand: (cand, True))
    assert np.array_equal(out, x + 2.0 ** -4)
    assert not failed


def test_step_infeasible_reflects_or_halves():
    gen = LOG_1D
    obj = quadratic_objective([-5.0])  # pushes theta toward 0 and beyond
    out = step_primal_euler(gen, obj, [0.05], 5.0)
    assert gen.domain.contains(out)


# ---------------------------------------------------------------------------
# geodesic structure


def test_geodesic_stationary():
    rep = geodesic_flow_check(QUAD_2D, [0.4, -0.2], [0.4, -0.2], t_end=0.2, dt=1e-2)
    assert rep.passed


def test_geodesic_two_dimensional_instance():
    rep = geodesic_flow_check(QUAD_2D, [0.5, -0.3], [-0.8, 0.6], t_end=1.0, dt=1e-3)
    assert rep.dual_collinearity < 1e-6
    assert rep.dual_coefficient_error < 1e-6
    assert rep.primal_collinearity < 1e-6


def test_geodesic_coefficient_along_trajectory():
    # measured d eta/dt over (eta_star - eta) equals (1+lam<t,e>)/(1+lam<t,e*>)
    gen = QUAD_2D
    star = np.array([0.5, -0.3])
    obj = dual_logdiv_objective(gen, star)
    eta_star = lambda_mirror(gen, star).eta
    states = integrate(gen, obj, [-0.8, 0.6], 0.5, 1e-3)
    for st in states[:: len(states) // 5]:
        pair = lambda_mirror(gen, st.theta)
        vel = rhs_dual(gen, obj, pair)
        ratio = vel / (eta_star - pair.eta)
        pi_star = 1.0 + gen.lam * float(st.theta @ eta_star)
        assert np.max(np.abs(ratio - pair.pi / pi_star)) < 1e-8


# ---------------------------------------------------------------------------
# Lyapunov diagnostics


def test_lyapunov_continuous_stationary():
    gen = LOG_1D
    obj = quadratic_objective([0.7])
    report = lyapunov_continuous(gen, obj, integrate(gen, obj, [0.7], 1.0, 1e-2))
    assert all(abs(e) < 1e-14 for _, e in report.lyapunov_series)
    assert report.monotone


def test_lyapunov_continuous_decreasing_and_bounded():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    states = integrate(gen, obj, [1.0], 4.0, 1e-3)
    report = lyapunov_continuous(gen, obj, states)
    assert report.monotone
    values = [e for _, e in report.lyapunov_series]
    assert values[-1] < values[0]
    assert report.bound_dominates
    # O(1/t): t * gap stays bounded by t * bound, and tau grows linearly
    tail = [(t, g) for t, g in report.gap_series if t > 2.0]
    tau_by_t = min(st.tau / st.t for st in states if st.t > 2.0)
    numer = report.bound_series[0][1] * states[1].tau  # B_Phi[star:theta0]
    assert all(t * g <= numer / tau_by_t + 1e-9 for t, g in tail)


def test_conformal_smoothness_classical_limit():
    gen = quadratic_generator(0.0)
    obj = quadratic_objective([0.0])
    pairs = [(np.array([a]), np.array([b]))
             for a in (-0.4, 0.1, 0.5) for b in (-0.3, 0.2) if a != b]
    assert conformal_smoothness_estimate(gen, obj, pairs) == pytest.approx(1.0, abs=1e-12)


def test_conformal_smoothness_dual_potential_ratio():
    # with f = Phi itself the ratio at pair (x, y) is exp(lam*phi(y))
    gen = quadratic_generator(-0.5)
    from xmd.core import big_phi_value, big_phi_grad
    obj = Objective(value=lambda t: big_phi_value(gen, t),
                    grad=lambda t: big_phi_grad(gen, t))
    grid = np.linspace(-0.5, 0.5, 5)
    pairs = [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]
    expected = max(np.exp(gen.lam * 0.5 * b ** 2) for _, (b,) in pairs)
    assert conformal_smoothness_estimate(gen, obj, pairs) == pytest.approx(expected, rel=1e-10)


def test_conformal_smoothness_grid_stability():
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])

    def pairs(m):
        grid = np.linspace(-0.5, 0.5, m)
        return [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]

    coarse = conformal_smoothness_estimate(gen, obj, pairs(7))
    fine = conformal_smoothness_estimate(gen, obj, pairs(15))
    assert coarse > 0.0
    assert abs(fine - coarse) / coarse < 0.05


def test_discrete_lyapunov_run():
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])
    grid = np.linspace(-0.5, 0.5, 7)
    pairs = [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]
    smooth = conformal_smoothness_estimate(gen, obj, pairs)
    report = discrete_lyapunov_run(gen, obj, [0.9], 0.5 / smooth, 2000)
    assert report.monotone
    assert report.bound_dominates
    values = [e for _, e in report.lyapunov_series]
    assert values[-1] < values[0]


def test_discrete_lyapunov_stationary():
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])
    report = discrete_lyapunov_run(gen, obj, [0.0], 0.1, 50)
    assert all(abs(e) < 1e-14 for _, e in report.lyapunov_series)


# ---------------------------------------------------------------------------
# time change


def test_time_change_equivalence_smoke():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    dev = time_change_compare(gen, obj, [0.5], 1.0, 1e-3)
    assert dev < 1e-4


def test_time_change_order_of_accuracy():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    coarse = time_change_compare(gen, obj, [0.5], 1.0, 8e-2)
    fine = time_change_compare(gen, obj, [0.5], 1.0, 4e-2)
    assert 8.0 < coarse / fine < 32.0


def test_hessian_flow_is_autonomous_reference():
    # the dual-potential flow solves d zeta/ds = -grad f, checked by differencing
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    s = np.linspace(0.0, 0.5, 501)
    path = integrate_hessian_flow(gen, obj, [0.5], s)
    zetas = np.array([zeta_of(gen, p) for p in path])
    mid = len(s) // 2
    fd = (zetas[mid + 1] - zetas[mid - 1]) / (s[mid + 1] - s[mid - 1])
    assert np.max(np.abs(fd + obj.grad(path[mid]))) < 1e-5
