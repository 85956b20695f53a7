"""Flow engine: right-hand sides, integration, discrete steps, geodesics, Lyapunov."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xmd import flows
from xmd.core import (Domain, DomainError, Generator, GeometryError, RegularityError,
                      SolverError, _directional, big_phi_bregman, big_phi_hess,
                      conformal_weight, inverse_mirror, lambda_mirror, log_div, metric,
                      theta_of_zeta, zeta_of)
from xmd.flows import (MAX_HALVINGS, MONOTONE_TOL, GeodesicReport, Objective, _guarded_step,
                       _integrate_path, _time_grid, conformal_smoothness_estimate,
                       discrete_lyapunov_run, dual_logdiv_objective,
                       geodesic_flow_check, integrate, integrate_hessian_flow,
                       lyapunov_continuous, quadratic_objective, rhs_dual, rhs_primal,
                       step_adaptive_mirror, time_change_compare)
from xmd.config import ExperimentConfig
from xmd.experiments import GEODESIC_TOL, LYAPUNOV_GRIDS, run_diagnostics
from xmd.generators import (dirichlet_generator, log_reciprocal_generator,
                            quadratic_generator, student_t_generator)
from oracles import (fd_grad, mirror_jacobian, primal_logdiv_objective, step_dual_euler,
                     step_primal_euler, table_generators)

QUAD_2D = quadratic_generator(-0.5, 2)
LOG_1D = log_reciprocal_generator(1.0)


def uniform(t_end, dt):
    """The uniform grid t = 0, dt, ..., n dt with n = round(t_end/dt), on
    which flow-equivalence steps."""
    n = round(t_end / dt)
    return _time_grid(n * dt, n)


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
    assert np.array_equal(rhs_dual(gen, obj, pair), -obj.grad(np.array([0.5, 0.5])))
    stationary = lambda_mirror(gen, [0.2, -0.1])
    assert np.array_equal(rhs_dual(gen, obj, stationary), np.zeros(2))


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
    path = integrate(gen, obj, [-0.5, 0.8], uniform(0.2, dt))
    pairs = lambda_mirror(gen, path.theta)
    fd = (pairs.eta[2:] - pairs.eta[:-2]) / (2 * dt)
    assert np.max(np.abs(fd - rhs_dual(gen, obj, pairs)[1:-1])) < 1e-5


# ---------------------------------------------------------------------------
# integration


def test_integrate_stationary():
    gen = LOG_1D
    obj = quadratic_objective([0.5])
    path = integrate(gen, obj, [0.5], uniform(1.0, 1e-2))
    assert np.all(np.abs(path.theta[:, 0] - 0.5) < 1e-14)
    assert np.all(path.tau[1:] > path.tau[:-1])


def test_integrate_monotone_toward_target():
    gen = LOG_1D
    obj = primal_logdiv_objective(gen, [2.0])
    path = integrate(gen, obj, [1.0], uniform(2.0, 1e-3))
    gaps = np.abs(path.theta[:, 0] - 2.0)
    assert np.all(gaps[1:] <= gaps[:-1] + 1e-12)
    assert gaps[-1] < gaps[0]


def test_integrate_fourth_order_endpoint():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    end = {dt: integrate(gen, obj, [0.5], uniform(1.0, dt)).theta[-1, 0]
           for dt in (4e-2, 2e-2, 1e-3, 5e-4)}
    ref = integrate(gen, obj, [0.5], uniform(1.0, 2.5e-4)).theta[-1, 0]
    e_coarse = abs(end[4e-2] - ref)
    e_mid = abs(end[2e-2] - ref)
    assert 10.0 < e_coarse / e_mid < 24.0
    # halving the step at dt = 1e-3 moves the endpoint by O(dt^4)
    assert abs(end[1e-3] - end[5e-4]) < 1e-11


def test_integrate_clock_and_average_fourth_order_endpoint():
    # tau and the tau-weighted average ride in the RK4 state with theta
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    end = {dt: integrate(gen, obj, [0.5], uniform(1.0, dt)) for dt in (4e-2, 2e-2, 2.5e-4)}
    ref = end[2.5e-4]
    for read in (lambda path: path.tau[-1], lambda path: path.theta_hat[-1, 0]):
        e_coarse = abs(read(end[4e-2]) - read(ref))
        e_mid = abs(read(end[2e-2]) - read(ref))
        assert 10.0 < e_coarse / e_mid < 24.0


def as_stage(rhs):
    """A right-hand side of one argument as an RK4 stage that solved with the
    metric 1, which the positive-definiteness check of every step passes."""
    return lambda x: (rhs(x), np.ones((1, 1)))


def augmented_rhs(gen, obj):
    """The right-hand side of the state (theta, tau, integral of w*theta dt)
    of ``integrate``, one point at a time, with a positive-definiteness check
    per stage: rhs_primal raises RegularityError unless G is positive
    definite."""
    dim = gen.domain.lower.size

    def rhs(x):
        w = conformal_weight(gen, x[:dim])
        return np.concatenate([rhs_primal(gen, obj, x[:dim]), [w], w * x[:dim]])
    return rhs


def test_integrate_reads_its_states_off_one_rk4_path():
    # the reference: the augmented state (theta, tau, integral of w*theta dt)
    # through _integrate_path, read off one grid point at a time
    gen = QUAD_2D
    obj = quadratic_objective([0.3, -0.2])
    theta0 = np.array([-0.6, 0.7])
    times = np.linspace(0.0, 50 * 1e-2, 51)
    rhs = augmented_rhs(gen, obj)
    path = _integrate_path(lambda x: (rhs(x), metric(gen, x[:2])),
                           lambda x: gen.domain.contains(x[:2]),
                           np.concatenate([theta0, [0.0], np.zeros(2)]), times)
    flow = integrate(gen, obj, theta0, uniform(0.5, 1e-2))
    assert len(flow) == len(path)
    assert flow.theta.shape == flow.theta_hat.shape == (len(path), 2)
    for i, (t, x) in enumerate(zip(times, path)):
        tau = float(x[2])
        theta_hat = x[:2] if tau == 0.0 else x[3:] / tau
        assert (flow.t[i], flow.tau[i]) == (float(t), tau)
        assert flow.theta[i].tobytes() == x[:2].tobytes()
        assert flow.theta_hat[i].tobytes() == theta_hat.tobytes()


def rk4_step(rhs, x, h):
    """One classic RK4 step, written out: the halving recursion must
    reproduce a chain of these bit for bit."""
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def decay(x):
    # x' = -x: RK4's growth factor 1 - z + z^2/2 - z^3/6 + z^4/24 at z = h
    # is 13.7 at h = 5 and 0.65 at h = 2.5
    return -x


def test_integrate_path_halves_a_step_that_leaves_the_domain():
    x0 = np.array([1.0])
    below_two = lambda x: bool(x[0] < 2.0)
    assert not below_two(rk4_step(decay, x0, 5.0))
    half = rk4_step(decay, rk4_step(decay, x0, 2.5), 2.5)
    path = _integrate_path(as_stage(decay), below_two, x0, [0.0, 5.0])
    assert path[1].tobytes() == half.tobytes()
    # h = 10 halves twice: the first half of the step again splits into
    # quarters, and so does the second, each on its own
    quarters = x0
    for _ in range(4):
        quarters = rk4_step(decay, quarters, 2.5)
    path = _integrate_path(as_stage(decay), below_two, x0, [0.0, 10.0])
    assert path[1].tobytes() == quarters.tobytes()


def test_integrate_path_halves_a_step_whose_rhs_raises():
    def guarded(x):
        if x[0] < 0.0:
            raise DomainError("negative state")
        return decay(x)

    x0 = np.array([1.0])
    with pytest.raises(DomainError):
        rk4_step(guarded, x0, 2.5)  # the second stage is at 1 - 1.25
    half = rk4_step(guarded, rk4_step(guarded, x0, 1.25), 1.25)
    path = _integrate_path(as_stage(guarded), lambda x: True, x0, [0.0, 2.5])
    assert path[1].tobytes() == half.tobytes()


def test_integrate_path_raises_after_max_halvings():
    tries = []

    def never(x):
        tries.append(x)
        return False

    with pytest.raises(SolverError, match=f"halved {MAX_HALVINGS} times"):
        _integrate_path(as_stage(decay), never, np.array([1.0]), [0.0, 0.1])
    # one try per depth 0..MAX_HALVINGS, each on the first half of the last
    assert len(tries) == MAX_HALVINGS + 1

    def raising(x):
        raise DomainError("no right-hand side here")

    with pytest.raises(SolverError):
        _integrate_path(as_stage(raising), lambda x: True, np.array([1.0]), [0.0, 0.1])


@pytest.mark.parametrize("x0, times, want", [
    # a batch on one shared grid
    (np.array([[0.5], [0.6]]), np.linspace(0.0, 1.0, 5), "(n, 2), one grid per row"),
    # one point on one grid per row of a batch of 2
    (np.array([0.5]), np.tile(np.linspace(0.0, 1.0, 5)[:, None], 2), "(n,)"),
    # 2 rows on grids for 3
    (np.array([[0.5], [0.6]]), np.tile(np.linspace(0.0, 1.0, 5)[:, None], 3),
     "(n, 2), one grid per row"),
], ids=["batch-on-shared-grid", "point-on-batch-grid", "rows-mismatch"])
def test_integrate_path_refuses_a_grid_of_the_wrong_shape(x0, times, want):
    # checked once, before any stage runs: not a TypeError or a broadcast
    # error from inside a step
    def stage(x):
        raise AssertionError("no stage may run")

    message = f"steps on a grid of shape {want}, not {times.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _integrate_path(stage, lambda x: True, x0, times)
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_hessian_flow(LOG_1D, quadratic_objective([2.0]), x0, times)


def test_integrate_evaluates_the_gradient_four_times_per_step():
    # without halving, each RK4 step calls rhs_primal, and so the objective
    # gradient, once per stage
    calls = []
    inner = quadratic_objective([2.0])

    def grad(theta):
        calls.append(theta)
        return inner.grad(theta)

    n_steps = 50
    path = integrate(LOG_1D, Objective(inner.value, grad, inner.theta_star),
                     [0.5], _time_grid(n_steps * 1e-2, n_steps))
    assert len(path) == n_steps + 1
    assert len(calls) == 4 * n_steps


# ---------------------------------------------------------------------------
# the positive-definiteness check of an RK4 step, and batches of rows


def _half_square(lam, upper, name):
    """phi = theta^2/2 with hess 1, so that G = 1 + lam*theta^2, on the box
    (-upper, upper)."""
    return Generator(lam=lam, domain=Domain.box([-upper], [upper], anchor=[0.0]),
                     value=lambda t: 0.5 * np.vecdot(t, t), grad=lambda t: np.asarray(t),
                     hess=lambda t: np.ones(np.shape(t) + (1,)), name=name)


# G = 1 - 2 theta^2 is positive definite only on |theta| < 1/sqrt(2), inside the box
NARROW_PD = _half_square(-2.0, 1.0, "narrow_pd")
# G = 1 - theta^2 is exactly singular at theta = 1, inside the box
SINGULAR_AT_ONE = _half_square(-1.0, 2.0, "singular_at_one")
# G = 1 - theta^2/10^4 stays positive definite at every stage of an RK4 step
# of 5 from 1, so that only the box (-2, 2) rejects the step
NEAR_DECAY = _half_square(-1e-4, 2.0, "near_decay")


def rk4_halving(rhs, feasible, x, h):
    """The one-point halving recursion, written out: a step whose stage
    raises a GeometryError, or whose end point is infeasible, is replaced
    by two half steps, each halved on its own."""
    try:
        out = rk4_step(rhs, x, h)
        if feasible(out):
            return out
    except GeometryError:
        pass
    return rk4_halving(rhs, feasible, rk4_halving(rhs, feasible, x, 0.5 * h), 0.5 * h)


def _assert_state(flow, i, x):
    """Grid point i of ``flow`` holds the bits of the state x."""
    assert flow.theta[i].tobytes() == x[:1].tobytes()
    assert flow.tau[i] == x[1]


def test_integrate_halves_a_step_whose_stage_metric_is_not_positive_definite():
    gen, obj = NARROW_PD, quadratic_objective([0.6])
    rhs = augmented_rhs(gen, obj)
    x0 = np.array([0.5, 0.0, 0.0])
    with pytest.raises(RegularityError):
        rk4_step(rhs, x0, 1.2)  # the fourth stage is at theta = 0.80, where G < 0
    # stepped through without a check, the step would end inside the box:
    # only the positive-definiteness check rejects it
    unchecked_end = rk4_step(lambda x: (0.6 - x) / (1.0 - 2.0 * x * x), x0[:1], 1.2)
    assert gen.domain.contains(unchecked_end)
    half = rk4_step(rhs, rk4_step(rhs, x0, 0.6), 0.6)
    _assert_state(integrate(gen, obj, [0.5], [0.0, 1.2]), 1, half)


def test_integrate_halves_a_step_whose_stage_metric_is_singular():
    gen, obj = SINGULAR_AT_ONE, quadratic_objective([0.875])
    rhs = augmented_rhs(gen, obj)
    x0 = np.array([0.5, 0.0, 0.0])
    # k1 = 0.375 / 0.75 = 0.5 exactly, so the second stage of a step of 2 is
    # at theta = 1, where G = 1 - 1 = 0: the LU solve raises there
    assert rhs(x0)[0] == 0.5
    with pytest.raises(RegularityError):
        rk4_step(rhs, x0, 2.0)
    expected = rk4_halving(rhs, lambda x: gen.domain.contains(x[:1]), x0, 2.0)
    _assert_state(integrate(gen, obj, [0.5], [0.0, 2.0]), 1, expected)


def test_integrate_checks_each_step_with_one_stacked_cholesky(monkeypatch):
    calls = []
    check = flows._cholesky

    def counting(a):
        calls.append(np.shape(a))
        return check(a)

    monkeypatch.setattr(flows, "_cholesky", counting)
    n_steps = 50
    integrate(QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7],
              _time_grid(n_steps * 1e-2, n_steps))
    # one call per step, over the four stage metrics
    assert calls == [(4, 2, 2)] * n_steps


@pytest.mark.parametrize("stretch", [1.0, 8.0, 0.3, 16.0])
@pytest.mark.parametrize("t_end, n_steps", [(1.0, 24), (4.0, 200), (4.0, 256), (0.1, 10),
                                            (3.7, 6), (4.0, 176)])
def test_time_grid_halves_bit_for_bit(t_end, n_steps, stretch):
    t = _time_grid(t_end, n_steps, stretch)
    assert len(t) == n_steps + 1
    # the steps grow geometrically, by stretch**(1/n_steps) each
    steps = np.diff(t)
    assert steps[-1] / steps[0] == pytest.approx(stretch ** ((n_steps - 1) / n_steps))
    # every other point is the grid of half the steps, to the bit: the
    # Richardson companion of a path on t steps on the rung below
    assert t[::2].tobytes() == _time_grid(t_end, n_steps // 2, stretch).tobytes()


def test_time_grid_ends_exactly_at_every_step_count():
    # a*n/n and t_end*x/x need not round back to a and t_end (at stretch 3
    # and n = 61, or at stretch 1.7 and t_end 0.1), so the grid takes k/n
    # first and divides by expm1(a) before it scales
    for stretch in (0.3, 1.7, 3.0, 8.0, 100.0):
        for t_end in (0.1, 3.7):
            for n_steps in range(1, 257):
                t = _time_grid(t_end, n_steps, stretch)
                assert t[0] == 0.0 and t[-1] == t_end
                assert np.all(np.diff(t) > 0.0)


@pytest.mark.parametrize("t_end, dt", [(1.0, 1e-2), (0.1, 1e-2), (2.0, 0.05), (0.5, 0.1),
                                       (1.0, 3e-3)])
def test_integrate_steps_on_the_uniform_grid_of_its_dt(tmp_path, monkeypatch, t_end, dt):
    # stretch 1 is the uniform grid t = 0, dt, ..., n dt, with n = round(t_end/dt),
    # and flow-equivalence's conformal run steps on it
    n = round(t_end / dt)
    expected = np.linspace(0.0, n * dt, n + 1)
    assert _time_grid(n * dt, n).tobytes() == expected.tobytes()
    grids = []

    def recording(gen, obj, theta0, t):
        grids.append(t)
        return integrate(gen, obj, theta0, t)

    monkeypatch.setattr(flows, "integrate", recording)
    run_diagnostics(ExperimentConfig("flow-equivalence", t_end=t_end, dt=dt).validate(),
                    str(tmp_path))
    assert [t.tobytes() for t in grids] == [expected.tobytes()]


@pytest.mark.parametrize("n_steps, stretch", [(0, 1.0), (-1, 8.0), (10, 0.0), (10, -8.0),
                                              (10, math.inf), (10, math.nan)])
def test_time_grid_refuses_no_steps_and_a_bad_stretch(n_steps, stretch):
    with pytest.raises(ValueError):
        _time_grid(1.0, n_steps, stretch)


def test_geodesic_flow_check_evaluates_the_hessian_on_whole_segments():
    calls = []

    def hess(t):
        calls.append(np.shape(t))
        return QUAD_2D.hess(t)

    gen = dataclasses.replace(QUAD_2D, hess=hess)
    rep = geodesic_flow_check(gen, [[0.5, -0.3], [0.1, 0.2], [0.0, 0.0]],
                              [[-0.8, 0.6], [0.3, -0.4], [0.2, 0.1]], 7)
    assert rep.max_error < GEODESIC_TOL
    # every point of the three pairs at once: one Hessian at the primal
    # points, for both the primal gradient and the metric, and the metric at
    # the dual points
    assert calls == [(3, 7, 2)] * 2


def _on_grid(s, x):
    """The grid s for one point x ``(dim,)``, and s for each row of a batch x
    ``(batch, dim)``, one grid per row ``(n, batch)``."""
    s = np.asarray(s, dtype=float)
    return s if x.ndim == 1 else np.repeat(s[:, None], len(x), axis=1)


def _batch_equals_rows(run, x0):
    """run(x0) on the batch x0 gives, row by row, the bits of run(x0[i]); or
    some row raises a SolverError, and so does the batch."""
    try:
        rows = [run(x) for x in x0]
    except SolverError:
        with pytest.raises(SolverError):
            run(x0)
        return
    batch = run(x0)
    assert batch.shape == (rows[0].shape[0], len(x0), *rows[0].shape[1:])
    for i, row in enumerate(rows):
        assert batch[:, i].tobytes() == row.tobytes()


def test_integrate_path_halves_the_rows_of_a_batch_on_their_own():
    # the step of 1.2 halves from 0.5 (the check fails) and not from -0.2
    obj = quadratic_objective([0.6])
    s = [0.0, 1.2, 1.5]
    run = lambda x: integrate_hessian_flow(NARROW_PD, obj, x, _on_grid(s, x))
    halved = []
    for x in (0.5, -0.2):
        try:
            rk4_step(lambda t: -np.linalg.solve(big_phi_hess(NARROW_PD, t), obj.grad(t)),
                     np.array([x]), 1.2)
        except RegularityError:
            halved.append(x)
    assert halved == [0.5]
    _batch_equals_rows(run, np.array([[0.5], [-0.2]]))


FLOW_GENERATORS = table_generators() + [quadratic_generator(-0.5, 2),
                                        quadratic_generator(-0.4, 3),
                                        student_t_generator(3.0),
                                        dirichlet_generator(-0.5, 2)]


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("gen", FLOW_GENERATORS, ids=lambda g: g.name)
def test_integrate_path_of_a_batch_equals_its_one_row_paths(gen, data):
    # rows from the generator's grid, shrunk toward the origin by a factor in
    # [0.5, 1] (that keeps every registered domain), and steps long enough
    # that some rows halve
    grid = np.array(gen.grid, dtype=float)
    n = data.draw(st.integers(1, 4))
    idx = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=n + 1, max_size=n + 1))
    scale = data.draw(st.lists(st.floats(0.5, 1.0), min_size=n + 1, max_size=n + 1))
    points = grid[idx] * np.array(scale)[:, None]
    steps = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3))
    s = np.concatenate([[0.0], np.cumsum(steps)])
    obj = quadratic_objective(points[0])
    # a stage off the domain may take a log of a negative number: the step
    # is rejected either way, so the warning says nothing here
    with np.errstate(all="ignore"):
        _batch_equals_rows(lambda x: integrate_hessian_flow(gen, obj, x, _on_grid(s, x)),
                           points[1:])


def test_zeta_flow_form():
    # d zeta/dt = -exp(lam*phi(theta)) grad f(theta) along the flow
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    dt = 1e-3
    path = integrate(gen, obj, [0.5], uniform(0.5, dt))
    for i in range(1, len(path) - 1, 25):
        fd = (zeta_of(gen, path.theta[i + 1]) - zeta_of(gen, path.theta[i - 1])) / (2 * dt)
        w = math.exp(gen.lam * float(gen.value(path.theta[i])))
        expected = -w * obj.grad(path.theta[i])
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
    return integrate(gen, obj, theta0, uniform(t, t / 64.0)).theta[-1]


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


def test_step_adaptive_mirror_halves_the_folded_step_size():
    # the step size passed on is delta * w; after j halvings the row must be
    # the j-th candidate of zeta <- zeta - (delta * 2**-j) * w * grad f
    gen = QUAD_2D
    obj = quadratic_objective([3.0, -2.0])
    theta = np.array([0.5, -0.3])
    delta = 4.0
    zeta, w, df = zeta_of(gen, theta), conformal_weight(gen, theta), obj.grad(theta)
    assert w != 1.0
    for j in range(MAX_HALVINGS + 1):
        try:
            ref = theta_of_zeta(gen, zeta - (delta * 2.0 ** -j) * w * df, theta0=theta)
        except GeometryError:
            continue
        if gen.domain.contains(ref):
            break
    assert j >= 1
    assert step_adaptive_mirror(gen, obj, theta, delta).tobytes() == ref.tobytes()


def test_guarded_step_takes_each_rows_first_accepted_halving():
    # row i accepts a step d only while d <= limit[i]; the last row never does
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    limit = np.array([1.0, 0.3, 1e-3, -1.0])
    direction = np.array([1.0, -2.0])
    tries = []

    def accept(cand):
        tries.append(None)
        return cand, cand[:, 0] - x[:, 0] <= limit

    out, failed = _guarded_step(x, x, np.tile(direction, (4, 1)), 1.0, accept)
    for i, j in enumerate([0, 2, 10]):
        assert np.array_equal(out[i], x[i] + 2.0 ** -j * direction)
    assert np.array_equal(out[3], x[3])
    assert failed.tolist() == [False, False, False, True]
    assert len(tries) == MAX_HALVINGS + 1


def test_guarded_step_returns_a_first_try_that_accepts_every_row():
    # one try, no merge: a batch's failure mask is all False, one bool per
    # row, and one point's is falsy
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    direction = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.25]])
    tries = []

    def accept(cand):
        tries.append(cand.copy())
        return cand, np.ones(len(cand), dtype=bool)

    out, failed = _guarded_step(x, x, direction, 0.5, accept)
    assert len(tries) == 1 and out.tobytes() == (x + 0.5 * direction).tobytes()
    assert failed.dtype == bool and failed.shape == (3,) and not failed.any()
    out, failed = _guarded_step(x[1], x[1], direction[1], 0.5, lambda cand: (cand, True))
    assert not failed
    assert out.tobytes() == (x[1] + 0.5 * direction[1]).tobytes()


def test_guarded_step_takes_a_step_size_per_row():
    # the first column of each candidate is its step size d; a row accepts d <= 1
    x = np.full((3, 2), 9.0)
    base = np.array([[0.0, 0.5], [0.0, 1.1], [0.0, -2.0]])
    direction = np.array([[1.0, 0.1], [1.0, -0.7], [1.0, 3.3]])
    delta = np.array([0.3, 1.7, 5.0])
    out, failed = _guarded_step(x, base, direction, delta,
                                lambda cand: (cand, cand[:, 0] <= 1.0))
    assert not failed.any()
    for i, j in enumerate([0, 1, 3]):
        assert out[i].tobytes() == (base[i] + (delta[i] * 2.0 ** -j) * direction[i]).tobytes()


def test_guarded_step_counts_a_geometry_error_as_a_rejection():
    x = np.array([1.0, 2.0])
    tried = []

    def finish(z):
        tried.append(z.copy())
        if z[0] - x[0] > 0.1:
            raise DomainError("step too long")
        return z

    out, failed = _guarded_step(x, x, np.ones(2), 1.0, lambda cand: (cand, True), finish)
    assert np.array_equal(out, x + 2.0 ** -4)
    assert not failed
    assert len(tried) == 5


def test_guarded_step_stops_a_rejected_row_whose_step_rounds_away():
    # row 0's increment d * 2**-50 rounds away from d = 2**-3 on (1 + 2**-53
    # ties to 1), so its rejection there is final and its d stops halving;
    # row 1's never rounds away, so the loop makes every try
    x = np.ones((2, 2))
    direction = np.array([[2.0 ** -50, 0.0], [1.0, 1.0]])
    tried = []

    def accept(cand):
        tried.append(cand.copy())
        return cand, np.zeros(len(cand), dtype=bool)

    out, failed = _guarded_step(x, x, direction, 1.0, accept)
    assert len(tried) == MAX_HALVINGS + 1
    assert [np.array_equal(z[0], x[0]) for z in tried] == [False] * 3 + [True] * (MAX_HALVINGS - 2)
    assert failed.all() and np.array_equal(out, x)


def test_guarded_step_halves_on_after_a_geometry_error_at_a_rounded_away_step():
    x = np.ones(2)
    tried = []

    def finish(z):
        tried.append(z.copy())
        raise DomainError("no map here")

    out, failed = _guarded_step(x, x, np.full(2, 1e-30), 1.0,
                                lambda cand: (cand, True), finish)
    assert len(tried) == MAX_HALVINGS + 1
    assert failed and np.array_equal(out, x)


def test_step_infeasible_reflects_or_halves():
    gen = LOG_1D
    obj = quadratic_objective([-5.0])  # pushes theta toward 0 and beyond
    out = step_primal_euler(gen, obj, [0.05], 5.0)
    assert gen.domain.contains(out)


# ---------------------------------------------------------------------------
# geodesic structure


def test_geodesic_stationary():
    # at theta0 = theta_star both velocities are exactly 0, and 0/0 reads 0
    rep = geodesic_flow_check(QUAD_2D, [0.4, -0.2], [0.4, -0.2], 25)
    assert rep.max_error == 0.0


def test_geodesic_two_dimensional_instance():
    rep = geodesic_flow_check(QUAD_2D, [0.5, -0.3], [-0.8, 0.6], 25)
    assert rep.dual_collinearity < GEODESIC_TOL
    assert rep.dual_coefficient_error < GEODESIC_TOL
    assert rep.primal_collinearity < GEODESIC_TOL


def test_geodesic_coefficient_along_trajectory():
    # measured d eta/dt over (eta_star - eta) equals (1+lam<t,e>)/(1+lam<t,e*>)
    gen = QUAD_2D
    star = np.array([0.5, -0.3])
    obj = dual_logdiv_objective(gen, star)
    eta_star = lambda_mirror(gen, star).eta
    path = integrate(gen, obj, [-0.8, 0.6], uniform(0.5, 1e-3))
    for theta in path.theta[:: len(path) // 5]:
        pair = lambda_mirror(gen, theta)
        vel = rhs_dual(gen, obj, pair)
        ratio = vel / (eta_star - pair.eta)
        pi_star = 1.0 + gen.lam * float(theta @ eta_star)
        assert np.max(np.abs(ratio - pair.pi / pi_star)) < 1e-8


def _with_nan_row(fn, index=None):
    """fn with a NaN written at ``index`` of the path it returns, by default
    over its middle row."""
    def wrapped(*args):
        path = fn(*args)
        path[len(path) // 2 if index is None else index] = np.nan
        return path
    return wrapped


def _recording_paths(monkeypatch):
    """The list that each later ``_integrate_path`` call appends its (times,
    path) to."""
    calls = []

    def recording(stage, feasible, x0, times):
        path = _integrate_path(stage, feasible, x0, times)
        calls.append((np.asarray(times), path))
        return path

    monkeypatch.setattr(flows, "_integrate_path", recording)
    return calls


def test_geodesic_flow_check_fails_a_nan_path(monkeypatch):
    # a NaN in one coordinate of the velocity at the middle point of 7, the
    # other points finite: both velocity rows read NaN, so a NaN among finite
    # errors is not dropped; the dual coefficient reads no solve with G. The
    # complex step along a NaN divides by a complex NaN, which numpy flags as
    # invalid
    monkeypatch.setattr(flows, "_solve", _with_nan_row(flows._solve, (3, 0)))
    with np.errstate(invalid="ignore"):
        rep = geodesic_flow_check(QUAD_2D, [0.5, -0.3], [-0.8, 0.6], 7)
    assert np.isnan(rep.dual_collinearity)
    assert np.isnan(rep.primal_collinearity)
    assert rep.dual_coefficient_error < GEODESIC_TOL
    assert not rep.max_error < GEODESIC_TOL


@pytest.mark.parametrize("nan_at", range(3))
def test_geodesic_report_keeps_a_nan_error(nan_at):
    # max() over floats drops a NaN that is not first; max_error must not
    errors = [1e-9, 2e-9, 3e-9]
    errors[nan_at] = math.nan
    rep = GeodesicReport(*errors)
    assert math.isnan(rep.max_error)
    assert not rep.max_error < GEODESIC_TOL


# ---------------------------------------------------------------------------
# Lyapunov diagnostics


def test_lyapunov_continuous_stationary():
    gen = LOG_1D
    obj = quadratic_objective([0.7])
    report = lyapunov_continuous(gen, obj, [0.7], _time_grid(1.0, 100))
    assert all(abs(e) < 1e-14 for _, e in report.lyapunov_series)
    assert report.monotone


def test_lyapunov_continuous_decreasing_and_bounded(monkeypatch):
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    calls = _recording_paths(monkeypatch)
    report = lyapunov_continuous(gen, obj, [1.0], _time_grid(4.0, 4000))
    ((times, batch),) = calls
    # row 0 of the batch is the path, its state [theta, tau, integral of w*theta]
    path_t, path_tau = times[:, 0], batch[:, 0, 1]
    assert report.monotone
    values = [e for _, e in report.lyapunov_series]
    assert values[-1] < values[0]
    assert report.bound_dominates
    # O(1/t): t * gap stays bounded by t * bound, and tau grows linearly
    tail = [(t, g) for t, g in report.gap_series if t > 2.0]
    late = path_t > 2.0
    tau_by_t = np.min(path_tau[late] / path_t[late])
    numer = report.bound_series[0][1] * path_tau[1]  # B_Phi[star:theta0]
    assert all(t * g <= numer / tau_by_t + 1e-9 for t, g in tail)


def test_lyapunov_continuous_fails_a_nan_path(monkeypatch):
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    report = lyapunov_continuous(gen, obj, [1.0], _time_grid(0.5, 50))
    assert report.monotone and report.bound_dominates
    t = report.lyapunov_series[:, 0]
    # the batch's state is [theta, tau, integral of w*theta] per row, and row
    # 0 is the path: a NaN theta at grid point 20
    monkeypatch.setattr(flows, "_integrate_path", _with_nan_row(_integrate_path, (20, 0, 0)))
    report = lyapunov_continuous(gen, obj, [1.0], _time_grid(0.5, 50))
    # the rises into and out of the NaN state both count
    assert report.violations[:, 0].tolist() == [t[20], t[21]]
    assert np.isnan(report.violations[:, 1]).all()
    assert not report.monotone
    # a NaN integral of w*theta, so a NaN theta_hat, at grid point 30
    monkeypatch.setattr(flows, "_integrate_path", _with_nan_row(_integrate_path, (30, 0, 2)))
    report = lyapunov_continuous(gen, obj, [1.0], _time_grid(0.5, 50))
    assert report.monotone and not report.bound_dominates


def test_lyapunov_continuous_fails_a_grid_over_its_error_budget():
    # at dt = 0.2 the 2-d path shows no rise of E, but its Richardson
    # estimate (3e-4) is far over the budget: the grid cannot tell a rise
    # from its own error
    report = lyapunov_continuous(QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7],
                                 _time_grid(4.0, 20))
    assert len(report.violations) == 0
    assert 2.0 * report.richardson_error > 1e4 * MONOTONE_TOL
    assert not report.monotone


@pytest.mark.parametrize("gen, obj, theta0", [
    (LOG_1D, quadratic_objective([2.0]), [1.0]),
    (QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7]),
], ids=["1d", "2d"])
@pytest.mark.parametrize("dt", [0.1, 0.05])
def test_richardson_error_estimates_the_error_in_e(gen, obj, theta0, dt):
    # the estimate against the error of E on the path, read from a run at a
    # 40th of its step (whose own error is 40**4 times smaller); the ratio
    # reads 0.88 to 1.11 at these steps, and 0.56 on the 2-d path at dt 0.2,
    # which is not yet in RK4's asymptotic range
    report = lyapunov_continuous(gen, obj, theta0, _time_grid(2.0, round(2.0 / dt)))
    fine = integrate(gen, obj, theta0, uniform(2.0, dt / 40))
    error = np.max(np.abs(report.lyapunov_series[:, 1]
                          - log_div(gen, obj.theta_star, fine.theta[::40])))
    assert 0.5 < report.richardson_error / error < 2.0


@pytest.mark.parametrize("gen, obj, theta0, label", [
    (LOG_1D, quadratic_objective([2.0]), [1.0], "1d"),
    (QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7], "2d"),
], ids=["1d", "2d"])
def test_richardson_error_estimates_the_error_on_the_suite_grid(gen, obj, theta0, label):
    # on lyapunov-suite's graded grids the companion steps about 2.01 (1-d)
    # and 2.016 (2-d) times the path's step, not 2: the estimate still reads
    # the error of E, within 3% (1.028 on both paths), against a run 8 times
    # finer on the same stretch, whose every 8th point is the suite's grid
    # and whose error is 8**4 times smaller
    n, stretch = LYAPUNOV_GRIDS[label]
    report = lyapunov_continuous(gen, obj, theta0, _time_grid(4.0, n, stretch))
    fine = integrate(gen, obj, theta0, _time_grid(4.0, 8 * n, stretch))
    assert fine.t[::8].tobytes() == report.lyapunov_series[:, 0].tobytes()
    error = np.max(np.abs(report.lyapunov_series[:, 1]
                          - log_div(gen, obj.theta_star, fine.theta[::8])))
    assert 0.9 < report.richardson_error / error < 1.1


def test_richardson_error_keeps_a_nan(monkeypatch):
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    assert np.isfinite(lyapunov_continuous(gen, obj, [1.0], _time_grid(0.5, 50)).richardson_error)
    # a NaN theta at a grid point the estimate reads, in either row of the
    # batch: the companion's NaN raises no violation, and fails the budget
    for r in (0, 1):
        monkeypatch.setattr(flows, "_integrate_path", _with_nan_row(_integrate_path, (20, r, 0)))
        report = lyapunov_continuous(gen, obj, [1.0], _time_grid(0.5, 50))
        assert np.isnan(report.richardson_error)
        assert not report.monotone


@pytest.mark.parametrize("gen, obj, theta0, t", [
    # lyapunov-suite's two paths on their own graded grids (the 1-d
    # objective here lacks the suite's offset f* = 1, which no stage reads)
    (LOG_1D, quadratic_objective([2.0]), [1.0], _time_grid(4.0, *LYAPUNOV_GRIDS["1d"])),
    (QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7],
     _time_grid(4.0, *LYAPUNOV_GRIDS["2d"])),
    # an odd step count: the companion holds at the last even grid point
    (LOG_1D, quadratic_objective([2.0]), [1.0], _time_grid(0.5, 5)),
    # G = 1 - theta^2/10^4 and theta' = -theta/G, nearly x' = -x (see decay):
    # the companion's first step, of 5, leaves the box (-2, 2) and halves,
    # in the batch's row-by-row redo
    (NEAR_DECAY, quadratic_objective([0.0]), [1.0], _time_grid(10.0, 4)),
], ids=["1d-suite", "2d-suite", "odd-steps", "companion-halves"])
def test_integrate_with_companion_keeps_the_bits_of_two_runs(monkeypatch, gen, obj, theta0, t):
    # the oracle: the fine path and the companion, each run on its own grid,
    # t and t[::2]; each batch row holds the whole RK4 state
    # [theta, tau, integral of w*theta]
    calls = _recording_paths(monkeypatch)
    lyapunov_continuous(gen, obj, theta0, t)
    integrate(gen, obj, theta0, t)
    integrate(gen, obj, theta0, t[::2])
    (times, batch), (t_fine, fine), (t_coarse, coarse) = calls
    assert times[:, 0].tobytes() == t_fine.tobytes()
    assert batch[:, 0].tobytes() == fine.tobytes()
    assert times[::2, 1].tobytes() == t_coarse.tobytes()
    assert batch[::2, 1].tobytes() == coarse.tobytes()
    # between its points the companion holds still
    n = len(batch)
    for i in range(1, n - 1, 2):
        assert batch[i, 1].tobytes() == batch[i + 1, 1].tobytes()
    if n % 2 == 0:
        assert batch[-1, 1].tobytes() == batch[-2, 1].tobytes()


def test_integrate_with_companion_redoes_a_halved_step_row_by_row(monkeypatch):
    # the "companion-halves" case above: the companion's first step of 5
    # leaves the box and the fine path's of 2.5 does not, so the batch step
    # fails and each row redoes it on its own, the companion in halves
    gen, obj = NEAR_DECAY, quadratic_objective([0.0])
    rhs = augmented_rhs(gen, obj)
    x0 = np.array([1.0, 0.0, 0.0])
    assert not gen.domain.contains(rk4_step(rhs, x0, 5.0)[:1])
    assert gen.domain.contains(rk4_step(rhs, x0, 2.5)[:1])
    shapes = []
    integrate_path = flows._integrate_path

    def recording(stage, feasible, x, times):
        def recorded(y):
            shapes.append(y.shape)
            return stage(y)
        return integrate_path(recorded, feasible, x, times)

    monkeypatch.setattr(flows, "_integrate_path", recording)
    lyapunov_continuous(gen, obj, [1.0], _time_grid(5.0, 2))
    # the batch try; one row at a time, the fine row's step of 2.5 (4 stages)
    # and the companion's failed step of 5 and its two halves (12); then the
    # fine row's second step alone, the companion held (4)
    assert shapes == [(2, 3)] * 4 + [(3,)] * 20


def test_discrete_lyapunov_run_fails_a_nan_iterate(monkeypatch):
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])
    k_max = 20
    assert discrete_lyapunov_run(gen, obj, [0.9], 0.1, k_max).monotone
    steps = []

    def last_step_nan(gen, obj, theta, delta):
        steps.append(theta)
        if len(steps) == k_max:
            return np.full_like(theta, np.nan)
        return step_adaptive_mirror(gen, obj, theta, delta)

    monkeypatch.setattr(flows, "step_adaptive_mirror", last_step_nan)
    report = discrete_lyapunov_run(gen, obj, [0.9], 0.1, k_max)
    assert report.violations[:, 0].tolist() == [k_max]
    assert not report.monotone
    assert not report.bound_dominates


def test_conformal_smoothness_classical_limit():
    gen = quadratic_generator(0.0)
    obj = quadratic_objective([0.0])
    pairs = [(np.array([a]), np.array([b]))
             for a in (-0.4, 0.1, 0.5) for b in (-0.3, 0.2) if a != b]
    assert conformal_smoothness_estimate(gen, obj, pairs) == pytest.approx(1.0, abs=1e-12)


def test_conformal_smoothness_dual_potential_ratio():
    # with f = Phi itself the ratio at pair (x, y) is exp(lam*phi(y))
    gen = quadratic_generator(-0.5)
    from xmd.core import big_phi_value
    obj = Objective(value=lambda t: big_phi_value(gen, t),
                    grad=lambda t: zeta_of(gen, t))
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


def _nan_at(fn, point):
    """fn with NaN for its value at each row of its first argument that is
    ``point``; the arguments are (x, ...) or (gen, x, ...), a batch of rows."""
    def wrapped(*args):
        x = args[1] if isinstance(args[0], Generator) else args[0]
        return np.where(np.all(x == np.asarray(point), axis=-1), np.nan, fn(*args))
    return wrapped


@pytest.mark.parametrize("source", ["objective_value", "big_phi_bregman"])
def test_conformal_smoothness_raises_at_the_first_non_finite_pair(monkeypatch, source):
    # a NaN ratio passed the guard and the cross-check, which are False for
    # a NaN, and max() dropped it: the estimate read 1.0962736943174158
    gen, obj, pairs = _suite_discrete_instance()
    if source == "objective_value":
        obj = dataclasses.replace(obj, value=_nan_at(obj.value, [0.5]))
        first = "([-0.5], [0.5])"  # the first pair that evaluates f at 0.5
    else:
        monkeypatch.setattr(flows, "big_phi_bregman", _nan_at(big_phi_bregman, [0.5]))
        first = "([0.5], [-0.5])"
    with pytest.raises(DomainError, match=re.escape(f"non-finite smoothness ratio at pair {first}")):
        conformal_smoothness_estimate(gen, obj, pairs)


def test_conformal_smoothness_raises_the_first_failing_pair_first(monkeypatch):
    # the pairs are one batch, and yet the first pair in list order that fails
    # a check raises: here the first pair's two forms disagree (its log
    # divergence is doubled), and the later pairs from x = 0.5 hold a NaN B_Phi
    gen, obj, pairs = _suite_discrete_instance()
    (x, y), first = pairs[0], [-0.5]

    def doubled_at_first(gen, a, b):
        return np.where(np.all(a == first, axis=-1), 2.0, 1.0) * log_div(gen, a, b)

    monkeypatch.setattr(flows, "big_phi_bregman", _nan_at(big_phi_bregman, [0.5]))
    monkeypatch.setattr(flows, "log_div", doubled_at_first)
    with pytest.raises(RegularityError,
                       match=re.escape(f"smoothness denominators disagree at ({x}, {y}): ")):
        conformal_smoothness_estimate(gen, obj, pairs)
    # at lam = 0 the two forms are one, and the cross-check is skipped: a NaN
    # second form passes
    monkeypatch.undo()
    monkeypatch.setattr(flows, "log_div", lambda gen, a, b: np.full(len(a), np.nan))
    classical = [(np.array([a]), np.array([b])) for a in (-0.4, 0.1) for b in (-0.3, 0.2)]
    assert conformal_smoothness_estimate(quadratic_generator(0.0), obj,
                                         classical) == pytest.approx(1.0, abs=1e-12)


def test_conformal_smoothness_keeps_the_bits_of_the_suite_estimate():
    gen, obj, pairs = _suite_discrete_instance()
    assert conformal_smoothness_estimate(gen, obj, pairs) == 1.0962736943174158


def test_discrete_lyapunov_run():
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])
    grid = np.linspace(-0.5, 0.5, 7)
    pairs = [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]
    smooth = conformal_smoothness_estimate(gen, obj, pairs)
    report = discrete_lyapunov_run(gen, obj, [0.9], 0.5 / smooth, 2000)
    assert report.richardson_error is None
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
    dev = time_change_compare(gen, obj, [0.5], uniform(1.0, 1e-3))
    assert dev < 1e-4


def test_time_change_compare_keeps_a_nan_deviation(monkeypatch):
    monkeypatch.setattr(flows, "integrate_hessian_flow",
                        _with_nan_row(integrate_hessian_flow))
    assert math.isnan(time_change_compare(LOG_1D, quadratic_objective([2.0]), [0.5],
                                          uniform(0.1, 1e-2)))


def test_time_change_order_of_accuracy():
    gen = LOG_1D
    obj = quadratic_objective([2.0])
    coarse = time_change_compare(gen, obj, [0.5], uniform(1.0, 8e-2))
    fine = time_change_compare(gen, obj, [0.5], uniform(1.0, 4e-2))
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


# ---------------------------------------------------------------------------
# the diagnostics against their one-state loops
#
# Each reference below walks the path one state at a time with one-row calls
# and Python running sums and maxima, as the diagnostics did before they read
# whole paths; the array forms must give the same values exactly.


def _lyapunov_loop(gen, obj, path):
    star = obj.theta_star
    f_star = float(obj.value(star))
    numer = big_phi_bregman(gen, star, path.theta[0])
    series, bound, gap, violations = [], [], [], []
    prev = None
    for t, theta, tau, theta_hat in zip(path.t.tolist(), path.theta, path.tau.tolist(),
                                        path.theta_hat):
        e = float(log_div(gen, star, theta))
        series.append([t, e])
        if prev is not None and e - prev > MONOTONE_TOL:
            violations.append([t, e - prev])
        prev = e
        if tau > 0.0:
            bound.append([t, numer / tau])
            gap.append([t, float(obj.value(theta_hat)) - f_star])
    return series, bound, gap, violations


def _report_lists(report):
    return tuple(a.tolist() for a in (report.lyapunov_series, report.bound_series,
                                      report.gap_series, report.violations))


@pytest.mark.parametrize("gen, obj, theta0", [
    (LOG_1D, quadratic_objective([2.0]), [1.0]),
    (QUAD_2D, quadratic_objective([0.3, -0.2]), [-0.6, 0.7]),
    # a negative weight makes E rise, so the violations are compared too
    (QUAD_2D, quadratic_objective([0.3, -0.2], weight=-1.0), [0.2, -0.1]),
], ids=["1d", "2d", "2d-rising"])
def test_lyapunov_continuous_equals_its_one_state_loop(gen, obj, theta0):
    report = lyapunov_continuous(gen, obj, theta0, _time_grid(0.5, 50))
    assert _report_lists(report) == _lyapunov_loop(gen, obj,
                                                   integrate(gen, obj, theta0, _time_grid(0.5, 50)))


def _discrete_lyapunov_loop(gen, obj, delta, k_max):
    """The report lists of the discrete run from 0.9, one state at a time,
    stepping all k_max steps."""
    thetas = [np.array([0.9])]
    for _ in range(k_max):
        thetas.append(step_adaptive_mirror(gen, obj, thetas[-1], delta))
    star, f_star = obj.theta_star, float(obj.value(obj.theta_star))
    series, bound, gap, violations = [], [], [], []
    running = wsum = 0.0
    avg_acc = np.zeros(1)
    for k in range(1, k_max + 1):
        w = float(conformal_weight(gen, thetas[k - 1]))
        running += w * (float(obj.value(thetas[k])) - f_star)
        wsum += w
        avg_acc = avg_acc + w * thetas[k]
        e_k = float(big_phi_bregman(gen, star, thetas[k])) + delta * running
        if series and e_k - series[-1][1] > MONOTONE_TOL:
            violations.append([k, e_k - series[-1][1]])
        series.append([k, e_k])
        gap.append([k, float(obj.value(avg_acc / wsum)) - f_star])
        bound.append([k, series[0][1] / (delta * wsum)])
    return series, bound, gap, violations


def test_discrete_lyapunov_run_equals_its_one_state_loop():
    gen = quadratic_generator(-0.5)
    obj = quadratic_objective([0.0])
    # a step this long makes E rise, so the violations are compared too
    delta, k_max = 2.5, 200
    report = discrete_lyapunov_run(gen, obj, [0.9], delta, k_max)
    assert _report_lists(report) == _discrete_lyapunov_loop(gen, obj, delta, k_max)


def _suite_discrete_instance():
    """lyapunov-suite's discrete instance: the generator, the objective and
    the 42 pairs of its grid for the smoothness estimate."""
    grid = np.linspace(-0.5, 0.5, 7)
    pairs = [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]
    return quadratic_generator(-0.5, 1), quadratic_objective([0.0]), pairs


def test_discrete_lyapunov_run_at_the_suite_step_equals_its_one_state_loop():
    # the run reaches a fixed point at step 45 and fills the later iterates
    # with it; the loop steps all 2000 times
    gen, obj, pairs = _suite_discrete_instance()
    delta = 0.5 / conformal_smoothness_estimate(gen, obj, pairs)
    report = discrete_lyapunov_run(gen, obj, [0.9], delta, 2000)
    assert _report_lists(report) == _discrete_lyapunov_loop(gen, obj, delta, 2000)


STUDENT_T = student_t_generator(3.0)
DIRICHLET = dirichlet_generator(-0.5, 2)


@pytest.mark.parametrize("gen, star, theta0", [
    (QUAD_2D, [0.5, -0.3], [-0.8, 0.6]),
    (LOG_1D, [2.0], [1.0]),
    # the suite's pairs: each grid point toward the next
    (STUDENT_T, np.array(STUDENT_T.grid[1:]), np.array(STUDENT_T.grid[:-1])),
    (DIRICHLET, np.array(DIRICHLET.grid[1:]), np.array(DIRICHLET.grid[:-1])),
], ids=["2d", "1d", "student_t-grid", "dirichlet-grid"])
def test_geodesic_flow_check_equals_its_one_state_loop(gen, star, theta0):
    # the batch over every point of every pair keeps the bits of the same
    # formulas at one point at a time
    n = 5
    collin = coeff = pcollin = 0.0
    for a, b in zip(np.atleast_2d(theta0), np.atleast_2d(star)):
        eta0, eta_star = lambda_mirror(gen, a).eta, lambda_mirror(gen, b).eta
        dual = dual_logdiv_objective(gen, b)
        for k in range(1, n + 1):
            s = k / (n + 1)
            theta = a + s * (b - a)
            v = -np.linalg.solve(metric(gen, theta), primal_logdiv_objective(gen, b).grad(theta))
            v_perp = v - float(v @ (b - theta)) / float((b - theta) @ (b - theta)) * (b - theta)
            pcollin = max(pcollin, float(np.linalg.norm(v_perp) / np.linalg.norm(v)))
            pair = lambda_mirror(gen, inverse_mirror(gen, eta0 + s * (eta_star - eta0)))
            pi_star = 1.0 + gen.lam * float(pair.theta @ eta_star)
            expected = -(pair.pi / pi_star) * (pair.eta - eta_star)
            measured = _directional(lambda x: lambda_mirror(gen, x).eta, pair.theta,
                                    rhs_primal(gen, dual, pair.theta))
            collin = max(collin, float(np.linalg.norm(measured - expected)
                                       / np.linalg.norm(expected)))
            coeff = max(coeff, float(np.max(np.abs(rhs_dual(gen, dual, pair) - expected))))
    rep = geodesic_flow_check(gen, star, theta0, n)
    assert (rep.dual_collinearity, rep.dual_coefficient_error,
            rep.primal_collinearity) == (collin, coeff, pcollin)
    assert rep.max_error < GEODESIC_TOL


def test_time_change_compare_equals_its_one_state_loop():
    obj = quadratic_objective([2.0])
    conformal = integrate(LOG_1D, obj, [0.5], uniform(0.5, 1e-2))
    hess_path = integrate_hessian_flow(LOG_1D, obj, [0.5], conformal.tau.tolist())
    dev = max(float(np.linalg.norm(a - b)) for a, b in zip(conformal.theta, hess_path))
    assert time_change_compare(LOG_1D, obj, [0.5], uniform(0.5, 1e-2)) == dev
