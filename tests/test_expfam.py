"""Deformed exponential families, samplers, and the online estimator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from xmd.core import DomainError, inverse_mirror, lambda_mirror
from xmd.expfam import (DirichletPerturbModel, LambdaExpFamily, OnlineState, StudentTParams,
                        dirichlet_family, dirichlet_perturb_sample, log_distance,
                        online_update, simplex_to_eta, start_state,
                        student_t_family, student_t_params, student_t_sample)
from xmd.generators import (quadratic_generator, student_t_generator, student_t_inverse_mirror,
                            student_t_lambda, student_t_natural_coords)
from xmd.rng import substream
from oracles import (dirichlet_lambda_independence, dirichlet_sampler,
                     escort_expectation_numeric, family_density, fd_grad,
                     fisher_metric_check, log_loss, natural_gradient_update,
                     student_t_density, student_t_sampler)

NU = 3.0
LAM = student_t_lambda(NU)  # -1/2
STUDENT_T = student_t_generator(NU)


def identity_family():
    gen = quadratic_generator(0.0, 2)
    return LambdaExpFamily(gen=gen, statistics=lambda x: np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# log loss


def test_log_loss_matches_density():
    fam = student_t_family(NU)
    params = StudentTParams(0.3, 1.4, NU)
    theta = student_t_natural_coords(params.mu, params.sigma, LAM)
    for x in (-2.0, 0.0, 0.7, 5.0):
        value, _ = log_loss(fam, theta, fam.statistics(x))
        assert value + math.log(student_t_density(x, params)) == pytest.approx(0.0, abs=1e-10)
        assert family_density(fam, theta, x) == pytest.approx(
            float(student_t_density(x, params)), abs=1e-10)


def test_log_loss_gradient_structure_and_fd():
    fam = student_t_family(NU)
    theta = student_t_natural_coords(0.0, 1.0, LAM)
    pair = lambda_mirror(fam.gen, theta)
    # an observation whose pairing matches the mean pairing gives a gradient
    # colinear with eta - y
    y = pair.eta
    _, g = log_loss(fam, theta, y)
    assert np.max(np.abs(g)) < 1e-14
    y = np.array([1.0, 2.5])
    _, g = log_loss(fam, theta, y)
    fd = fd_grad(lambda t: log_loss(fam, t, y)[0], theta)
    assert np.max(np.abs(fd - g)) < 1e-6


# ---------------------------------------------------------------------------
# online update


def test_online_update_fixed_point():
    fam = student_t_family(NU)
    state = start_state(fam, np.array([0.4, 1.2]))
    out = online_update(fam, state, state.eta, 0.7)
    assert np.allclose(out.eta, state.eta)


def test_online_update_classical_limit():
    fam = identity_family()
    state = start_state(fam, np.array([0.5, -0.2]))
    y = np.array([1.0, 1.0])
    out = online_update(fam, state, y, 0.25)
    assert np.allclose(out.eta, state.eta + 0.25 * (y - state.eta), atol=1e-14)


def test_online_update_dirichlet_factor_example():
    fam = dirichlet_family(-0.4, 2)
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.4, 0.4, 0.2])
    state = start_state(fam, simplex_to_eta(p))
    y = fam.statistics(q)
    assert np.allclose(y, [1.0, 0.5])
    factor = 3.0 / (1.0 + (0.5 / 0.3) * 1.0 + (0.5 / 0.2) * 0.5)
    assert factor == pytest.approx(36.0 / 47.0, abs=1e-15)
    out = online_update(fam, state, y, 0.5)
    expected = state.eta + 0.5 * factor * (y - state.eta)
    assert np.max(np.abs(out.eta - expected)) < 1e-14
    # moved toward the observation
    assert np.all(np.abs(y - out.eta) < np.abs(y - state.eta))


@pytest.mark.parametrize("build", [lambda: (student_t_family(NU), student_t_sampler(NU)),
                                   lambda: (dirichlet_family(-0.3, 4), dirichlet_sampler(-0.3))],
                         ids=["student-t", "dirichlet"])
def test_online_update_equals_natural_gradient_step(build):
    fam, sampler = build()
    rng = substream(123, 0)
    if fam.gen.domain.lower.size == 2:
        theta0 = student_t_natural_coords(0.5, 1.5, LAM)
        state = start_state(fam, lambda_mirror(fam.gen, theta0).eta)
    else:
        state = start_state(fam, np.ones(4) * 0.8)
    for k in range(1, 30):
        x = sampler(state.theta, rng, 1)[0]
        y = fam.statistics(x)
        raw = natural_gradient_update(fam, state, y, 0.5 / k)
        state = online_update(fam, state, y, 0.5 / k)
        assert np.max(np.abs(state.eta - raw)) < 1e-10
        # round-trip invariant after each accepted update
        assert np.max(np.abs(lambda_mirror(fam.gen, state.theta).eta - state.eta)) < 1e-9


def test_online_update_reflects_at_student_t_boundary():
    fam = student_t_family(NU)
    state = start_state(fam, np.array([0.0, 1.0]))
    y = fam.statistics(3.0)  # (3, 9): on the boundary of the dual domain
    out = online_update(fam, state, y, 3.6)
    slack = out.eta[1] - out.eta[0] ** 2
    assert slack > 0.0
    assert out.skipped == 0
    raw = state.eta + 3.6 * (4.0 / 3.0) / 4.0 * (y - state.eta)
    assert raw[1] - raw[0] ** 2 < 0.0  # the unprojected point was infeasible
    assert out.eta[0] == pytest.approx(raw[0])
    assert out.eta[1] == pytest.approx(2.0 * raw[0] ** 2 - raw[1])


def test_online_update_reflects_at_dirichlet_orthant():
    fam = dirichlet_family(-0.5, 2)
    state = start_state(fam, np.array([1.0, 1.0]))
    y = np.array([0.1, 0.1])
    out = online_update(fam, state, y, 0.5)
    assert np.all(out.eta > 0.0)
    factor = 3.0 / 1.2
    raw = state.eta + 0.5 * factor * (y - state.eta)
    assert np.all(raw < 0.0)
    assert np.allclose(out.eta, np.abs(raw))


# ---------------------------------------------------------------------------
# batched online update: (batch, dim) states in lockstep

# Rows that every example carries, at delta = 1. Each forces one branch of
# the update: (name, eta, y).
STUDENT_T_EVENTS = [
    # factor 4/3 overshoots the boundary eta2 = eta1^2; the reflection is taken
    ("reflect", [0.0, 1.0], [0.0, 0.0]),
    # factor exactly 1 lands on y, which lies on the boundary and is its own
    # reflection; the half step (1, 4) is taken
    ("halve", [0.0, 4.0], [2.0, 4.0]),
    # y = (x, x^2) overflows: every candidate is NaN and the row is skipped
    ("skip", [0.0, 1.0], [1e200, np.inf]),
]
DIRICHLET_EVENTS = [
    ("reflect", [1.0, 1.0, 1.0], [0.1, 0.1, 0.1]),
    # the full step overflows to -inf and its reflection to +inf
    ("halve", [1e308, 1e308, 1e308], [0.1, 0.1, 0.1]),
    ("skip", [1.0, 1.0, 1.0], [np.inf, np.inf, np.inf]),
]


@st.composite
def student_t_rows(draw):
    mu = draw(st.floats(-5.0, 5.0))
    sigma = draw(st.floats(0.1, 5.0))
    x = draw(st.floats(-50.0, 50.0))
    theta = student_t_natural_coords(mu, sigma, LAM)
    return list(lambda_mirror(STUDENT_T, theta).eta), [x, x * x]


@st.composite
def dirichlet_rows(draw):
    logs = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
    return list(np.exp(draw(logs))), list(np.exp(draw(logs)))


def _bits_equal(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["student-t", "dirichlet"])
def test_batched_update_equals_one_point_updates(name, data):
    if name == "student-t":
        fam, rows, events = student_t_family(NU), student_t_rows(), STUDENT_T_EVENTS
    else:
        fam, rows, events = dirichlet_family(-0.5, 3), dirichlet_rows(), DIRICHLET_EVENTS
    drawn = data.draw(st.lists(rows, max_size=6))
    batch = data.draw(st.permutations(drawn + [(eta, y) for _, eta, y in events]))
    eta = np.array([e for e, _ in batch])
    y = np.array([obs for _, obs in batch])
    start = start_state(fam, eta)
    state = OnlineState(eta=start.eta, theta=start.theta, skipped=2)

    out = online_update(fam, state, y, 1.0)
    singles = [online_update(fam, start_state(fam, eta[i]), y[i], 1.0) for i in range(len(batch))]
    for i, one in enumerate(singles):
        assert _bits_equal(out.eta[i], one.eta)
        assert _bits_equal(out.theta[i], one.theta)
    assert out.skipped == 2 + sum(one.skipped for one in singles)

    for event, e, obs in events:
        one = singles[batch.index((e, obs))]
        with np.errstate(all="ignore"):
            raw = np.asarray(e) + _unit_step(fam, e, obs)
        if event == "skip":
            assert one.skipped == 1 and _bits_equal(one.eta, np.asarray(e))
        elif event == "reflect":
            assert one.skipped == 0 and not np.allclose(one.eta, raw)
            assert np.allclose(one.eta, _reflection(name, raw))
        else:  # neither the full step nor its reflection was taken
            assert one.skipped == 0 and np.all(np.isfinite(one.eta))
            assert not np.allclose(one.eta, raw)
            assert not np.allclose(one.eta, _reflection(name, raw))
            if name == "student-t":  # the half step, at delta / 2 = 0.5, is taken
                assert _bits_equal(one.eta, _half_step(fam, e, obs))


def _unit_step(fam, eta, y):
    """The full-step displacement delta * pi / pi_y * (y - eta) at delta = 1."""
    theta = inverse_mirror(fam.gen, eta)
    y = np.asarray(y)
    return ((1.0 + fam.lam * theta @ eta) / (1.0 + fam.lam * theta @ y)) * (y - eta)


def _half_step(fam, eta, y):
    """eta + ((delta / 2) * pi / pi_y) * (y - eta) at delta = 1, with pi and
    pi_y formed as ``online_update`` forms them."""
    eta, y = np.asarray(eta), np.asarray(y)
    theta = start_state(fam, eta).theta
    factor = (1.0 + fam.lam * np.vecdot(theta, eta)) / (1.0 + fam.lam * np.vecdot(theta, y))
    return eta + ((1.0 / 2) * factor) * (y - eta)


def _reflection(name, eta):
    if name == "student-t":
        return np.array([eta[0], 2.0 * eta[0] ** 2 - eta[1]])
    return np.abs(eta)


def test_batched_start_state_and_maps_match_rows():
    fam = student_t_family(NU)
    etas = np.array([[0.0, 1.0], [0.4, 1.2], [-1.5, 6.0]])
    state = start_state(fam, etas)
    for i, eta in enumerate(etas):
        assert _bits_equal(state.theta[i], start_state(fam, eta).theta)
    params = student_t_params(state.theta, NU)
    for i, theta in enumerate(state.theta):
        one = student_t_params(theta, NU)
        assert (params.mu[i], params.sigma[i]) == (one.mu, one.sigma)
        assert isinstance(one.mu, float) and isinstance(one.sigma, float)
        assert np.allclose(lambda_mirror(fam.gen, theta).eta, etas[i], rtol=1e-12, atol=1e-12)
    ref = np.array([0.5, 2.0])
    dists = log_distance(np.abs(etas) + 0.5, ref)
    assert dists.shape == (3,)
    for i, eta in enumerate(etas):
        assert dists[i] == log_distance(np.abs(eta) + 0.5, ref)
    # a (k, batch, d) block, as dirichlet-online takes its distances per block
    block = np.abs(np.stack([etas, etas[::-1] * 1.5, etas * -0.25, etas + 2.0])) + 0.5
    dists = log_distance(block, ref)
    assert dists.shape == block.shape[:-1]
    for index in np.ndindex(dists.shape):
        assert dists[index] == log_distance(block[index], ref)


def test_student_t_params_rows_equal_one_point_calls():
    # one point squares a numpy scalar mu, whose ** would round through pow
    # and differ from a batch's x * x for about one mu in a thousand
    rng = substream(23, 0)
    mu = 2.0 * rng.standard_normal(5000)
    sigma = rng.uniform(0.3, 3.0, 5000)
    k = -LAM * mu ** 2 + sigma ** 2 * (LAM + 2.0)
    theta = np.stack([2.0 * mu / k, -1.0 / k], axis=-1)
    params = student_t_params(theta, NU)
    for i, row in enumerate(theta):
        one = student_t_params(row, NU)
        assert (params.mu[i], params.sigma[i]) == (one.mu, one.sigma)
    # the maps give back the mu and sigma that theta was built from, at mu
    # away from 0 too (largest relative errors about 2e-16 and 1e-14)
    assert np.allclose(params.mu, mu, rtol=1e-12, atol=0.0)
    assert np.allclose(params.sigma, sigma, rtol=1e-12, atol=0.0)


def test_student_t_params_and_inverse_reject_outside_points():
    with pytest.raises(DomainError):
        student_t_params(np.array([[0.0, -1.0], [0.0, 1.0]]), NU)
    with pytest.raises(DomainError):
        student_t_inverse_mirror([0.0, -1.0], LAM)  # denominator 1.5 > 0
    with pytest.raises(DomainError):
        student_t_inverse_mirror([[0.0, 1.0], [0.0, -1.0]], LAM)
    # a denominator of exactly 0 too, in a point, a batch and complex input
    for e in ([0.0, 0.0], [[0.5, 1.0], [0.0, 0.0]], [0.0 + 0j, 0.0]):
        with pytest.raises(DomainError):
            student_t_inverse_mirror(e, LAM)


def test_student_t_inverse_mirror_keeps_shape_and_dtype():
    # a point gives (2,), a batch (n, 2), each row with the bits of its point;
    # complex input gives a complex result whose real part is the real result
    # up to its last bit, which complex division may round differently
    eta = np.array([[0.5, 1.0], [-1.2, 3.0], [0.0, 0.25]])
    rows = student_t_inverse_mirror(eta, LAM)
    assert rows.shape == (3, 2) and rows.dtype == np.float64
    for e, row in zip(eta, rows):
        one = student_t_inverse_mirror(e, LAM)
        assert one.shape == (2,) and one.tobytes() == row.tobytes()
    for e, real in ((eta, rows), (eta[0], rows[0])):
        cplx = student_t_inverse_mirror(e.astype(complex), LAM)
        assert cplx.shape == real.shape and cplx.dtype == np.complex128
        assert np.allclose(cplx.real, real, rtol=1e-15, atol=0.0) and not cplx.imag.any()


# ---------------------------------------------------------------------------
# Student-t coordinates and mirror maps


def test_student_t_coords_examples():
    theta = student_t_natural_coords(0.0, 1.0, LAM)
    assert np.allclose(theta, [0.0, -2.0 / 3.0], atol=1e-15)
    assert LAM * theta[0] ** 2 - 4.0 * theta[1] == pytest.approx(8.0 / 3.0, abs=1e-14)
    back = student_t_params(theta, NU)
    assert (back.mu, back.sigma) == pytest.approx((0.0, 1.0), abs=1e-14)


def test_student_t_potential_requires_lam_above_minus_two():
    # nu + 1 rounds to 1 below nu ~ 1.1e-16, and lam = -2/(nu+1) is then -2
    for nu in (1e-16, 1e-17):
        with pytest.raises(ValueError, match="lam"):
            student_t_generator(nu)
    assert student_t_generator(1e-15).lam > -2.0


def test_student_t_coords_round_trip_grid():
    for mu in (-2.0, -0.3, 0.0, 1.7):
        for sigma in (0.2, 1.0, 3.5):
            theta = student_t_natural_coords(mu, sigma, LAM)
            back = student_t_params(theta, NU)
            assert abs(back.mu - mu) < 1e-12
            assert abs(back.sigma - sigma) < 1e-12


def test_student_t_mirror_values_and_round_trip():
    theta = np.array([0.0, -2.0 / 3.0])
    eta = lambda_mirror(STUDENT_T, theta).eta
    assert np.allclose(eta, [0.0, 1.0], atol=1e-15)
    for mu in (-1.0, 0.5):
        for sigma in (0.5, 2.0):
            th = student_t_natural_coords(mu, sigma, LAM)
            e = lambda_mirror(STUDENT_T, th).eta
            assert np.max(np.abs(student_t_inverse_mirror(e, LAM) - th)) < 1e-12
            # escort closed form: eta = (mu, mu^2 + sigma^2)
            assert np.allclose(e, [mu, mu ** 2 + sigma ** 2], atol=1e-12)


# ---------------------------------------------------------------------------
# samplers


def test_student_t_sample_degenerate_scale():
    rng = substream(1, 0)
    x = student_t_sample(StudentTParams(1.3, 0.0, NU), rng, 100)
    assert np.all(x == 1.3)


def test_student_t_sample_median_and_variance():
    rng = substream(2, 0)
    x = student_t_sample(StudentTParams(0.7, 1.0, NU), rng, 100_000)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    assert abs(np.median(x) - 0.7) < 3.0 * iqr / math.sqrt(x.size)
    rng = substream(2, 1)
    x = student_t_sample(StudentTParams(0.0, 1.0, NU), rng, 1_000_000)
    assert abs(np.var(x) - 3.0) / 3.0 < 0.10  # nu/(nu-2) = 3


def test_dirichlet_perturb_sample_noise_level():
    p = np.array([0.5, 0.3, 0.2])
    rng = substream(3, 0)
    q_small = dirichlet_perturb_sample(DirichletPerturbModel(p, 1e-3), rng, 2000)
    rng = substream(3, 0)
    q_big = dirichlet_perturb_sample(DirichletPerturbModel(p, 0.5), rng, 2000)
    err_small = np.abs(q_small - p).mean()
    err_big = np.abs(q_big - p).mean()
    assert err_small < 0.02
    assert err_small < err_big


def test_dirichlet_perturb_identity_at_barycenter():
    model = DirichletPerturbModel(np.full(4, 0.25), 0.3)
    rng = substream(4, 0)
    q = dirichlet_perturb_sample(model, rng, 50)
    n = model.p.size
    shape = (1.0 / model.sigma) / n
    rng = substream(4, 0)
    g = rng.gamma(shape, size=(50, n))
    d = g / g.sum(axis=1, keepdims=True)
    assert np.max(np.abs(q - d)) < 1e-14


def test_dirichlet_escort_average_matches_dual_variable():
    p = np.array([0.45, 0.35, 0.2])
    sigma = 0.4
    model = DirichletPerturbModel(p, sigma)
    fam = dirichlet_family(-sigma, 2)
    theta = inverse_mirror(fam.gen, simplex_to_eta(p))
    rng = substream(5, 0)
    qs = dirichlet_perturb_sample(model, rng, 1_000_000)
    ys = fam.statistics(qs)
    # escort weights reduce to 1 / (1 + lam*<theta, y>)
    w = 1.0 / (1.0 + fam.lam * ys @ theta)
    est = (ys * w[:, None]).sum(axis=0) / w.sum()
    assert np.max(np.abs(est - simplex_to_eta(p)) / simplex_to_eta(p)) < 0.05


# ---------------------------------------------------------------------------
# Fisher relation and escort moments


def test_fisher_metric_check_student_t():
    fam = student_t_family(NU)
    theta = student_t_natural_coords(0.0, 1.0, LAM)
    report = fisher_metric_check(fam, theta, 300_000, substream(6, 0), student_t_sampler(NU))
    assert report.rel_error < 0.08
    # entrywise factor 1 - lam = 1.5
    diag_ratio = np.diag(report.metric_matrix) / np.diag(report.fisher_mc)
    assert np.allclose(diag_ratio, 1.5, rtol=0.08)
    # reduced check on the location entry alone
    assert report.metric_matrix[0, 0] == pytest.approx(
        1.5 * report.fisher_mc[0, 0], rel=0.08)


def test_escort_expectation_quadrature():
    fam = student_t_family(NU)
    theta = student_t_natural_coords(0.0, 1.0, LAM)
    escort = escort_expectation_numeric(fam, theta)
    assert abs(escort[0]) < 1e-4
    assert abs(escort[1] - 1.0) < 1e-4
    # translation shifts the escort mean
    theta_c = student_t_natural_coords(0.8, 1.0, LAM)
    escort_c = escort_expectation_numeric(fam, theta_c)
    assert escort_c[0] - escort[0] == pytest.approx(0.8, abs=1e-4)


def test_density_normalizes():
    fam = student_t_family(NU)
    theta = student_t_natural_coords(0.4, 1.3, LAM)
    total, _ = quad(lambda x: float(family_density(fam, theta, x)), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# invariance of the simplex estimator in the curvature parameter


def test_lambda_independence_small():
    worst = dirichlet_lambda_independence(seed=11, d=5, sigma=0.3, n_steps=2000,
                                          lam_a=-0.3, lam_b=-0.7)
    assert worst < 1e-12


def test_log_distance():
    assert log_distance([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert log_distance([math.e], [1.0]) == pytest.approx(1.0, abs=1e-12)
