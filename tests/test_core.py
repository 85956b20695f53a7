"""Core geometry: costs, mirror maps, conjugacy, divergences, and the metric."""
import dataclasses
import math

import numpy as np
import pytest

from xmd.core import (DomainError, DualPair, Generator, RegularityError,
                      bregman_div, big_phi_bregman, big_phi_grad, big_phi_hess,
                      conformal_weight, conjugate_value, inverse_mirror,
                      lambda_mirror, log_cost, log_div, log_div_self_dual,
                      metric, metric_inverse_sm, mirror_jacobian)
from xmd.generators import (dirichlet_generator, linear_generator,
                            log_reciprocal_generator, quadratic_generator,
                            student_t_generator, table_generators)
from oracles import check_regularity, conjugate_generator, cs_jacobian, fd_hess

ALL_GENERATORS = (table_generators()
                  + [quadratic_generator(-0.4, 3), student_t_generator(3.0),
                     dirichlet_generator(-0.5, 2)])


def pair_grid(gen):
    """Distinct grid pairs satisfying the divergence precondition
    1 + lam*<grad phi(theta'), theta - theta'> > 0 (it binds for lam > 0)."""
    pts = [np.asarray(p, dtype=float) for p in gen.grid]
    pairs = []
    for i, t in enumerate(pts):
        for j, tp in enumerate(pts):
            if i == j:
                continue
            arg = 1.0 + gen.lam * float(np.asarray(gen.grad(tp)) @ (t - tp))
            if arg > 0.05:
                pairs.append((t, tp))
    assert pairs
    return pairs


# ---------------------------------------------------------------------------
# logarithmic cost


def test_log_cost_values():
    assert log_cost([1.0], [1.0], 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)
    assert log_cost([1.0, -2.0], [2.0, 1.0], 0.7) == pytest.approx(0.0, abs=1e-12)
    # near-zero lam agrees with the exact limit branch
    assert log_cost([1.0], [1.0], 1e-8) == pytest.approx(-1.0, abs=1e-7)
    assert log_cost([1.0], [1.0], 0.0) == -1.0


def test_log_cost_domain_error():
    with pytest.raises(DomainError):
        log_cost([1.0], [-2.0], 1.0)


# ---------------------------------------------------------------------------
# mirror maps, Table-row closed forms


def test_mirror_scalar_rows():
    assert lambda_mirror(log_reciprocal_generator(1.0), [2.0]).eta[0] == pytest.approx(-1.0 / 6.0, abs=1e-14)
    assert lambda_mirror(linear_generator(2.0), [0.0]).eta[0] == pytest.approx(1.0, abs=1e-14)
    assert lambda_mirror(quadratic_generator(-1.0), [0.5]).eta[0] == pytest.approx(0.4, abs=1e-14)
    # eta = 1/(1 - lam*theta): theta = -1, lam = 2 gives 1/3
    eta = lambda_mirror(linear_generator(2.0), [-1.0]).eta
    assert eta[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    # eta = 1/(lam*theta), componentwise
    eta = lambda_mirror(dirichlet_generator(-0.5, 2), [-1.0, -4.0]).eta
    assert np.allclose(eta, [2.0, 0.5], rtol=0.0, atol=1e-14)
    # eta = theta/(1 - lam*|theta|^2): |theta|^2 = 0.25, lam = -0.4 gives theta/1.1
    eta = lambda_mirror(quadratic_generator(-0.4, 2), [0.3, -0.4]).eta
    assert np.allclose(eta, [0.3 / 1.1, -0.4 / 1.1], rtol=0.0, atol=1e-14)


def test_mirror_regularity_violation_reports_value():
    gen = quadratic_generator(2.0)
    # 1 - lam*theta^2 <= 0 at theta = 0.9 for lam = 2
    with pytest.raises(RegularityError, match="1 - lam"):
        lambda_mirror(gen, [0.9])


# ---------------------------------------------------------------------------
# inverse mirror


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_inverse_mirror_round_trip(gen):
    for theta in gen.grid:
        eta = lambda_mirror(gen, theta).eta
        back = inverse_mirror(gen, eta)
        assert np.max(np.abs(back - np.asarray(theta))) < 1e-9
        again = lambda_mirror(gen, back).eta
        assert np.max(np.abs(again - eta)) < 1e-10


def test_inverse_mirror_row2_example():
    # eta = 1/(1 - lam*theta): eta = 1, lam = 2 inverts to theta = 0
    assert inverse_mirror(linear_generator(2.0), [1.0])[0] == pytest.approx(0.0, abs=1e-14)


def test_newton_fallback_matches_closed_forms():
    gen = student_t_generator(3.0)
    newton = dataclasses.replace(gen, inverse_mirror_closed=None)
    for theta in gen.grid:
        eta = lambda_mirror(gen, theta).eta
        assert np.max(np.abs(inverse_mirror(newton, eta) - inverse_mirror(gen, eta))) < 1e-9


def test_inverse_mirror_outside_dual_domain():
    gen = student_t_generator(3.0)
    with pytest.raises(DomainError):
        inverse_mirror(gen, [2.0, 1.0])  # needs eta2 > eta1^2


# ---------------------------------------------------------------------------
# conjugacy


def test_conjugate_trivial_values():
    gen = quadratic_generator(-1.0)
    pair = lambda_mirror(gen, [0.0])
    assert conjugate_value(gen, pair) == pytest.approx(0.0, abs=1e-14)
    gen = linear_generator(1.0)
    pair = lambda_mirror(gen, [0.0])
    assert conjugate_value(gen, pair) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_fenchel_identity_on_grid(gen):
    for theta in gen.grid:
        pair = lambda_mirror(gen, theta)
        resid = (float(gen.value(pair.theta)) + conjugate_value(gen, pair)
                 + log_cost(pair.theta, pair.eta, gen.lam))
        assert abs(resid) < 1e-12


# ---------------------------------------------------------------------------
# Bregman and logarithmic divergences


def test_bregman_examples():
    quad = quadratic_generator(0.0)
    assert bregman_div(quad, [1.0], [0.0]) == pytest.approx(0.5, abs=1e-14)
    assert bregman_div(quad, [0.3], [0.3]) == 0.0
    neglog = Generator(
        lam=0.0, domain=log_reciprocal_generator(1.0).domain,
        value=lambda t: -np.log(t[0]), grad=lambda t: np.array([-1.0 / t[0]]),
        hess=lambda t: np.array([[1.0 / t[0] ** 2]]), name="neglog")
    assert bregman_div(neglog, [2.0], [1.0]) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_log_div_values():
    gen = log_reciprocal_generator(1.0)
    assert log_div(gen, [1.3], [1.3]) == pytest.approx(0.0, abs=1e-12)
    expected = -0.5 - math.log(1.0 - (math.e - 1.0) / 2.0)
    assert log_div(gen, [math.e], [1.0]) == pytest.approx(expected, abs=1e-10)
    with pytest.raises(DomainError):
        log_div(gen, [10.0], [1.0])  # 1 - (theta-1)/2 <= 0


def test_log_div_bregman_limit_small_lam():
    rng = np.random.default_rng(3)
    quad0 = quadratic_generator(0.0)
    for _ in range(50):
        tp = rng.uniform(0.2, 0.45) * rng.choice([-1.0, 1.0])
        t = tp + rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0])
        b = bregman_div(quad0, [t], [tp])
        err3 = abs(log_div(quadratic_generator(1e-3), [t], [tp]) - b)
        err4 = abs(log_div(quadratic_generator(1e-4), [t], [tp]) - b)
        assert abs(log_div(quadratic_generator(1e-6), [t], [tp]) - b) <= 1e-5 * b
        assert 8.0 <= err3 / err4 <= 12.0


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_log_div_nonnegative_zero_iff_equal(gen):
    for theta, theta_p in pair_grid(gen):
        val = log_div(gen, theta, theta_p)
        assert val > 0.0
    for theta in gen.grid:
        assert abs(log_div(gen, theta, theta)) < 1e-12


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_self_dual_representation(gen):
    for theta, theta_p in pair_grid(gen):
        eta_p = lambda_mirror(gen, theta_p).eta
        direct = log_div(gen, theta, theta_p)
        dual_form = log_div_self_dual(gen, theta, eta_p)
        assert abs(direct - dual_form) < 1e-10
    for theta in gen.grid:
        eta = lambda_mirror(gen, theta).eta
        assert abs(log_div_self_dual(gen, theta, eta)) < 1e-12


def test_self_dual_symmetry_with_conjugate():
    # L_phi[theta : theta'] equals the conjugate's divergence L_psi[eta' : eta]
    for gen in [log_reciprocal_generator(1.0), quadratic_generator(-1.0)]:
        conj = conjugate_generator(gen)
        for theta, theta_p in pair_grid(gen):
            eta = lambda_mirror(gen, theta).eta
            eta_p = lambda_mirror(gen, theta_p).eta
            assert log_div(gen, theta, theta_p) == pytest.approx(
                log_div(conj, eta_p, eta), abs=1e-10)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_conformal_bregman_identity(gen):
    # L = -(1/lam) log(1 - lam * exp(-lam*phi(theta)) * B_Phi[theta : theta'])
    lam = gen.lam
    for theta, theta_p in pair_grid(gen):
        b = big_phi_bregman(gen, theta, theta_p)
        factor = np.exp(-lam * float(gen.value(np.asarray(theta))))
        expected = -np.log1p(-lam * factor * b) / lam
        assert abs(log_div(gen, theta, theta_p) - expected) < 1e-10


# ---------------------------------------------------------------------------
# metric


def test_metric_scalar_values():
    gen = quadratic_generator(-0.5)
    g = metric(gen, [1.0])
    assert g[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert 1.0 / conformal_weight(gen, np.array([1.0])) == pytest.approx(np.exp(0.25), abs=1e-12)
    # lam -> 0 branch returns the plain Hessian
    g0 = metric(quadratic_generator(0.0, 2), [0.3, -0.1])
    assert np.allclose(g0, np.eye(2))


def _second_derivative_of_dual_potential(gen, theta):
    """Independent oracle for hess Phi: closed forms for the scalar rows,
    complex-step differentiation otherwise."""
    name = gen.name
    lam = gen.lam
    if name.startswith("log_reciprocal"):
        t = theta[0]
        return np.array([[(lam + 2.0) / 4.0 * t ** (-lam / 2.0 - 2.0)]])
    if name.startswith("linear"):
        return np.array([[lam * np.exp(lam * theta[0])]])
    if name.startswith("quadratic") and gen.dim == 1:
        t = theta[0]
        return np.array([[np.exp(lam * t ** 2 / 2.0) * (1.0 + lam * t ** 2)]])
    return cs_jacobian(lambda th: big_phi_grad(gen, th), theta)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_metric_two_representations_agree(gen):
    for theta in gen.grid:
        theta = np.asarray(theta, dtype=float)
        g = metric(gen, theta)
        hess_dual = _second_derivative_of_dual_potential(gen, theta)
        rep2 = hess_dual / conformal_weight(gen, theta)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - rep2)) < 1e-8 * scale
        g_inv = metric_inverse_sm(gen, lambda_mirror(gen, theta),
                                  np.linalg.inv(mirror_jacobian(gen, theta)))
        assert np.max(np.abs(g @ g_inv - np.eye(gen.dim))) < 1e-10 * scale


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_metric_hessian_matches_finite_differences(gen):
    theta = np.asarray(gen.grid[0], dtype=float)
    fd = fd_hess(lambda t: float(gen.value(t)), theta)
    closed = np.atleast_2d(gen.hess(theta))
    assert np.max(np.abs(fd - closed)) < 1e-5 * max(1.0, np.max(np.abs(closed)))


def test_metric_positive_definite_failure():
    bad = Generator(
        lam=-2.0, domain=quadratic_generator(-2.0).domain,
        value=lambda t: 0.5 * float(t @ t), grad=lambda t: np.asarray(t),
        hess=lambda t: np.eye(1), name="bad")
    with pytest.raises(RegularityError):
        metric(bad, [0.75])  # 1 - 2*theta^2 < 0


# ---------------------------------------------------------------------------
# inverse metric through the mirror Jacobian


def test_metric_inverse_sm_identity_limit():
    gen = quadratic_generator(0.0, 3)
    theta = np.array([0.2, -0.1, 0.4])
    pair = lambda_mirror(gen, theta)
    jac_inv = np.linalg.inv(mirror_jacobian(gen, theta))
    assert np.allclose(metric_inverse_sm(gen, pair, jac_inv), np.eye(3), atol=1e-12)


def test_metric_inverse_sm_scalar_cross_check():
    gen = quadratic_generator(-1.0)
    theta = np.array([0.5])
    pair = lambda_mirror(gen, theta)
    jac_inv = np.linalg.inv(mirror_jacobian(gen, theta))
    sm = metric_inverse_sm(gen, pair, jac_inv)
    assert np.allclose(sm, np.linalg.inv(metric(gen, theta)), atol=1e-12)


def test_metric_inverse_sm_product_is_identity():
    gen = quadratic_generator(-0.4, 3)
    for theta in gen.grid:
        pair = lambda_mirror(gen, theta)
        jac_inv = np.linalg.inv(mirror_jacobian(gen, theta))
        sm = metric_inverse_sm(gen, pair, jac_inv)
        assert np.max(np.abs(sm @ metric(gen, theta) - np.eye(3))) < 1e-8


# ---------------------------------------------------------------------------
# regularity sweep


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_registered_generators_are_regular(gen):
    assert check_regularity(gen, gen.grid) == []
    for theta in gen.grid:
        assert gen.domain.contains(theta)
        if gen.dual_domain is not None:
            assert gen.dual_domain.contains(lambda_mirror(gen, theta).eta)


# ---------------------------------------------------------------------------
# domains on batches of points

DOMAINS = [(f"{gen.name}/{kind}", dom) for gen in ALL_GENERATORS
           for kind, dom in (("primal", gen.domain), ("dual", gen.dual_domain))
           if dom is not None]


def _batch_points(dom):
    """Interior, exterior and non-finite rows around the domain's anchor."""
    rng = np.random.default_rng(3)
    rows = [dom.anchor] + [dom.anchor + scale * rng.standard_normal(dom.dim)
                           for scale in (0.01, 0.3, 1.0, 3.0, 30.0) for _ in range(4)]
    for bad in (np.nan, np.inf, -np.inf):
        row = dom.anchor.copy()
        row[-1] = bad
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("dom", [d for _, d in DOMAINS], ids=[n for n, _ in DOMAINS])
def test_domain_contains_and_reflect_on_batches_match_rows(dom):
    x = _batch_points(dom)
    mask = dom.contains(x)
    assert mask.dtype == bool and mask.shape == (len(x),)
    singles = [dom.contains(row) for row in x]
    assert all(isinstance(one, bool) for one in singles)
    assert mask.tolist() == singles
    assert mask[0] and not mask[-3:].any()
    with np.errstate(invalid="ignore"):
        reflected = dom.reflect(x, floor=1e-9)
        rows = np.array([dom.reflect(row, floor=1e-9) for row in x])
    assert np.array_equal(reflected, rows, equal_nan=True)
    # the constraints take complex input and read its real part, row-wise
    finite = x[np.all(np.isfinite(x), axis=1)]
    for g in dom.constraints:
        values = g(finite)
        assert values.shape == (len(finite),)
        assert np.array_equal(g(finite + 1e-20j), values)
        assert np.array_equal(values, [g(row) for row in finite])
