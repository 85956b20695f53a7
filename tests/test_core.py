"""Core geometry: costs, mirror maps, conjugacy, divergences, and the metric."""
import ast
import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xmd
from xmd.core import (Domain, DomainError, Generator, GeometryError,
                      RegularityError, _cholesky, _solve, _vec, big_phi_bregman,
                      big_phi_hess, big_phi_value, conformal_weight, inverse_mirror,
                      lambda_mirror, log_cost, log_div, metric, zeta_of)
from xmd.expfam import (LambdaExpFamily, OnlineState, online_update, start_state,
                        student_t_family)
from xmd.flows import (_segment_deviation, dual_logdiv_objective, quadratic_objective,
                       rhs_dual, rhs_primal)
from xmd.generators import (dirichlet_generator, log_reciprocal_generator,
                            quadratic_generator, student_t_generator)
from oracles import (bregman_div, check_regularity, conjugate_generator, conjugate_value,
                     cs_jacobian, fd_hess, linear_generator, log_div_self_dual,
                     metric_inverse_sm, mirror_jacobian, primal_logdiv_objective,
                     table_generators)

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
    # |lam| < BREGMAN_LIMIT takes the exact branch, not the cancelling formula
    x, y = np.array([0.3, -1.7]), np.array([2.9, 0.4])
    assert log_cost(x, y, 1e-13) == -x @ y


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
    assert gen.inverse_mirror_closed is not None
    assert gen.hess is not None and gen.dual_domain is not None
    for theta in gen.grid:
        eta = lambda_mirror(gen, theta).eta
        back = inverse_mirror(gen, eta)
        assert np.max(np.abs(back - np.asarray(theta))) < 1e-9
        again = lambda_mirror(gen, back).eta
        assert np.max(np.abs(again - eta)) < 1e-10


def test_inverse_mirror_row2_example():
    # eta = 1/(1 - lam*theta): eta = 1, lam = 2 inverts to theta = 0
    assert inverse_mirror(linear_generator(2.0), [1.0])[0] == pytest.approx(0.0, abs=1e-14)


def test_a_generator_without_a_closed_inverse_raises_regularity_error():
    gen = student_t_generator(3.0)
    bare = dataclasses.replace(gen, inverse_mirror_closed=None)
    fam = dataclasses.replace(student_t_family(3.0), gen=bare)
    eta = lambda_mirror(gen, gen.grid[0]).eta
    with pytest.raises(RegularityError, match="student_t"):
        inverse_mirror(bare, eta)
    with pytest.raises(RegularityError, match="student_t"):
        start_state(fam, eta)
    state = OnlineState(eta=eta, theta=np.asarray(gen.grid[0], dtype=float))
    with pytest.raises(RegularityError, match="student_t"):
        online_update(fam, state, eta, 0.5)


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
    # at lam = 0 the metric is the plain Hessian, exactly
    g0 = metric(quadratic_generator(0.0, 2), [0.3, -0.1])
    assert np.array_equal(g0, np.eye(2))


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
    if name.startswith("quadratic") and gen.domain.lower.size == 1:
        t = theta[0]
        return np.array([[np.exp(lam * t ** 2 / 2.0) * (1.0 + lam * t ** 2)]])
    return cs_jacobian(lambda th: zeta_of(gen, th), theta)


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
        assert np.max(np.abs(g @ g_inv - np.eye(theta.size))) < 1e-10 * scale


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_metric_hessian_matches_finite_differences(gen):
    theta = np.asarray(gen.grid[0], dtype=float)
    fd = fd_hess(lambda t: float(gen.value(t)), theta)
    closed = np.atleast_2d(gen.hess(theta))
    assert np.max(np.abs(fd - closed)) < 1e-5 * max(1.0, np.max(np.abs(closed)))


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_registered_hessians_are_exactly_symmetric(gen):
    # metric takes hess as it is, with no symmetrising step
    for theta in gen.grid:
        theta = np.asarray(theta, dtype=float)
        h = np.atleast_2d(gen.hess(theta))
        assert h.shape == (theta.size, theta.size)
        assert np.array_equal(h, h.T)
        g = metric(gen, theta)
        assert np.array_equal(g, g.T)


def test_metric_positive_definite_failure():
    bad = Generator(
        lam=-2.0, domain=quadratic_generator(-2.0).domain,
        value=lambda t: 0.5 * float(t @ t), grad=lambda t: np.asarray(t),
        hess=lambda t: np.eye(1), name="bad")
    with pytest.raises(RegularityError):
        metric(bad, [0.75])  # 1 - 2*theta^2 < 0


# ---------------------------------------------------------------------------
# the two LAPACK helpers: the gufuncs of np.linalg, without its argument handling


def _same(helper, reference, *args):
    """helper(*args) and reference(*args) give the same bytes, or both raise
    LinAlgError."""
    try:
        expected = reference(*args)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            helper(*args)
        return
    got = helper(*args)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _stacked_solve(g, b):
    return np.linalg.solve(g, b[..., None])[..., 0]


@pytest.mark.parametrize("batch", [(), (2,), (4, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lapack_helpers_give_the_bits_of_np_linalg(d, batch):
    rng = np.random.default_rng(100 * d + len(batch))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(100):
            a = rng.normal(size=batch + (d, d))
            g = a @ np.swapaxes(a, -1, -2) + rng.uniform(1e-3, 1.0) * np.eye(d)
            b = rng.normal(size=batch + (d,))
            _same(_solve, _stacked_solve, g, b)
            # a 1-d b is np.linalg.solve's own one-vector case
            _same(_solve, np.linalg.solve, g, b.reshape(-1, d)[0])
            _same(_cholesky, np.linalg.cholesky, g)
            # not symmetric: both read the lower triangle alone
            _same(_cholesky, np.linalg.cholesky, g + np.triu(a, 1))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_lapack_helpers_raise_where_np_linalg_raises(batch):
    g = np.broadcast_to(np.array([[2.0, 0.5], [0.5, 1.0]]), batch + (2, 2)).copy()
    b = np.ones(batch + (2,))
    member = (0,) * len(batch)
    singular, indefinite = g.copy(), g.copy()
    singular[member] = [[1.0, 2.0], [2.0, 4.0]]
    indefinite[member] = [[1.0, 2.0], [2.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, b[..., None])
        with pytest.raises(np.linalg.LinAlgError):
            _solve(singular, b)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(indefinite)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(indefinite)
        # a singular G has no Cholesky factor either
        _same(_cholesky, np.linalg.cholesky, singular)
        # NaN and inf entries, in the lower and the upper triangle, pass or
        # raise as in np.linalg (the Cholesky check lets NaN and +inf pass)
        for value in (np.nan, np.inf, -np.inf):
            for entry in ((0, 0), (1, 0), (0, 1), (1, 1)):
                bad = g.copy()
                bad[member + entry] = value
                _same(_solve, _stacked_solve, bad, b)
                _same(_cholesky, np.linalg.cholesky, bad)
                rhs = b.copy()
                rhs[member + (entry[0],)] = value
                _same(_solve, _stacked_solve, g, rhs)


def test_lapack_helpers_refuse_complex_input():
    g = np.array([[2.0, 0.5], [0.5, 1.0]]) + 0j
    b = np.array([1.0, 1j])
    # np.linalg would solve in complex arithmetic; the helpers are real only
    with pytest.raises(TypeError):
        _solve(g, b)
    with pytest.raises(TypeError):
        _solve(g.real, b)
    with pytest.raises(TypeError):
        _cholesky(g)


def test_every_lapack_call_goes_through_the_two_helpers():
    # a source scan of src/xmd: np.linalg.solve, np.linalg.cholesky and the
    # gufunc module they wrap appear in code only inside core._solve and
    # core._cholesky, so each LAPACK call is written once
    banned = {"solve", "cholesky", "_umath_linalg"}
    found = []
    for path in sorted(pathlib.Path(xmd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in tree.body:
            if (path.name == "core.py" and isinstance(node, ast.FunctionDef)
                    and node.name in ("_solve", "_cholesky")):
                skipped |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Attribute):
                name = node.attr
                linalg = isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                if name == "_umath_linalg" or (linalg and name in banned):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                found += [f"{path.name}:{node.lineno}: import {alias.name}"
                          for alias in node.names if alias.name in banned]
            elif isinstance(node, ast.Name) and node.id == "_umath_linalg":
                found.append(f"{path.name}:{node.lineno}: {node.id}")
    assert found == []


# ---------------------------------------------------------------------------
# lam = 0 is a value of the lambda formulas, not a separate branch


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lam_zero_gives_the_classical_maps_exactly(dim):
    gen = quadratic_generator(0.0, dim)
    theta_star = np.asarray(gen.grid[-1], dtype=float)
    eta_star = lambda_mirror(gen, theta_star).eta
    obj = quadratic_objective(theta_star)
    dual_obj = dual_logdiv_objective(gen, theta_star)
    model = LambdaExpFamily(gen, statistics=lambda y: y)
    y = np.linspace(-0.7, 0.5, dim)
    for theta in gen.grid:
        theta = np.asarray(theta, dtype=float)
        hess = np.atleast_2d(gen.hess(theta))
        pair = lambda_mirror(gen, theta)
        assert np.array_equal(pair.eta, gen.grad(theta)) and pair.pi == 1.0
        g = metric(gen, theta)
        assert np.array_equal(g, hess)
        assert np.array_equal(mirror_jacobian(gen, theta), g)
        assert conformal_weight(gen, theta) == 1.0
        assert np.array_equal(rhs_dual(gen, obj, pair), -obj.grad(theta))
        assert np.array_equal(dual_obj.grad(theta), pair.eta - eta_star)
        state = online_update(model, OnlineState(eta=pair.eta, theta=theta), y, 0.3)
        assert np.array_equal(state.eta, pair.eta + 0.3 * (y - pair.eta))
    # below BREGMAN_LIMIT, Phi = (exp(lam*phi) - 1)/lam takes its exact value phi
    tiny = quadratic_generator(1e-13, dim)
    for theta in tiny.grid:
        assert big_phi_value(tiny, theta) == float(tiny.value(np.asarray(theta)))


# ---------------------------------------------------------------------------
# inverse metric through the mirror Jacobian


def test_metric_inverse_sm_identity_limit():
    gen = quadratic_generator(0.0, 3)
    theta = np.array([0.2, -0.1, 0.4])
    pair = lambda_mirror(gen, theta)
    jac_inv = np.linalg.inv(mirror_jacobian(gen, theta))
    assert np.array_equal(metric_inverse_sm(gen, pair, jac_inv), np.eye(3))


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
    rows = [dom.anchor] + [dom.anchor + scale * rng.standard_normal(dom.anchor.size)
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
        reflected = dom.reflect(x)
        rows = np.array([dom.reflect(row) for row in x])
    assert np.array_equal(reflected, rows, equal_nan=True)
    # the constraints take complex input and read its real part, row-wise
    finite = x[np.all(np.isfinite(x), axis=1)]
    for g in dom.constraints:
        values = g(finite)
        assert values.shape == (len(finite),)
        assert np.array_equal(g(finite + 1e-20j), values)
        assert np.array_equal(values, [g(row) for row in finite])


def test_domain_contains_one_point_agrees_with_the_batch_mask():
    seen = []

    def unit_disc(x):
        seen.append(np.array(x))
        return 1.0 - np.vecdot(x, x)

    lower, upper = np.array([-1.0, -2.0]), np.array([1.0, 0.5])
    box = Domain.box(lower, upper, anchor=np.zeros(2))
    disc = Domain(lower, upper, np.zeros(2), constraints=(unit_disc,))
    points = np.array([[0.1, 0.2],            # inside both
                       [0.9, 0.45],           # inside the box, outside the disc
                       [1.5, 0.0],            # outside the box
                       [np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]])
    for dom, expected in ((box, [True, True, False, False, False, False]),
                          (disc, [True, False, False, False, False, False])):
        assert dom.contains(points).tolist() == expected
        singles = [dom.contains(x) for x in points]
        assert all(type(one) is bool for one in singles)
        assert singles == expected
    # a batch moves its rows outside the box to the anchor, so a constraint
    # sees only finite rows, also when no row of the batch is inside the box
    assert disc.contains(points[2:]).tolist() == [False] * 4
    assert disc.contains(points[::-1]).tolist() == expected[::-1]
    assert all(np.isfinite(x).all() for x in seen)
    # one point outside the box, NaN and inf included, never reaches a constraint
    seen.clear()
    assert not any(disc.contains(x) for x in points[2:])
    assert seen == []


# ---------------------------------------------------------------------------
# the maps of a point over the last axis

BATCH_GENERATORS = ALL_GENERATORS + [quadratic_generator(-0.5, 2)]


def _grid_rows(gen, data, n):
    """n rows drawn from the generator's grid, in any order and with repeats,
    each shrunk toward the origin by a factor in [0.5, 1]: that keeps every
    registered domain, and gives the rows arbitrary last bits."""
    grid = np.array(gen.grid, dtype=float)
    idx = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=n, max_size=n))
    scale = data.draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
    return grid[idx] * np.array(scale)[:, None]


def _assert_rows(batch_call, row_call, n):
    """batch_call() equals row_call(i), i < n, row by row and bit for bit;
    or some row raises a GeometryError, and so does the batch."""
    try:
        rows = [np.asarray(row_call(i)) for i in range(n)]
    except GeometryError:
        with pytest.raises(GeometryError):
            batch_call()
        return
    batch = np.asarray(batch_call())
    assert batch.shape == (n, *rows[0].shape)
    for got, want in zip(batch, rows):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("gen", BATCH_GENERATORS, ids=lambda g: g.name)
def test_maps_over_the_last_axis_equal_the_one_row_calls(gen, data):
    n = data.draw(st.integers(1, 5))
    t, tp = _grid_rows(gen, data, n), _grid_rows(gen, data, n)
    star = _grid_rows(gen, data, 1)[0]
    obj = quadratic_objective(star, weight=1.7)
    dual = dual_logdiv_objective(gen, star)
    primal = primal_logdiv_objective(gen, star)
    lam = gen.lam
    maps = [
        lambda x, y: gen.value(x),
        lambda x, y: gen.grad(x),
        lambda x, y: gen.hess(x),
        lambda x, y: metric(gen, x),
        lambda x, y: big_phi_hess(gen, x),
        lambda x, y: rhs_primal(gen, obj, x),
        lambda x, y: primal.grad(x),
        lambda x, y: log_cost(gen.grad(y), x - y, lam),
        lambda x, y: log_div(gen, x, y),
        lambda x, y: log_div(gen, star, x),
        lambda x, y: log_div(gen, x, star),
        lambda x, y: lambda_mirror(gen, x).eta,
        lambda x, y: lambda_mirror(gen, x).pi,
        lambda x, y: gen.inverse_mirror_closed(lambda_mirror(gen, x).eta),
        lambda x, y: inverse_mirror(gen, lambda_mirror(gen, x).eta),
        lambda x, y: conformal_weight(gen, x),
        lambda x, y: zeta_of(gen, x),
        lambda x, y: big_phi_value(gen, x),
        lambda x, y: big_phi_bregman(gen, x, y),
        lambda x, y: big_phi_bregman(gen, star, x),
        lambda x, y: obj.value(x),
        lambda x, y: dual.grad(x),
        lambda x, y: rhs_dual(gen, obj, lambda_mirror(gen, x)),
        lambda x, y: rhs_dual(gen, dual, lambda_mirror(gen, x)),
        lambda x, y: _segment_deviation(x, tp[0], star),
        lambda x, y: _segment_deviation(x, star, star),
    ]
    for f in maps:
        _assert_rows(lambda: f(t, tp), lambda i: f(t[i], tp[i]), n)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("gen", BATCH_GENERATORS, ids=lambda g: g.name)
def test_one_row_maps_round_as_their_scalar_formulas(gen, data):
    # the reference rounding of one point: Python floats from 1-d dot
    # products, as each map was written before it took batches; the property
    # above carries these bits to every row of a batch
    t, tp = _grid_rows(gen, data, 2)
    star = _grid_rows(gen, data, 1)[0]
    lam = gen.lam
    x, y = gen.grad(tp), t - tp
    arg = lam * float(x @ y)
    if 1.0 + arg > 1e-14:
        assert _same_bits(log_cost(x, y, lam), -np.log1p(arg) / lam)
    u = gen.grad(t)
    eta = u / (1.0 - lam * float(u @ t))
    pi = 1.0 + lam * float(t @ eta)
    pair = lambda_mirror(gen, t)
    assert _same_bits(pair.eta, eta) and _same_bits(pair.pi, pi)
    assert _same_bits(zeta_of(gen, t), np.exp(lam * gen.value(t)) * u)
    assert _same_bits(big_phi_bregman(gen, star, t),
                      big_phi_value(gen, star) - big_phi_value(gen, t)
                      - float(zeta_of(gen, t) @ (star - t)))
    obj = quadratic_objective(star, weight=1.7)
    assert _same_bits(obj.value(t), 0.5 * 1.7 * float((t - star) @ (t - star)))
    df = obj.grad(t)
    assert _same_bits(rhs_dual(gen, obj, pair), -pi * (df + lam * eta * float(t @ df)))
    eta_star = lambda_mirror(gen, star).eta
    pi_star = 1.0 + lam * float(t @ eta_star)
    if pi_star > 0.0:
        assert _same_bits(dual_logdiv_objective(gen, star).grad(t),
                          eta / pi - eta_star / pi_star)
    seg = star - tp
    if float(seg @ seg) > 0.0:
        s = min(max(float((t - tp) @ seg) / float(seg @ seg), 0.0), 1.0)
        assert _same_bits(_segment_deviation(t, tp, star),
                          float(np.linalg.norm(t - (tp + s * seg))))
    h, step = gen.hess(t), star - t
    w = 1.0 + lam * float(u @ step)
    if gen.is_bregman:
        assert _same_bits(primal_logdiv_objective(gen, star).grad(t), -h @ step)
    elif w > 0.0:
        assert _same_bits(primal_logdiv_objective(gen, star).grad(t),
                          -u - (h @ step - u) / w)


def _scalar_hessians(gen):
    """The one-point Hessian of each registered family by its scalar
    formula, numpy scalars squared by ``** 2``: the reference rounding of
    one point."""
    lam = gen.lam
    if gen.name.startswith("log_reciprocal"):
        return lambda t: np.array([[0.5 / t[0] ** 2]])
    if gen.name.startswith("linear"):
        return lambda t: np.zeros((1, 1))
    if gen.name.startswith("quadratic"):
        return lambda t: np.eye(gen.domain.lower.size)
    if gen.name.startswith("student_t"):
        def hess(t):
            a = lam * t[..., 0] ** 2 - 4.0 * t[..., 1]
            b = -2.0 * t[..., 1]
            h11 = (lam + 2.0) * (a - 2.0 * lam * t[0] ** 2) / a ** 2
            h12 = 4.0 * (lam + 2.0) * t[0] / a ** 2
            h22 = 4.0 * (lam + 1.0) / (lam * b ** 2) - 8.0 * (lam + 2.0) / (lam * a ** 2)
            return np.array([[h11, h12], [h12, h22]])
        return hess
    assert gen.name.startswith("dirichlet")
    return lambda t: np.diag(-1.0 / (lam * (1 + gen.domain.lower.size) * np.asarray(t) ** 2))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("gen", BATCH_GENERATORS, ids=lambda g: g.name)
def test_one_point_hessians_keep_their_scalar_bits(gen, data):
    # hess over the last axis squares by np.float_power, libm's pow, as a
    # numpy scalar's ** 2 does; an array's ** 2 is x * x, which differs in
    # the last bit for about one point in a thousand
    reference = _scalar_hessians(gen)
    for t in _grid_rows(gen, data, 3):
        assert _same_bits(gen.hess(t), reference(t))


# points at which a square rounds differently by pow and by x * x: in the
# first coordinate (1.0975...), and in a and b of the Student-t Hessian
POW_SENSITIVE = {
    "log_reciprocal": [[1.097518175579618], [4.501157104706892]],
    "student_t": [[1.097518175579618, -0.4193542685662134],
                  [1.097518175579618, -2.3286992967991376]],
}


@pytest.mark.parametrize("gen", [g for g in BATCH_GENERATORS
                                 if g.name.split("(")[0] in POW_SENSITIVE],
                         ids=lambda g: g.name)
def test_hessians_square_as_pow_where_it_differs_from_x_times_x(gen):
    points = np.array(POW_SENSITIVE[gen.name.split("(")[0]])
    reference = _scalar_hessians(gen)
    for t in points:
        assert _same_bits(gen.hess(t), reference(t))
    for got, t in zip(gen.hess(points), points):
        assert _same_bits(got, reference(t))


# ---------------------------------------------------------------------------
# array coercion


def test_vec_returns_a_float64_array_of_ndim_one_or_more_as_is():
    base = np.arange(6.0).reshape(2, 3)
    for x in (np.array([0.5]), np.arange(3.0), base, base[:, 1], base.T):
        assert _vec(x) is x


class Tagged(np.ndarray):
    pass


@pytest.mark.parametrize("x, values", [
    ([1, 2], [1.0, 2.0]),
    ((0.5,), [0.5]),
    (1.5, [1.5]),
    (3, [3.0]),
    (np.float64(2.0), [2.0]),
    (np.array(2.5), [2.5]),
    (np.arange(3), [0.0, 1.0, 2.0]),
    (np.arange(2, dtype=np.float32) + 0.5, [0.5, 1.5]),
    (np.arange(2.0).view(Tagged), [0.0, 1.0]),
], ids=["list", "tuple", "float", "int", "numpy-scalar", "0-d", "int-array",
        "float32-array", "subclass"])
def test_vec_converts_everything_else_to_a_new_float64_array(x, values):
    out = _vec(x)
    assert out is not x
    assert type(out) is np.ndarray and out.dtype == np.float64
    assert out.ndim == 1 and out.tolist() == values
