"""Aitchison operations, Dirichlet cost, portfolio maps, and simplex flows."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xmd import simplex
from xmd.core import Domain, DomainError, Generator, log_div
from xmd.flows import MAX_HALVINGS
from xmd.simplex import (as_simplex, barycenter, dirichlet_cost,
                         dirichlet_cost_grad, directional_derivs, perturb,
                         sample_simplex, simplex_flow_rhs, step_conformal,
                         step_entropic, transport_map)
from xmd.rng import INIT_STREAM, substream
from oracles import (diversity_grad, diversity_value, flow_rhs_by_portfolio,
                     l_divergence, neg, portfolio_map, power, step_multiplicative,
                     transport_by_portfolio)


def random_points(n, count, seed=0):
    rng = substream(seed, 0)
    return [sample_simplex(rng, n) for _ in range(count)]


# ---------------------------------------------------------------------------
# Aitchison algebra


def test_perturb_values():
    out = perturb([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
    assert np.allclose(out, np.array([0.10, 0.09, 0.10]) / 0.29, atol=1e-15)


def test_perturb_identity_and_inverse():
    for p in random_points(4, 5, seed=1):
        assert np.allclose(perturb(barycenter(4), p), p, atol=1e-15)
        assert np.allclose(perturb(p, neg(p)), barycenter(4), atol=1e-14)


def test_power_values():
    assert np.allclose(power(2.0, [1.0 / 3.0, 2.0 / 3.0]), [0.2, 0.8], atol=1e-15)
    p = np.array([0.1, 0.6, 0.3])
    assert np.allclose(power(1.0, p), p, atol=1e-15)
    assert np.allclose(power(0.0, p), barycenter(3), atol=1e-15)


def test_vector_space_laws():
    rng = substream(2, 0)
    for _ in range(10):
        p, q, r = (sample_simplex(rng, 5) for _ in range(3))
        a, b = rng.uniform(-2, 2, size=2)
        assert np.allclose(perturb(p, q), perturb(q, p), atol=1e-12)
        assert np.allclose(perturb(perturb(p, q), r), perturb(p, perturb(q, r)), atol=1e-12)
        assert np.allclose(power(a + b, p), perturb(power(a, p), power(b, p)), atol=1e-12)
        assert np.allclose(power(a, perturb(p, q)), perturb(power(a, p), power(a, q)),
                           atol=1e-12)


def test_as_simplex_rejects_boundary():
    with pytest.raises(DomainError):
        as_simplex([0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# cost and L-divergence


def test_dirichlet_cost_values():
    p = np.array([0.5, 0.5])
    q = np.array([0.75, 0.25])
    assert dirichlet_cost(p, p) == 0.0
    assert dirichlet_cost(p, q) == pytest.approx(-0.5 * math.log(0.75), abs=1e-12)
    for a, b in zip(random_points(6, 5, seed=3), random_points(6, 5, seed=4)):
        assert dirichlet_cost(a, b) > 0.0


def test_dirichlet_cost_is_log_divergence_of_embedded_generator():
    # c(p, q) = L[q : p] for the lam = -1 generator -mean(log p) on the orthant
    n = 4
    gen = Generator(
        lam=-1.0,
        domain=Domain.box([0.0] * n, [np.inf] * n, anchor=np.full(n, 1.0 / n)),
        value=lambda t: -float(np.mean(np.log(t))),
        grad=lambda t: -1.0 / (n * np.asarray(t)),
        name="embedded")
    for p, q in zip(random_points(n, 6, seed=5), random_points(n, 6, seed=6)):
        assert dirichlet_cost(p, q) == pytest.approx(log_div(gen, q, p), abs=1e-12)


def test_l_divergence_identifications():
    # the equal-weighted generator is the diversity exponent 0
    for p, q in zip(random_points(5, 5, seed=7), random_points(5, 5, seed=8)):
        assert l_divergence(0.0, q, p) == pytest.approx(dirichlet_cost(p, q), abs=1e-12)
        assert l_divergence(0.0, p, p) == 0.0
    for p, q in zip(random_points(2, 4, seed=9), random_points(2, 4, seed=10)):
        direct = (math.log(1.0 + float(diversity_grad(0.5, p) @ (q - p)))
                  - (diversity_value(0.5, q) - diversity_value(0.5, p)))
        assert l_divergence(0.5, q, p) == pytest.approx(direct, abs=1e-14)
        assert l_divergence(0.5, q, p) > 0.0


def test_exponential_concavity_midpoint():
    rng = substream(11, 0)
    for alpha in (0.0, 0.5, -1.0):
        for _ in range(20):
            p, q = sample_simplex(rng, 5), sample_simplex(rng, 5)
            mid = 0.5 * (p + q)
            assert (math.exp(diversity_value(alpha, mid))
                    >= 0.5 * (math.exp(diversity_value(alpha, p))
                              + math.exp(diversity_value(alpha, q))) - 1e-10)


# ---------------------------------------------------------------------------
# directional derivatives and maps


def test_directional_derivs_values():
    p = np.array([0.4, 0.6])
    dd = directional_derivs(lambda q: np.array([1.0 / q[0], 0.0]), p)  # f = log p1
    assert dd[0] == pytest.approx(1.5, abs=1e-14)
    assert dd[1] == pytest.approx(-1.0, abs=1e-14)


def test_directional_derivs_weighted_sum_zero():
    rng = substream(12, 0)
    for _ in range(5):
        p = sample_simplex(rng, 6)
        g = rng.standard_normal(6)
        dd = directional_derivs(lambda q: g, p)
        assert abs(float(p @ dd)) < 1e-14
        assert np.allclose(directional_derivs(lambda q: np.zeros(6), p), 0.0)


def test_portfolio_maps():
    for p in random_points(5, 5, seed=13):
        assert np.allclose(portfolio_map(0.0, p), barycenter(5), atol=1e-12)
        assert np.allclose(portfolio_map(0.5, p), power(0.5, p), atol=1e-12)
        near0 = portfolio_map(1e-6, p)
        assert np.max(np.abs(near0 - barycenter(5))) < 1e-6
        assert abs(portfolio_map(0.5, p).sum() - 1.0) < 1e-12


def test_transport_maps():
    p = np.array([0.8, 0.2])
    assert np.allclose(transport_map(0.0, p), p, atol=1e-12)
    t = transport_map(0.5, p)
    assert np.allclose(t, power(0.5, p), atol=1e-12)
    assert t[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    for q in random_points(4, 4, seed=14):
        assert np.allclose(transport_map(0.3, q), power(0.7, q), atol=1e-12)
        # the inverse transport is the 1/(1 - alpha)-powering
        assert np.allclose(power(1.0 / 0.7, transport_map(0.3, q)), q, atol=1e-12)


# ---------------------------------------------------------------------------
# flows on the simplex


def test_simplex_flow_rhs_zero_gradient():
    p = np.array([0.3, 0.3, 0.4])
    rhs = simplex_flow_rhs(0.4, lambda r: np.zeros(3), p)
    assert np.allclose(rhs, 0.0)


def test_simplex_flow_equal_weighted_reduction():
    # pairwise log-ratio velocities match -n * (p_i dd_i - p_j dd_j)
    rng = substream(15, 0)
    for _ in range(5):
        p = sample_simplex(rng, 4)
        grad = rng.standard_normal(4)
        dd = directional_derivs(lambda r: grad, p)
        rhs = simplex_flow_rhs(0.0, lambda r: grad, p)
        n = 4
        for i in range(n):
            for j in range(n):
                lhs = rhs[i] - rhs[j]
                assert lhs == pytest.approx(-n * (p[i] * dd[i] - p[j] * dd[j]), abs=1e-12)


def test_conformal_alpha_zero_equals_scaled_multiplicative():
    # log-Euler at alpha = 0 and the multiplicative update with step n*delta
    # produce the same point
    rng = substream(16, 0)
    p_star = sample_simplex(rng, 5)
    grad = lambda p: dirichlet_cost_grad(p, p_star)
    p = sample_simplex(rng, 5)
    for delta in (0.05, 0.2):
        a = step_conformal(0.0, grad, p, delta)
        dd = directional_derivs(grad, p)
        b = step_multiplicative(p, dd, 5 * delta)
        assert np.max(np.abs(a - b)) < 1e-13


def test_step_multiplicative_values():
    p = np.array([0.3, 0.7])
    assert np.allclose(step_multiplicative(p, np.array([0.5, -0.5]), 0.0), p)
    dd = np.array([2.0, -1.0])
    out = step_multiplicative(p, dd, 0.5)
    w = p * np.exp(-0.5 * p * dd)
    assert np.allclose(out, w / w.sum(), atol=1e-14)


def test_step_multiplicative_matches_flow_to_second_order():
    rng = substream(17, 0)
    p = sample_simplex(rng, 4)
    p_star = sample_simplex(rng, 4)
    grad = lambda r: dirichlet_cost_grad(r, p_star)

    def flow_endpoint(t):
        cur = p.copy()
        m = 64
        for _ in range(m):
            rhs = simplex_flow_rhs(0.0, grad, cur)
            cur = as_simplex(cur * np.exp((t / m) * rhs))
        return cur

    errs = []
    for delta in (0.02, 0.01):
        stepped = step_multiplicative(p, directional_derivs(grad, p), 4 * delta)
        errs.append(np.max(np.abs(stepped - flow_endpoint(delta))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_step_entropic_values():
    # with a constant gradient g the slope at every candidate is
    # -delta * Var_p'(g) <= 0, so the first candidate is accepted
    p = np.array([0.3, 0.7])
    assert np.allclose(step_entropic(p, lambda q: np.array([1.0, -2.0]), 0.0), p)
    g = np.array([0.2, -0.4])
    one = step_entropic(p, lambda q: g, 0.5)
    w = np.array([0.3 * math.exp(-0.1), 0.7 * math.exp(0.2)])
    assert np.allclose(one, w / w.sum(), atol=1e-14)
    two = step_entropic(one, lambda q: g, 0.5)
    w2 = w / w.sum() * np.array([math.exp(-0.1), math.exp(0.2)])
    assert np.allclose(two, w2 / w2.sum(), atol=1e-12)
    # adding a constant to the gradient leaves the step unchanged
    assert np.allclose(step_entropic(p, lambda q: g + 3.7, 0.5), one, atol=1e-14)


def _check_descent(step, p, p_star, deltas):
    """Run ``step(grad, p, delta)`` over the deltas: every iterate stays
    interior, the cost never rises and it ends below 5% of its start."""
    grad = lambda q: dirichlet_cost_grad(q, p_star)
    f0 = dirichlet_cost(p, p_star)
    values = [f0]
    for delta in deltas:
        p = step(grad, p, delta)
        values.append(dirichlet_cost(p, p_star))
        assert p.min() > 0.0
    assert values[-1] < 0.05 * f0
    increases = [b - a for a, b in zip(values, values[1:]) if b > a + 1e-8]
    assert not increases


def test_conformal_descent_decreases_cost_and_stays_interior():
    rng = substream(18, 0)
    n = 5
    p_star = sample_simplex(rng, n)
    deltas = [1.0 / ((n - 1) * math.sqrt(k)) for k in range(1, 201)]
    for alpha in (0.0, 0.5, 0.9):
        _check_descent(lambda grad, p, delta: step_conformal(alpha, grad, p, delta),
                       sample_simplex(rng, n), p_star, deltas)
    # the entropic step at the simplex-compare defaults (n = 20, delta = 1/k,
    # the seed-0 initial points) for 50 steps; unguarded, it ended in NaN here
    for j in range(12):
        _check_descent(lambda grad, p, delta: step_entropic(p, grad, delta),
                       sample_simplex(substream(0, INIT_STREAM + j), 20), barycenter(20),
                       [1.0 / k for k in range(1, 51)])


def test_conformal_step_at_minimizer_returns_it():
    # the right-hand side vanishes at p_star, so every candidate's slope is
    # round-off; the step halves until it gives up and returns p_star
    rng = substream(20, 0)
    p_star = sample_simplex(rng, 5)
    grad = lambda p: dirichlet_cost_grad(p, p_star)
    out = step_conformal(0.9, grad, p_star, 1.0)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - p_star)) < 1e-14


def test_dirichlet_cost_grad_matches_finite_differences():
    rng = substream(19, 0)
    p = sample_simplex(rng, 6)
    p_star = sample_simplex(rng, 6)
    dd = directional_derivs(lambda r: dirichlet_cost_grad(r, p_star), p)
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1.0
        fd = (dirichlet_cost(p + h * (e - p), p_star)
              - dirichlet_cost(p - h * (e - p), p_star)) / (2 * h)
        assert fd == pytest.approx(dd[i], abs=1e-6)


# ---------------------------------------------------------------------------
# a batch steps each row as that row alone


def _counting_grad(p_star):
    """dirichlet_cost_grad toward p_star, with a count of its calls: a one-row
    step calls it once at p and once per candidate it tries."""
    calls = [0]

    def grad(p):
        calls[0] += 1
        return dirichlet_cost_grad(p, p_star)
    return grad, calls


def _step(method, grad, p, delta):
    if isinstance(method, str):
        return step_entropic(p, grad, delta)
    return step_conformal(method, grad, p, delta)


def _tries_at_minimizer(method, p_star, delta):
    """Tries of the one-row step from p_star, and the row it returns. Every
    candidate has a round-off slope: the row stops at the first d whose step
    rounds away, z == base in every component, and returns p_star; or at the
    first candidate whose slope rounds to zero or below, and returns it; it
    tries all MAX_HALVINGS + 1 and returns p_star if there is neither."""
    grad = _counting_grad(p_star)[0]
    log_p = np.log(p_star)
    if isinstance(method, str):
        base, direction, dilation = log_p, -grad(p_star), 1.0
    else:
        # the conformal step moves log q, (1 - alpha) log p up to a shift,
        # and maps back by the 1/(1 - alpha)-powering
        base, dilation = (1.0 - method) * log_p, 1.0 / (1.0 - method)
        direction = simplex_flow_rhs(method, grad, p_star)
    for j in range(MAX_HALVINGS + 1):
        z = base + delta * 0.5 ** j * direction
        if np.array_equal(z, base):
            return j + 1, p_star
        cand = simplex._normalize_logs(dilation * z)
        slope = np.sum(cand * directional_derivs(grad, cand) * (np.log(cand) - log_p))
        if slope <= 0.0:
            return j + 1, cand
    return MAX_HALVINGS + 1, p_star


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("method", [0.0, 0.5, 0.9, "entropic", "alpha column"])
def test_batched_step_equals_one_row_steps(method, data):
    n = data.draw(st.sampled_from([5, 20]))
    delta = data.draw(st.sampled_from([3.0, 10.0, 30.0]))
    # at these n and delta the candidates from p_star itself have round-off
    # slopes, so that row halves until its step rounds away or a slope rounds
    # to zero or below (_tries_at_minimizer; at n = 20 and alpha 0 or 0.5); the
    # row with its weight on p_star's lightest coordinate overshoots at the
    # full step and halves
    p_star = sample_simplex(substream(0, 0), n)
    far = np.full(n, 1e-3)
    far[np.argmin(p_star)] = 1.0
    far = as_simplex(far)
    logs = st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)
    drawn = [as_simplex(np.exp(row)) for row in data.draw(st.lists(logs, max_size=6))]
    order = data.draw(st.permutations(range(len(drawn) + 2)))
    rows = drawn + [far, p_star]
    batch = np.array([rows[i] for i in order])
    # the alpha column steps each row with its own exponent, the one-row steps
    # with that exponent's own generator
    if method == "alpha column":
        methods = data.draw(st.lists(st.sampled_from([-1.0, 0.1, 0.5, 0.9]),
                                     min_size=len(batch), max_size=len(batch)))
        batch_method = np.array(methods)[:, None]
    else:
        methods = [method] * len(batch)
        batch_method = method

    out = _step(batch_method, _counting_grad(p_star)[0], batch, delta)
    assert out.shape == batch.shape
    tries = []
    for i, row in enumerate(batch):
        grad, calls = _counting_grad(p_star)
        one = _step(methods[i], grad, row, delta)
        assert np.array_equal(out[i], one)
        tries.append(calls[0] - 1)

    at_far, at_star = order.index(len(drawn)), order.index(len(drawn) + 1)
    assert 1 < tries[at_far] <= MAX_HALVINGS + 1
    star_tries, star_row = _tries_at_minimizer(methods[at_star], p_star, delta)
    assert tries[at_star] == star_tries
    assert np.array_equal(out[at_star], star_row)
    assert np.max(np.abs(star_row - p_star)) < 1e-15


def test_pow_rounds_each_row_as_its_scalar_power():
    # the closed forms power by exp(a * log p), whose exp, log and * round a
    # column exponent as the scalar one; numpy's ** does not (with a scalar
    # exponent it takes a reciprocal at -1, sqrt at 0.5 and a square at 2).
    # At a = 0 every power is exactly 1, so pi(neg p) is exactly the barycenter.
    exponents = [-1.0, 0.0, 0.5, 2.0, 0.1, -0.9]
    rng = substream(21, 0)
    p = np.array([sample_simplex(rng, 20) for _ in range(240)])
    a = np.array(exponents * 40)[:, None]
    out = np.exp(a * np.log(p))
    for i, row in enumerate(p):
        assert np.array_equal(out[i], np.exp(a[i, 0] * np.log(row)))
    for exponent in exponents:
        rows = a[:, 0] == exponent
        assert np.array_equal(np.exp(exponent * np.log(p[rows])), out[rows])
    zero = a[:, 0] == 0.0
    assert np.all(simplex._normalize_logs(-a[zero] * np.log(p[zero])) == 1.0 / 20)


def test_alpha_column_rejects_only_one_and_above():
    p = sample_simplex(substream(22, 0), 6)
    grad = lambda q: dirichlet_cost_grad(q, barycenter(6))
    for alpha in (np.array([[0.5], [1.0]]), 1.5):
        with pytest.raises(ValueError):
            transport_map(alpha, np.array([p, p]))
        with pytest.raises(ValueError):
            simplex_flow_rhs(alpha, grad, np.array([p, p]))
        with pytest.raises(ValueError):
            step_conformal(alpha, grad, np.array([p, p]), 0.1)
    column = np.array([[0.5], [0.0]])
    assert np.array_equal(transport_map(column, np.array([p, p]))[1], transport_map(0.0, p))
    assert np.array_equal(step_conformal(column, grad, np.array([p, p]), 0.1)[1],
                          step_conformal(0.0, grad, p, 0.1))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_alpha_column_rows_equal_their_scalar_generators(data):
    # a column holding 0, -1, 0.5 and drawn alphas < 1: each row of
    # transport_map, simplex_flow_rhs and step_conformal has the bits of its
    # scalar exponent
    n = data.draw(st.sampled_from([3, 20]))
    drawn = data.draw(st.lists(st.floats(-3.0, 1.0, exclude_max=True), max_size=5))
    alphas = data.draw(st.permutations([0.0, -1.0, 0.5] + drawn))
    p_star = sample_simplex(substream(0, 0), n)
    logs = st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)
    p = np.array([as_simplex(np.exp(row)) for row in
                  data.draw(st.lists(logs, min_size=len(alphas), max_size=len(alphas)))])
    delta = data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    grad = lambda q: dirichlet_cost_grad(q, p_star)
    column = np.array(alphas)[:, None]
    q = transport_map(column, p)
    rhs = simplex_flow_rhs(column, grad, p)
    stepped = step_conformal(column, grad, p, delta)
    for i, alpha in enumerate(alphas):
        assert np.array_equal(q[i], transport_map(alpha, p[i]))
        assert np.array_equal(rhs[i], simplex_flow_rhs(alpha, grad, p[i]))
        assert np.array_equal(stepped[i], step_conformal(alpha, grad, p[i], delta),
                              equal_nan=True)


EPS = np.finfo(float).eps


@settings(max_examples=50, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("shape", ["scalar", "column"])
def test_closed_forms_match_the_portfolio_oracles(shape, data):
    # the diversity portfolio map is alpha-powering and the transport
    # (1 - alpha)-powering; both, and the flow, against the generic formulas
    # through grad phi. The generic 1 + dd_i rounds to about eps in its
    # terms, so pi_i of p is good to a few eps of p_i + pi_i, and the
    # transport, a simplex point, to a few eps of its largest weight: 64 eps
    # bounds both, normwise (they reached 30 and 9 eps in 4e4 random cases).
    # The flow divides by pi_i(neg p), whose relative error is that times
    # kappa_i = neg(p)_i / pi_i(neg p), so each component is checked to
    # 64 eps (1 + kappa_i) of itself (it reached 24 eps). Log-weights in
    # [-2, 2] keep kappa below 1e9 at alpha = -5, where the generic formula
    # still has digits to compare.
    n = data.draw(st.sampled_from([3, 20]))
    alphas = [0.0, -1.0, 0.5, 0.9] + data.draw(st.lists(st.floats(-5.0, 0.95), max_size=4))
    rows = len(alphas)
    logs = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    p = np.array([as_simplex(np.exp(row)) for row in
                  data.draw(st.lists(logs, min_size=rows, max_size=rows))])
    p_star = as_simplex(np.exp(np.array(data.draw(logs))))
    grad = lambda r: dirichlet_cost_grad(r, p_star)
    if shape == "column":
        cases = [(np.array(alphas)[:, None], p)]
    else:
        cases = list(zip(alphas, p))
    for alpha, pp in cases:
        for closed, oracle in [(power(alpha, pp), portfolio_map(alpha, pp)),
                               (transport_map(alpha, pp), power(1.0 - alpha, pp)),
                               (transport_map(alpha, pp), transport_by_portfolio(alpha, pp))]:
            gap = np.max(np.abs(closed - oracle), axis=-1)
            assert np.all(gap <= 64 * EPS * np.max(closed, axis=-1))
        q = transport_map(alpha, pp)
        rhs = simplex_flow_rhs(alpha, grad, pp)
        kappa = neg(pp) / power(-np.asarray(alpha), pp)
        assert np.all(np.abs(rhs - flow_rhs_by_portfolio(alpha, grad, pp, q))
                      <= 64 * EPS * (1.0 + kappa) * np.abs(rhs))


def test_a_conformal_try_exponentiates_once(monkeypatch):
    # log p is taken once by the step and twice by simplex_flow_rhs, for q
    # (transport_map) and for pi(neg p), and two _normalize_logs calls give q and
    # pi(neg p); each try maps its candidates back by one more _normalize_logs,
    # its one exp, and its accept test takes one log: for one row accepted at
    # the first try, for one row that halves, and for both in one batch with an
    # alpha column
    calls = {"_normalize_logs": 0, "exp": 0, "log": 0}

    def normalize_logs(logw, _f=simplex._normalize_logs):
        calls["_normalize_logs"] += 1
        return _f(logw)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            calls["exp"] += 1
            return np.exp(x)

        def log(self, x):
            calls["log"] += 1
            return np.log(x)

    monkeypatch.setattr(simplex, "_normalize_logs", normalize_logs)
    monkeypatch.setattr(simplex, "np", CountingNumpy())
    p_star = sample_simplex(substream(0, 0), 5)
    far = np.full(5, 1e-3)
    far[np.argmin(p_star)] = 1.0
    near = as_simplex(p_star + 0.01)
    for alpha, p, delta, first in [(0.5, near, 0.1, True), (0.5, as_simplex(far), 3.0, False),
                                   (np.array([[0.5], [-1.0]]),
                                    np.array([near, as_simplex(far)]), 3.0, False)]:
        grad, grads = _counting_grad(p_star)
        calls.update(_normalize_logs=0, exp=0, log=0)
        step_conformal(alpha, grad, p, delta)
        tries = grads[0] - 1
        assert (tries == 1) == first
        assert calls == {"_normalize_logs": 2 + tries, "exp": 2 + tries, "log": 3 + tries}


def test_a_failing_portfolio_row_is_non_finite_and_leaves_the_others():
    # at alpha = -200, pi(neg p), the 200-powering of p, underflows to zero at
    # the lightest weights of this point (the fourth initial point of
    # simplex-compare at seed 0, whose weights span a factor e^4.5), so its
    # flow direction is not finite. At alpha = -50 the closed forms step it
    # finitely; the generic portfolio p * (1 + dd phi) did not, since 1 + dd_i
    # rounded to zero or below.
    p = sample_simplex(substream(0, INIT_STREAM + 3), 20)
    batch = np.array([p, p])
    column = np.array([[-200.0], [0.5]])
    grad = lambda q: dirichlet_cost_grad(q, barycenter(20))
    with np.errstate(all="ignore"):
        rhs = simplex_flow_rhs(column, grad, batch)
    assert not np.isfinite(rhs[0]).all()
    assert np.array_equal(rhs[1], simplex_flow_rhs(0.5, grad, p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step_conformal(column, grad, batch, 0.1)
        assert np.isnan(out[0]).all()
        assert np.array_equal(out[1], step_conformal(0.5, grad, p, 0.1))
        assert np.isnan(step_conformal(-200.0, grad, p, 0.1)).all()
        assert np.isfinite(step_conformal(-50.0, grad, p, 0.1)).all()
