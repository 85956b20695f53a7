"""Aitchison operations, Dirichlet cost, portfolio maps, and simplex flows."""
import math

import numpy as np
import pytest

from xmd.core import Domain, DomainError, Generator, log_div
from xmd.simplex import (as_simplex, barycenter, dirichlet_cost,
                         dirichlet_cost_grad, directional_derivs,
                         diversity_generator, equal_weighted_generator,
                         l_divergence, neg, perturb, portfolio_map, power,
                         sample_simplex, simplex_flow_rhs, step_conformal,
                         step_entropic, step_multiplicative, transport_map)
from xmd.rng import INIT_STREAM, substream


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
    ew = equal_weighted_generator()
    for p, q in zip(random_points(5, 5, seed=7), random_points(5, 5, seed=8)):
        assert l_divergence(ew, q, p) == pytest.approx(dirichlet_cost(p, q), abs=1e-12)
        assert l_divergence(ew, p, p) == 0.0
    div = diversity_generator(0.5)
    for p, q in zip(random_points(2, 4, seed=9), random_points(2, 4, seed=10)):
        direct = (math.log(1.0 + float(div.grad(p) @ (q - p)))
                  - (div.value(q) - div.value(p)))
        assert l_divergence(div, q, p) == pytest.approx(direct, abs=1e-14)
        assert l_divergence(div, q, p) > 0.0


def test_exponential_concavity_midpoint():
    rng = substream(11, 0)
    for gen in (equal_weighted_generator(), diversity_generator(0.5),
                diversity_generator(-1.0)):
        for _ in range(20):
            p, q = sample_simplex(rng, 5), sample_simplex(rng, 5)
            mid = 0.5 * (p + q)
            assert (math.exp(gen.value(mid))
                    >= 0.5 * (math.exp(gen.value(p)) + math.exp(gen.value(q))) - 1e-10)


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
        assert np.allclose(portfolio_map(equal_weighted_generator(), p),
                           barycenter(5), atol=1e-12)
        assert np.allclose(portfolio_map(diversity_generator(0.5), p),
                           power(0.5, p), atol=1e-12)
        near0 = portfolio_map(diversity_generator(1e-6), p)
        assert np.max(np.abs(near0 - barycenter(5))) < 1e-6
        assert abs(portfolio_map(diversity_generator(0.5), p).sum() - 1.0) < 1e-12


def test_transport_maps():
    p = np.array([0.8, 0.2])
    assert np.allclose(transport_map(equal_weighted_generator(), p), p, atol=1e-12)
    t = transport_map(diversity_generator(0.5), p)
    assert np.allclose(t, power(0.5, p), atol=1e-12)
    assert t[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    for q in random_points(4, 4, seed=14):
        gen = diversity_generator(0.3)
        assert np.allclose(transport_map(gen, q), power(0.7, q), atol=1e-12)
        assert np.allclose(gen.inverse_transport(transport_map(gen, q)), q, atol=1e-12)


# ---------------------------------------------------------------------------
# flows on the simplex


def test_simplex_flow_rhs_zero_gradient():
    gen = diversity_generator(0.4)
    p = np.array([0.3, 0.3, 0.4])
    q = transport_map(gen, p)
    rhs = simplex_flow_rhs(gen, lambda r: np.zeros(3), p, q)
    assert np.allclose(rhs, 0.0)


def test_simplex_flow_equal_weighted_reduction():
    # pairwise log-ratio velocities match -n * (p_i dd_i - p_j dd_j)
    gen = equal_weighted_generator()
    rng = substream(15, 0)
    for _ in range(5):
        p = sample_simplex(rng, 4)
        grad = rng.standard_normal(4)
        dd = directional_derivs(lambda r: grad, p)
        rhs = simplex_flow_rhs(gen, lambda r: grad, p, p)
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
        a = step_conformal(equal_weighted_generator(), grad, p, delta)
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
    gen = equal_weighted_generator()
    rng = substream(17, 0)
    p = sample_simplex(rng, 4)
    p_star = sample_simplex(rng, 4)
    grad = lambda r: dirichlet_cost_grad(r, p_star)

    def flow_endpoint(t):
        cur = p.copy()
        m = 64
        for _ in range(m):
            q = transport_map(gen, cur)
            rhs = simplex_flow_rhs(gen, grad, cur, q)
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
        gen = diversity_generator(alpha)
        _check_descent(lambda grad, p, delta: step_conformal(gen, grad, p, delta),
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
    out = step_conformal(diversity_generator(0.9), grad, p_star, 1.0)
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
