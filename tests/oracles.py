"""Verification oracles: independent numerical checks of the objects in ``xmd``.

Rule: ``src/xmd`` holds what an experiment runner or the benchmark reaches,
and checks live in ``tests/``. A helper that only a test calls lives here,
even when it names an object of the paper (the conjugate, the self-dual
divergence, the mirror Jacobian, the linear generator); the reach test in
``test_experiments.py`` fails on any package function that no runner enters
and that its allow-list does not name. That also keeps numpy the package's
only runtime dependency: the quadrature oracle below needs scipy, which is a
test dependency.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from xmd import expfam, simplex
from xmd.core import (Domain, DomainError, DualPair, Generator, GeometryError, _directional,
                      _vec, big_phi_hess, inverse_mirror, lambda_mirror, log_cost,
                      log_div, metric)
from xmd.expfam import LambdaExpFamily, OnlineState, StudentTParams
from xmd.flows import Objective, _primal_logdiv_grad
from xmd.generators import log_reciprocal_generator, quadratic_generator
from xmd.rng import TRUTH_STREAM, substream

# ---------------------------------------------------------------------------
# numerical differentiation


def fd_grad(f: Callable[[np.ndarray], float], x, rel_step: Optional[float] = None) -> np.ndarray:
    """Central-difference gradient with step h_i = eps^(1/3) * (1 + |x_i|)."""
    x = _vec(x)
    h0 = rel_step if rel_step is not None else np.finfo(float).eps ** (1.0 / 3.0)
    out = np.empty_like(x)
    for i in range(x.size):
        h = h0 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (float(f(xp)) - float(f(xm))) / (2.0 * h)
    return out


def fd_hess(f: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    x = _vec(x)
    h0 = np.finfo(float).eps ** (1.0 / 3.0)
    n = x.size
    out = np.empty((n, n))
    for j in range(n):
        h = h0 * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (fd_grad(f, xp) - fd_grad(f, xm)) / (2.0 * h)
    return 0.5 * (out + out.T)


def cs_jacobian(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Complex-step Jacobian, one column per coordinate by the package's
    complex step; exact to roundoff for analytic maps."""
    x = _vec(x)
    return np.stack([np.atleast_1d(_directional(f, x, e)) for e in np.eye(x.size)], axis=1)


# ---------------------------------------------------------------------------
# generators


def linear_generator(lam: float) -> Generator:
    """phi(t) = t on (-inf, 1/lam); regular for lam > 0."""
    if not lam > 0.0:
        raise ValueError("the linear generator requires lam > 0")

    return Generator(
        lam=lam,
        domain=Domain.box([-np.inf], [1.0 / lam], anchor=[1.0 / lam - 1.0]),
        value=lambda t: t[..., 0],
        grad=lambda t: np.ones(np.shape(t)),
        hess=lambda t: np.zeros(np.shape(t) + (1,)),
        inverse_mirror_closed=lambda e: (e - 1.0) / (lam * e),
        dual_domain=Domain.box([0.0], [np.inf], anchor=[1.0]),
        name=f"linear(lam={lam})",
        grid=tuple(np.linspace(1.0 / lam - 4.0, 1.0 / lam - 0.05, 9).reshape(-1, 1)),
    )


def table_generators() -> list[Generator]:
    """One representative of each scalar reference family."""
    return [
        log_reciprocal_generator(1.0),
        linear_generator(2.0),
        quadratic_generator(-1.0),
    ]


def check_regularity(gen: Generator, points: Sequence) -> list[str]:
    """Evaluate both regularity conditions on a set of points; return violations."""
    bad = []
    for theta in points:
        theta = _vec(theta)
        try:
            if gen.hess is not None:
                np.linalg.cholesky(big_phi_hess(gen, theta))
            u = _vec(gen.grad(theta))
            if not gen.is_bregman:
                s = 1.0 - gen.lam * float(u @ theta)
                if s <= 0.0:
                    bad.append(f"1 - lam*<grad,theta> = {s:.3e} at theta={theta}")
        except (np.linalg.LinAlgError, GeometryError) as exc:
            bad.append(f"{exc} at theta={theta}")
    return bad


# ---------------------------------------------------------------------------
# duality


def conjugate_value(gen: Generator, pair: DualPair) -> float:
    """Value of the conjugate at the mirror image: psi(eta) = -phi(theta) - c(theta, eta)."""
    return -float(gen.value(pair.theta)) - log_cost(pair.theta, pair.eta, gen.lam)


def bregman_div(gen: Generator, theta, theta_p) -> float:
    """Bregman divergence of the generator's value, treating it as convex."""
    theta = _vec(theta)
    theta_p = _vec(theta_p)
    gp = _vec(gen.grad(theta_p))
    return float(gen.value(theta)) - float(gen.value(theta_p)) - float(gp @ (theta - theta_p))


def log_div_self_dual(gen: Generator, theta, eta_p) -> float:
    """Self-dual form: phi(theta) + psi(eta') - (1/lam) log(1 + lam*<theta, eta'>)."""
    theta = _vec(theta)
    eta_p = _vec(eta_p)
    theta_p = inverse_mirror(gen, eta_p)
    psi = conjugate_value(gen, DualPair(theta_p, eta_p, 1.0 + gen.lam * float(theta_p @ eta_p)))
    return float(gen.value(theta)) + psi + log_cost(theta, eta_p, gen.lam)


def mirror_jacobian(gen: Generator, theta) -> np.ndarray:
    """d eta / d theta, assembled from the metric as pi * (I + lam eta theta^T) G."""
    theta = _vec(theta)
    pair = lambda_mirror(gen, theta)
    g = metric(gen, theta)
    corr = np.eye(theta.size) + gen.lam * np.outer(pair.eta, theta)
    return pair.pi * corr @ g


def metric_inverse_sm(gen: Generator, pair: DualPair, jac_theta_eta: np.ndarray) -> np.ndarray:
    """Inverse metric from the mirror Jacobian: pi * (d theta/d eta) * (I + lam eta theta^T)."""
    jac = np.atleast_2d(np.asarray(jac_theta_eta, dtype=float))
    corr = np.eye(pair.theta.size) + gen.lam * np.outer(pair.eta, pair.theta)
    return pair.pi * jac @ corr


def primal_logdiv_objective(gen: Generator, theta_star) -> Objective:
    """f(theta) = L[theta_star : theta]; its flow follows a primal geodesic.
    ``geodesic_flow_check`` reads this flow's velocity from its gradient
    alone."""
    theta_star = _vec(theta_star)

    def grad(theta):
        theta = _vec(theta)
        return _primal_logdiv_grad(gen, theta_star, theta, gen.grad(theta), gen.hess(theta))

    return Objective(value=lambda t: log_div(gen, theta_star, t), grad=grad,
                     theta_star=theta_star)


def conjugate_generator(gen: Generator) -> Generator:
    """The conjugate as a generator on the dual domain.

    Its ordinary gradient is theta / (1 + lam*<theta, eta>), which makes the
    roles of the two coordinate systems symmetric.
    """
    if gen.dual_domain is None:
        raise DomainError("conjugate_generator requires a registered dual domain")

    def value(eta):
        theta = inverse_mirror(gen, eta)
        pi = 1.0 + gen.lam * float(theta @ _vec(eta))
        return conjugate_value(gen, DualPair(theta, _vec(eta), pi))

    def grad(eta):
        theta = inverse_mirror(gen, eta)
        pi = 1.0 + gen.lam * float(theta @ _vec(eta))
        return theta / pi

    return Generator(lam=gen.lam, domain=gen.dual_domain, value=value, grad=grad,
                     name=f"conjugate({gen.name})")


# ---------------------------------------------------------------------------
# deformed exponential families


def natural_gradient_update(model: LambdaExpFamily, state: OnlineState, y,
                            delta: float) -> np.ndarray:
    """Unsimplified natural-gradient step in the dual variable (no projection):
    eta - delta * pi * (I + lam eta theta^T) grad_loss. A cross-check for the
    simplified online update."""
    _, df = expfam.log_loss(model, state.theta, y)
    lam = model.lam
    if model.gen.is_bregman:
        return state.eta - delta * df
    pi = 1.0 + lam * float(state.theta @ state.eta)
    corr = df + lam * state.eta * float(state.theta @ df)
    return state.eta - delta * pi * corr


def family_density(model: LambdaExpFamily, theta, x) -> np.ndarray:
    """Density through the deformed-exponential form (vectorized over x)."""
    theta = _vec(theta)
    y = model.statistics(np.asarray(x, dtype=float))
    base = 1.0 + model.lam * np.asarray(y) @ theta
    base = np.maximum(base, 0.0)
    return base ** (1.0 / model.lam) * np.exp(-float(model.gen.value(theta)))


def student_t_density(x, params: StudentTParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nu, mu, sigma = params.nu, params.mu, params.sigma
    logc = math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * np.log(nu * np.pi)
    return np.exp(logc) / sigma * (1.0 + (x - mu) ** 2 / (nu * sigma ** 2)) ** (-(nu + 1.0) / 2.0)


def student_t_sampler(nu: float):
    """Draws from the Student-t family member at natural coordinates theta."""
    def sampler(theta, rng, size):
        return expfam.student_t_sample(expfam.student_t_params(theta, nu), rng, size)
    return sampler


def eta_to_simplex(eta) -> np.ndarray:
    """Dual coordinates -> the simplex point (1, eta) / (1 + sum eta), the
    inverse of ``expfam.simplex_to_eta``."""
    eta = _vec(eta)
    p = np.concatenate([[1.0], eta])
    return p / p.sum()


def dirichlet_sampler(lam: float):
    """Draws from the Dirichlet perturbation model at natural coordinates theta."""
    def sampler(theta, rng, size):
        eta = 1.0 / (lam * _vec(theta))
        model = expfam.DirichletPerturbModel(p=eta_to_simplex(eta), sigma=-lam)
        return expfam.dirichlet_perturb_sample(model, rng, size)
    return sampler


@dataclass(frozen=True)
class FisherReport:
    metric_matrix: np.ndarray
    fisher_mc: np.ndarray
    rel_error: float


def fisher_metric_check(model: LambdaExpFamily, theta, n_samples: int,
                        rng: np.random.Generator, sampler) -> FisherReport:
    """Monte Carlo estimate of the score outer product over ``n_samples``
    draws of ``sampler(theta, rng, size)``, compared against the conformal
    metric through G = (1 - lam) * Fisher."""
    theta = _vec(theta)
    lam = model.lam
    pair = lambda_mirror(model.gen, theta)
    x = sampler(theta, rng, n_samples)
    y = np.atleast_2d(model.statistics(x))
    pi_y = 1.0 + lam * y @ theta
    scores = y / pi_y[:, None] - (pair.eta / pair.pi)[None, :]
    fisher = scores.T @ scores / n_samples
    g = metric(model.gen, theta)
    rel = float(np.linalg.norm(g - (1.0 - lam) * fisher) / np.linalg.norm(g))
    return FisherReport(metric_matrix=g, fisher_mc=fisher, rel_error=rel)


def escort_expectation_numeric(model: LambdaExpFamily, theta) -> np.ndarray:
    """Quadrature escort moments for scalar-observation models:
    integral of F(x) p^q over integral of p^q, with q = 1 - lam."""
    theta = _vec(theta)
    q = 1.0 - model.lam

    def weight(x):
        return float(family_density(model, theta, x)) ** q

    norm, _ = quad(weight, -np.inf, np.inf, limit=200)
    dim = theta.size
    out = np.empty(dim)
    for i in range(dim):
        def integrand(x, i=i):
            return float(np.atleast_1d(model.statistics(x))[i]) * weight(x)
        val, _ = quad(integrand, -np.inf, np.inf, limit=200)
        out[i] = val / norm
    return out


def dirichlet_lambda_independence(seed: int, d: int, sigma: float, n_steps: int,
                                  lam_a: float, lam_b: float) -> float:
    """Run the estimator twice on one data stream with different curvature
    parameters; return the sup distance between the two simplex trajectories."""
    rng_truth = substream(seed, TRUTH_STREAM)
    p_star = simplex.as_simplex(rng_truth.dirichlet(np.full(1 + d, 5.0)))
    model = expfam.DirichletPerturbModel(p=p_star, sigma=sigma)
    qs = expfam.dirichlet_perturb_sample(model, substream(seed, 0), n_steps)

    worst = 0.0
    fams = [expfam.dirichlet_family(lam, d) for lam in (lam_a, lam_b)]
    states = [expfam.start_state(f, np.ones(d)) for f in fams]
    for k in range(1, n_steps + 1):
        ps = []
        for i, fam in enumerate(fams):
            y = fam.statistics(qs[k - 1])
            states[i] = expfam.online_update(fam, states[i], y, 1.0 / k)
            ps.append(eta_to_simplex(states[i].eta))
        worst = max(worst, float(np.max(np.abs(ps[0] - ps[1]))))
    return worst


# ---------------------------------------------------------------------------
# simplex


def step_multiplicative(p_k, grads, delta: float) -> np.ndarray:
    """p_i <- p_i * exp(-delta * p_i * dd_i f), renormalized; ``grads`` are the
    vertex directional derivatives."""
    p = np.asarray(p_k, dtype=float)
    logw = np.log(np.maximum(p, simplex.WEIGHT_FLOOR)) - delta * p * np.asarray(grads, dtype=float)
    return simplex._normalize_logs(logw)


def power(alpha, p) -> np.ndarray:
    """Componentwise power, renormalized over the last axis (Aitchison
    scaling)."""
    w = np.asarray(p, dtype=float) ** alpha
    return w / w.sum(axis=-1, keepdims=True)


def neg(p) -> np.ndarray:
    return power(-1.0, p)


def diversity_value(alpha: float, p) -> float:
    """phi(p) = log(sum p^alpha)/alpha of one point for alpha < 1, and its
    limit mean(log p) at alpha = 0: the diversity generator of exponent alpha."""
    p = np.asarray(p, dtype=float)
    if alpha == 0.0:
        return float(np.mean(np.log(p)))
    return float(np.log(np.sum(p ** alpha)) / alpha)


def diversity_grad(alpha, p) -> np.ndarray:
    """grad phi(p) = p^(alpha - 1) / sum(p^alpha), over the last axis, for one
    exponent or a column of them."""
    a = np.asarray(alpha, dtype=float)
    p = np.asarray(p, dtype=float)
    return p ** (a - 1.0) / np.sum(p ** a, axis=-1, keepdims=True)


def portfolio_map(alpha, p) -> np.ndarray:
    """The generic portfolio pi(p) = p * (1 + dd phi(p)), renormalized, of the
    diversity generator: alpha-powering, up to the round-off of 1 + dd."""
    p = np.asarray(p, dtype=float)
    w = p * (1.0 + simplex.directional_derivs(lambda r: diversity_grad(alpha, r), p))
    return w / w.sum(axis=-1, keepdims=True)


def transport_by_portfolio(alpha, p) -> np.ndarray:
    """q = p (+) pi(neg p) through the generic portfolio map."""
    return simplex.perturb(p, portfolio_map(alpha, neg(p)))


def flow_rhs_by_portfolio(alpha, obj_grad, p, q) -> np.ndarray:
    """The flow in log q, (-p_i / pi_i(neg p)) * [dd_i f(p) - q_i * sum_j
    (p_j/p_i)^2 dd_j f(p)], with pi(neg p) through the generic portfolio map."""
    p = np.asarray(p, dtype=float)
    dd = simplex.directional_derivs(obj_grad, p)
    weighted = np.sum(p ** 2 * dd, axis=-1, keepdims=True)
    return (-p / portfolio_map(alpha, neg(p))) * (dd - q * weighted / p ** 2)


def l_divergence(alpha: float, q, p) -> float:
    """log(1 + <grad phi(p), q - p>) - (phi(q) - phi(p)) of the diversity
    generator; nonnegative, zero iff q = p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (math.log(1.0 + float(diversity_grad(alpha, p) @ (q - p)))
            - (diversity_value(alpha, q) - diversity_value(alpha, p)))
