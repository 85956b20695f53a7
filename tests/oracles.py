"""Verification oracles: independent numerical checks of the objects in ``xmd``.

Rule: a helper that only checks something lives here, in ``tests/``; only what
an experiment runner calls, or what names an object of the paper, stays in
``src/xmd``. That keeps numpy the package's only runtime dependency: the
quadrature oracle below needs scipy, which is a test dependency.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from xmd import expfam, simplex
from xmd.core import (DomainError, DualPair, Generator, GeometryError, _vec,
                      big_phi_hess, conjugate_value, inverse_mirror,
                      lambda_mirror, metric)
from xmd.expfam import LambdaExpFamily, OnlineState, StudentTParams
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


def cs_jacobian(f: Callable[[np.ndarray], np.ndarray], x, h: float = 1e-20) -> np.ndarray:
    """Complex-step Jacobian; exact to roundoff for analytic maps."""
    x = np.asarray(x, dtype=complex)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xp[i] += 1j * h
        cols.append(np.imag(np.atleast_1d(f(xp))) / h)
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# generators


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
    def sampler(theta, rng, size=None):
        return expfam.student_t_sample(expfam.student_t_params(theta, nu), rng, size)
    return sampler


def dirichlet_sampler(lam: float):
    """Draws from the Dirichlet perturbation model at natural coordinates theta."""
    def sampler(theta, rng, size=None):
        eta = 1.0 / (lam * _vec(theta))
        model = expfam.DirichletPerturbModel(p=expfam.eta_to_simplex(eta), sigma=-lam)
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
    out = np.empty(model.dim)
    for i in range(model.dim):
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
            ps.append(expfam.eta_to_simplex(states[i].eta))
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
