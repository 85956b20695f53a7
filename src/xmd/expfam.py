"""Deformed exponential families of the form
``p(y) = (1 + lam*<theta, y>)_+^(1/lam) * exp(-phi(theta))`` and the online
natural-gradient estimator

    eta <- eta + delta * (1 + lam*<theta, eta>) / (1 + lam*<theta, y>) * (y - eta).

The dual variable eta is the escort expectation of the statistics, so online
estimation is a stochastic flow toward the escort mean. Two concrete models
are registered: the location-scale heavy-tail (Student-t) family and the
simplex perturbation model driven by Dirichlet noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DomainError, Generator, _vec, inverse_mirror, lambda_mirror
from .flows import _dual_accept, _guarded_step
from .generators import (dirichlet_generator, pow2, student_t_generator,
                         student_t_inverse_mirror, student_t_lambda)
from .simplex import perturb


@dataclass(frozen=True)
class LambdaExpFamily:
    """A model family: its potential generator, its statistics map and,
    optionally, the reflection into its dual domain that the online estimator
    tries before halving a step."""

    gen: Generator
    statistics: Callable[[np.ndarray], np.ndarray]
    reflect_dual: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    @property
    def lam(self) -> float:
        return self.gen.lam

    @property
    def dim(self) -> int:
        return self.gen.dim


@dataclass(frozen=True)
class OnlineState:
    eta: np.ndarray
    theta: np.ndarray
    k: int = 0
    skipped: int = 0


def start_state(model: LambdaExpFamily, eta0) -> OnlineState:
    """Initial state at eta0, one point ``(dim,)`` or a batch ``(batch, dim)``."""
    eta0 = _vec(eta0)
    theta0 = np.apply_along_axis(lambda e: inverse_mirror(model.gen, e), -1, eta0)
    return OnlineState(eta=eta0, theta=theta0, k=0)


def log_loss(model: LambdaExpFamily, theta, y) -> tuple[float, np.ndarray]:
    """Negative log density and its gradient in the natural parameter."""
    theta = _vec(theta)
    y = _vec(y)
    lam = model.lam
    pair = lambda_mirror(model.gen, theta)
    if model.gen.is_bregman:
        value = float(model.gen.value(theta)) - float(theta @ y)
        return value, pair.eta - y
    pi_y = 1.0 + lam * float(theta @ y)
    if pi_y <= 0.0:
        raise DomainError("observation outside the support of the current parameter")
    value = float(model.gen.value(theta)) - np.log(pi_y) / lam
    grad = pair.eta / pair.pi - y / pi_y
    return value, grad


def online_update(model: LambdaExpFamily, state: OnlineState, y,
                  delta: float) -> OnlineState:
    """One estimator step for one state ``(dim,)`` or a batch ``(batch, dim)``
    of states updated in lockstep; ``y`` is one observation per row or one
    shared by all rows.

    Through the shared guarded step ``flows._guarded_step``, each row tries its
    candidate, then the candidate reflected into the dual domain; a row for
    which neither is feasible halves its step, and after MAX_HALVINGS halvings
    it skips the observation; ``skipped`` counts the skipped rows over all
    steps. Rows never interact: a batch gives, row by row, the same bits as
    separate calls.
    """
    gen = model.gen
    eta, theta = state.eta, state.theta
    y = _vec(y)
    with np.errstate(all="ignore"):
        if gen.is_bregman:
            factor = np.ones(eta.shape[:-1])
        else:
            pi = 1.0 + model.lam * np.vecdot(theta, eta)
            pi_y = 1.0 + model.lam * np.vecdot(theta, y)
            if np.any(pi_y <= 0.0):
                raise DomainError("observation outside the support of the current parameter")
            factor = pi / pi_y
    x, skipped = _guarded_step(np.concatenate([eta, theta], axis=-1), delta,
                               lambda d: eta + (d * factor)[..., None] * (y - eta),
                               _dual_accept(gen, theta, model.reflect_dual))
    dim = eta.shape[-1]
    return OnlineState(eta=x[..., :dim], theta=x[..., dim:], k=state.k + 1,
                       skipped=state.skipped + int(np.count_nonzero(skipped)))


def log_distance(eta, eta_p):
    """Metric on a positive dual domain: Euclidean norm of the coordinatewise
    log difference; a float for one point, an array for a batch of rows."""
    diff = np.log(_vec(eta)) - np.log(_vec(eta_p))
    dist = np.sqrt(np.vecdot(diff, diff))
    return dist if dist.ndim else float(dist)


# ---------------------------------------------------------------------------
# Student-t location-scale family


@dataclass(frozen=True)
class StudentTParams:
    mu: float
    sigma: float
    nu: float

    @property
    def lam(self) -> float:
        return student_t_lambda(self.nu)


def student_t_coords(params: StudentTParams) -> np.ndarray:
    """(mu, sigma) -> natural coordinates."""
    if params.sigma <= 0.0:
        raise DomainError("scale must be positive")
    lam = params.lam
    k = -lam * params.mu ** 2 + params.sigma ** 2 * (lam + 2.0)
    return np.array([2.0 * params.mu / k, -1.0 / k])


def student_t_params(theta, nu: float) -> StudentTParams:
    """Natural coordinates -> (mu, sigma); requires theta in the parameter set.
    For a batch ``(batch, 2)`` of coordinates, mu and sigma are arrays."""
    theta = _vec(theta)
    lam = student_t_lambda(nu)
    t1, t2 = theta[..., 0], theta[..., 1]
    if not np.all((t2 < 0.0) & (lam * pow2(t1) - 4.0 * t2 > 0.0)):
        raise DomainError(f"theta={theta} outside the natural parameter set")
    mu = -t1 / (2.0 * t2)
    sigma = np.sqrt((-1.0 / t2 + lam * pow2(mu)) / (lam + 2.0))
    if theta.ndim == 1:
        mu, sigma = float(mu), float(sigma)
    return StudentTParams(mu=mu, sigma=sigma, nu=nu)


def student_t_sample(params: StudentTParams, rng: np.random.Generator,
                     size: Optional[int] = None) -> np.ndarray:
    """mu + sigma * Z / sqrt(V/nu) with Z standard normal, V chi-square(nu)."""
    z = rng.standard_normal(size)
    v = rng.chisquare(params.nu, size)
    return params.mu + params.sigma * z / np.sqrt(v / params.nu)


def _student_t_reflect(eta: np.ndarray) -> np.ndarray:
    # reflect the violated scalar constraint value eta2 - eta1^2 > 0, row-wise
    square = pow2(eta[..., 0])
    slack = eta[..., 1] - square
    return np.stack([eta[..., 0], np.where(slack > 0.0, eta[..., 1], square - slack)], axis=-1)


def student_t_family(nu: float) -> LambdaExpFamily:
    gen = student_t_generator(nu)

    def statistics(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x, x ** 2], axis=-1)

    return LambdaExpFamily(gen=gen, statistics=statistics, reflect_dual=_student_t_reflect,
                           name=f"student_t(nu={nu})")


# ---------------------------------------------------------------------------
# Dirichlet perturbation model on the simplex


@dataclass(frozen=True)
class DirichletPerturbModel:
    """Truth p on the open simplex and multiplicative Dirichlet noise of
    level sigma; the induced family has lam = -sigma."""

    p: np.ndarray
    sigma: float

    @property
    def lam(self) -> float:
        return -self.sigma

    @property
    def d(self) -> int:
        return self.p.size - 1


def simplex_to_eta(p) -> np.ndarray:
    p = _vec(p)
    return p[1:] / p[0]


def eta_to_simplex(eta) -> np.ndarray:
    eta = _vec(eta)
    p = np.concatenate([[1.0], eta])
    return p / p.sum()


def dirichlet_perturb_sample(model: DirichletPerturbModel, rng: np.random.Generator,
                             size: Optional[int] = None) -> np.ndarray:
    """Draw Q = p (+) D with D Dirichlet(sigma^{-1}/(1+d), ..., repeated),
    via normalized Gamma variates."""
    n = model.p.size
    shape = (1.0 / model.sigma) / n
    g = rng.gamma(shape, size=(n,) if size is None else (size, n))
    return perturb(model.p, g / g.sum(axis=-1, keepdims=True))


def dirichlet_family(lam: float, d: int) -> LambdaExpFamily:
    gen = dirichlet_generator(lam, d)

    def statistics(q):
        q = np.asarray(q, dtype=float)
        return q[..., 1:] / q[..., :1]

    return LambdaExpFamily(gen=gen, statistics=statistics,
                           name=f"dirichlet_perturb(lam={lam}, d={d})")
