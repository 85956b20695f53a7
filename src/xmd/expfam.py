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
from .generators import dirichlet_generator, student_t_generator, student_t_lambda
from .simplex import perturb


@dataclass(frozen=True)
class LambdaExpFamily:
    """A model family: its potential generator, its statistics map and the
    reflection into its dual domain that the online estimator tries before
    halving a step, by default the box reflection of that domain."""

    gen: Generator
    statistics: Callable[[np.ndarray], np.ndarray]
    reflect_dual: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    @property
    def lam(self) -> float:
        return self.gen.lam


@dataclass(frozen=True)
class OnlineState:
    eta: np.ndarray
    theta: np.ndarray
    skipped: int = 0


def start_state(model: LambdaExpFamily, eta0) -> OnlineState:
    """Initial state at eta0, one point ``(dim,)`` or a batch ``(batch, dim)``.
    Raises DomainError if a row of eta0 or its inverse lies outside its
    domain, an inverse that overflows included."""
    eta0 = _vec(eta0)
    with np.errstate(all="ignore"):
        return OnlineState(eta=eta0, theta=inverse_mirror(model.gen, eta0))


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

    Each row steps eta along y - eta with its own step size delta * pi / pi_y,
    through the shared guarded step ``flows._guarded_step``: a row tries its
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
        step = y - eta
        pi = 1.0 + model.lam * np.vecdot(theta, eta)
        pi_y = 1.0 + model.lam * np.vecdot(theta, y)
        if np.any(pi_y <= 0.0):
            raise DomainError("observation outside the support of the current parameter")
        rate = delta * (pi / pi_y)
    x, skipped = _guarded_step(np.concatenate([eta, theta], axis=-1), eta, step, rate,
                               _dual_accept(gen, model.reflect_dual or gen.dual_domain.reflect))
    dim = eta.shape[-1]
    return OnlineState(eta=x[..., :dim], theta=x[..., dim:],
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


def student_t_moments(mu: float, sigma: float) -> np.ndarray:
    """The escort moments [mu, mu^2 + sigma^2] of location mu and scale
    sigma, the dual point of (mu, sigma). Raises OverflowError where mu^2 or
    sigma^2 overflows."""
    return np.array([mu, mu ** 2 + sigma ** 2])


def student_t_params(theta, nu: float) -> StudentTParams:
    """Natural coordinates -> (mu, sigma) over the last axis; requires theta
    in the parameter set. For one point ``(2,)`` mu and sigma are floats, for
    coordinates ``(..., 2)`` arrays of shape ``(...)``."""
    theta = _vec(theta)
    lam = student_t_lambda(nu)
    t1, t2 = theta[..., 0], theta[..., 1]
    if not np.all((t2 < 0.0) & (lam * t1 ** 2 - 4.0 * t2 > 0.0)):
        raise DomainError(f"theta={theta} outside the natural parameter set")
    mu = -t1 / (2.0 * t2)
    # np.square, not ** 2: for one point mu is a numpy scalar, and a numpy
    # scalar's ** 2 rounds through libm pow where an array's is x * x
    sigma = np.sqrt((-1.0 / t2 + lam * np.square(mu)) / (lam + 2.0))
    if theta.ndim == 1:
        mu, sigma = float(mu), float(sigma)
    return StudentTParams(mu=mu, sigma=sigma, nu=nu)


def student_t_sample(params: StudentTParams, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """``size`` draws mu + sigma * Z / sqrt(V/nu) with Z standard normal, V
    chi-square(nu)."""
    z = rng.standard_normal(size)
    v = rng.chisquare(params.nu, size)
    return params.mu + params.sigma * z / np.sqrt(v / params.nu)


def _student_t_reflect(eta: np.ndarray) -> np.ndarray:
    # reflect the violated scalar constraint value eta2 - eta1^2 > 0, row-wise
    square = eta[..., 0] ** 2
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


def simplex_to_eta(p) -> np.ndarray:
    """Simplex point(s) -> dual coordinates p_i / p_0, i >= 1, over the last axis."""
    p = _vec(p)
    return p[..., 1:] / p[..., :1]


def dirichlet_perturb_sample(model: DirichletPerturbModel, rng: np.random.Generator,
                             size: int) -> np.ndarray:
    """Draw ``size`` rows Q = p (+) D with D Dirichlet(sigma^{-1}/(1+d), ...,
    repeated), via normalized Gamma variates."""
    n = model.p.size
    shape = (1.0 / model.sigma) / n
    g = rng.gamma(shape, size=(size, n))
    return perturb(model.p, g / g.sum(axis=-1, keepdims=True))


def dirichlet_family(lam: float, d: int) -> LambdaExpFamily:
    gen = dirichlet_generator(lam, d)

    return LambdaExpFamily(gen=gen, statistics=simplex_to_eta,
                           name=f"dirichlet_perturb(lam={lam}, d={d})")
