"""Registered generators: the three scalar reference families, the isotropic
quadratic in any dimension, the heavy-tail location-scale potential, and the
simplex-perturbation potential.

Only inverse mirror maps are registered in closed form; ``lambda_mirror``
derives the mirror map from ``grad``. All closed-form callables are
polymorphic over real and complex inputs so that complex-step differentiation
can be used as an independent oracle in tests.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Domain, DomainError, Generator


def log_reciprocal_generator(lam: float) -> Generator:
    """phi(t) = -log(t)/2 on (0, inf); regular for lam > -2."""
    if not lam > -2.0:
        raise ValueError("the -log/2 generator requires lam > -2")

    return Generator(
        lam=lam,
        domain=Domain.box([0.0], [np.inf], anchor=[1.0]),
        value=lambda t: -0.5 * np.log(t[0]),
        grad=lambda t: np.array([-0.5 / t[0]]),
        hess=lambda t: np.array([[0.5 / t[0] ** 2]]),
        # involution: the mirror map eta = -1/((2+lam) t) is its own inverse
        inverse_mirror_closed=lambda e: -1.0 / ((2.0 + lam) * e),
        dual_domain=Domain.box([-np.inf], [0.0], anchor=[-1.0 / (2.0 + lam)]),
        name=f"log_reciprocal(lam={lam})",
        grid=tuple(np.geomspace(0.2, 5.0, 9).reshape(-1, 1)),
    )


def linear_generator(lam: float) -> Generator:
    """phi(t) = t on (-inf, 1/lam); regular for lam > 0."""
    if not lam > 0.0:
        raise ValueError("the linear generator requires lam > 0")

    return Generator(
        lam=lam,
        domain=Domain.box([-np.inf], [1.0 / lam], anchor=[1.0 / lam - 1.0]),
        value=lambda t: t[0],
        grad=lambda t: np.ones(1),
        hess=lambda t: np.zeros((1, 1)),
        inverse_mirror_closed=lambda e: (e - 1.0) / (lam * e),
        dual_domain=Domain.box([0.0], [np.inf], anchor=[1.0]),
        name=f"linear(lam={lam})",
        grid=tuple(np.linspace(1.0 / lam - 4.0, 1.0 / lam - 0.05, 9).reshape(-1, 1)),
    )


def quadratic_generator(lam: float, dim: int = 1) -> Generator:
    """phi(t) = |t|^2 / 2 on the ball |t| < 1/sqrt(|lam|) (all of R^d when lam = 0)."""
    if lam == 0.0:
        domain = Domain.box([-np.inf] * dim, [np.inf] * dim, anchor=np.zeros(dim))
        dual = Domain.box([-np.inf] * dim, [np.inf] * dim, anchor=np.zeros(dim))
        grid_r = 1.0
    else:
        radius = 1.0 / np.sqrt(abs(lam))
        domain = Domain(
            lower=np.full(dim, -np.inf), upper=np.full(dim, np.inf),
            anchor=np.zeros(dim),
            constraints=(lambda t: 1.0 - abs(lam) * np.vecdot(np.real(t), np.real(t)),),
        )
        if lam < 0.0:
            dual = Domain(
                lower=np.full(dim, -np.inf), upper=np.full(dim, np.inf),
                anchor=np.zeros(dim),
                constraints=(lambda e: 1.0 + 4.0 * lam * np.vecdot(np.real(e), np.real(e)),),
            )
        else:
            dual = Domain.box([-np.inf] * dim, [np.inf] * dim, anchor=np.zeros(dim))
        grid_r = 0.85 * radius

    def inverse(e):
        r = e @ e
        return e * (2.0 / (1.0 + np.sqrt(1.0 + 4.0 * lam * r)))

    rng = np.random.default_rng(7)
    if dim == 1:
        grid = tuple(np.linspace(-0.9 * grid_r, 0.9 * grid_r, 9).reshape(-1, 1))
    else:
        raw = rng.standard_normal((9, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        grid = tuple(raw * (grid_r * rng.uniform(0.1, 0.9, size=(9, 1))))

    return Generator(
        lam=lam,
        domain=domain,
        value=lambda t: 0.5 * (t @ t),
        grad=lambda t: np.asarray(t),
        hess=lambda t: np.eye(dim),
        inverse_mirror_closed=inverse,
        dual_domain=dual,
        name=f"quadratic(lam={lam}, dim={dim})",
        grid=grid,
    )


def student_t_lambda(nu: float) -> float:
    return -2.0 / (nu + 1.0)


def pow2(x):
    """x ** 2 element-wise through libm ``pow``.

    Array ``x ** 2`` computes x*x, which differs from ``pow`` in the last bit
    for about one x in a thousand. The Student-t maps square through ``pow``,
    the rounding of the scalar ``x ** 2`` that the estimator's outputs have
    always had, so batched runs reproduce them byte for byte.
    """
    return np.float_power(x, 2)


def student_t_inverse_mirror(e, lam: float) -> np.ndarray:
    """Inverse mirror map of the Student-t potential over the last axis: the
    escort moments (mu, mu^2 + sigma^2) -> natural coordinates; raises
    DomainError if a row's denominator is not negative (outside the dual
    domain)."""
    e = np.asarray(e)
    den = 2.0 * (lam + 1.0) * pow2(e[..., 0]) - (lam + 2.0) * e[..., 1]
    if np.any(np.real(den) >= 0.0):
        raise DomainError(f"eta={e} outside the dual domain (denominator {den})")
    return np.stack([-2.0 * e[..., 0] / den, 1.0 / den], axis=-1)


def student_t_generator(nu: float) -> Generator:
    """Divisive-normalization potential of the location-scale heavy-tail family.

    Natural coordinates t = (t1, t2) live on {t2 < 0, lam*t1^2 - 4*t2 > 0}
    with lam = -2/(nu+1). The additive constant is fixed so that the induced
    density normalizes; only differences of phi matter to the flows.
    """
    if not nu > 0.0:
        raise ValueError("degrees of freedom must be positive")
    lam = student_t_lambda(nu)
    const = math.lgamma(nu / 2.0) + 0.5 * np.log(nu * np.pi) - math.lgamma((nu + 1.0) / 2.0)

    def parts(t):
        a = lam * t[0] ** 2 - 4.0 * t[1]
        b = -2.0 * t[1]
        return a, b

    def value(t):
        a, b = parts(t)
        return 0.5 * np.log(a / (lam + 2.0)) - np.log(b) - np.log(2.0 * b / a) / lam + const

    def grad(t):
        a, b = parts(t)
        d1 = (lam + 2.0) * t[0] / a
        d2 = 2.0 * (lam + 1.0) / (lam * b) - 2.0 * (lam + 2.0) / (lam * a)
        return np.array([d1, d2])

    def hess(t):
        a, b = parts(t)
        h11 = (lam + 2.0) * (a - 2.0 * lam * t[0] ** 2) / a ** 2
        h12 = 4.0 * (lam + 2.0) * t[0] / a ** 2
        h22 = 4.0 * (lam + 1.0) / (lam * b ** 2) - 8.0 * (lam + 2.0) / (lam * a ** 2)
        return np.array([[h11, h12], [h12, h22]])

    # grid assembled from a spread of location/scale pairs
    grid = []
    for mu in (-1.0, 0.0, 1.5):
        for sigma in (0.5, 1.0, 2.0):
            k = -lam * mu ** 2 + sigma ** 2 * (lam + 2.0)
            grid.append(np.array([2.0 * mu / k, -1.0 / k]))

    return Generator(
        lam=lam,
        domain=Domain(
            lower=np.array([-np.inf, -np.inf]), upper=np.array([np.inf, 0.0]),
            anchor=np.array([0.0, -1.0 / (lam + 2.0)]),
            constraints=(lambda t: lam * pow2(np.real(t[..., 0])) - 4.0 * np.real(t[..., 1]),),
        ),
        value=value,
        grad=grad,
        hess=hess,
        inverse_mirror_closed=lambda e: student_t_inverse_mirror(e, lam),
        dual_domain=Domain(
            lower=np.array([-np.inf, -np.inf]), upper=np.array([np.inf, np.inf]),
            anchor=np.array([0.0, 1.0]),
            constraints=(lambda e: np.real(e[..., 1]) - pow2(np.real(e[..., 0])),),
        ),
        name=f"student_t(nu={nu})",
        grid=tuple(grid),
    )


def dirichlet_generator(lam: float, d: int) -> Generator:
    """Potential of the simplex-perturbation family: sum(log(-t_i)) / (lam*(1+d))
    on the negative orthant, for lam < 0."""
    if not lam < 0.0:
        raise ValueError("the simplex-perturbation potential requires lam < 0")
    n = 1 + d

    rng = np.random.default_rng(11)
    grid = tuple(-np.exp(rng.uniform(-1.5, 1.5, size=(7, d))) / abs(lam))

    return Generator(
        lam=lam,
        domain=Domain.box([-np.inf] * d, [0.0] * d, anchor=np.full(d, 1.0 / lam)),
        value=lambda t: np.sum(np.log(-t)) / (lam * n),
        grad=lambda t: 1.0 / (lam * n * t),
        hess=lambda t: np.diag(-1.0 / (lam * n * np.asarray(t) ** 2)),
        inverse_mirror_closed=lambda e: 1.0 / (lam * e),
        dual_domain=Domain.box([0.0] * d, [np.inf] * d, anchor=np.ones(d)),
        name=f"dirichlet(lam={lam}, d={d})",
        grid=grid,
    )


def table_generators() -> list[Generator]:
    """One representative of each scalar reference family."""
    return [
        log_reciprocal_generator(1.0),
        linear_generator(2.0),
        quadratic_generator(-1.0),
    ]
