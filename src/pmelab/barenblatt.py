"""Exact self-similar source-type solutions of u_t = div(|u|^a grad u).

The diffusion term equals Lap(|u|^a u)/(a+1), so the standard source-type
solution of v_s = Lap(v^(a+1)) under the time rescale s = t/(a+1) solves our
equation; ``residual_check`` verifies this numerically rather than trusting
the formula, by the discrete residual on the profile's interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .errors import ConfigError
from .problem import Grid, Problem, State, zero_flux_model


@dataclass(frozen=True)
class BarenblattProfile:
    """Nonnegative compactly supported self-similar profile with free mass constant C."""

    n: int
    alpha: float
    C: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or int(self.n) != self.n:
            raise ConfigError(f"dimension must be a positive integer, got {self.n}")
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"diffusion exponent alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.C < math.inf:
            raise ConfigError(f"mass constant C must be finite and > 0, got {self.C}")

    @property
    def k_exp(self) -> float:
        return self.n / (self.n * self.alpha + 2.0)

    @property
    def b_coef(self) -> float:
        return self.k_exp * self.alpha / (2.0 * (self.alpha + 1.0) * self.n)


def _radius_sq(profile: BarenblattProfile, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim and x.shape[0] == profile.n and (profile.n > 1 or x.ndim > 1):
        return np.sum(x * x, axis=0)
    if profile.n != 1:
        raise ConfigError(
            f"coordinates must have leading axis of length n={profile.n}, "
            f"got shape {x.shape}")
    return x * x


def _rescaled_time(profile: BarenblattProfile, t: float) -> float:
    """s = t/(a+1), the time of the standard source-type solution; t must be
    finite and > 0, and so must s, which a subnormal t can round to 0."""
    s = t / (profile.alpha + 1.0)
    if not 0 < s < math.inf:
        raise ConfigError(f"profile is defined for finite t > 0 with t/(alpha+1) > 0, got t={t}")
    return s


def evaluate(profile: BarenblattProfile, x, t: float):
    """U(x,t) = s^-k (C - b |x|^2 s^(-2k/n))_+^(1/a) with s = t/(a+1)."""
    s = _rescaled_time(profile, t)
    k = profile.k_exp
    core = profile.C - profile.b_coef * _radius_sq(profile, x) * s ** (-2.0 * k / profile.n)
    out = s ** (-k) * np.maximum(core, 0.0) ** (1.0 / profile.alpha)
    return float(out) if np.ndim(out) == 0 else out


def sup_value(profile: BarenblattProfile, t: float) -> float:
    """sup_x U(x,t) = (t/(a+1))^-k C^(1/a); an exact power law in t."""
    s = _rescaled_time(profile, t)
    return s ** (-profile.k_exp) * profile.C ** (1.0 / profile.alpha)


def support_radius(profile: BarenblattProfile, t: float) -> float:
    s = _rescaled_time(profile, t)
    return float(np.sqrt(profile.C / profile.b_coef)) * s ** (profile.k_exp / profile.n)


def mass(profile: BarenblattProfile) -> float:
    """L^1 norm at every t > 0, time-independent by self-similarity: the integral
    of (C - b|y|^2)_+^(1/a) over R^n, which is
    C^(1/a + n/2) b^(-n/2) pi^(n/2) Gamma(1/a + 1) / Gamma(1/a + 1 + n/2)."""
    p, h = 1.0 / profile.alpha, profile.n / 2.0
    return (profile.C ** (p + h) * profile.b_coef ** (-h) * math.pi ** h
            * math.exp(math.lgamma(p + 1.0) - math.lgamma(p + 1.0 + h)))


def residual_check(profile: BarenblattProfile, grid: Grid, t: float) -> float:
    """Interior discrete residual ||(U(t+dt)-U(t))/dt - D_h[U(t)]||_L1 with
    dt = dx^2, where D_h is the solver's space operator with zero advection,
    summed over {U > 0.01 sup U} only, since the free boundary dominates the
    error elsewhere.
    """
    if grid.n != profile.n:
        raise ConfigError(f"grid dimension {grid.n} != profile dimension {profile.n}")
    if support_radius(profile, t) >= grid.L:
        raise ConfigError(
            f"support radius {support_radius(profile, t):.3g} reaches the grid "
            f"boundary L={grid.L}")
    dt = grid.dx ** 2
    centers = grid.cell_centers()
    U1 = evaluate(profile, centers, t)
    U2 = evaluate(profile, centers, t + dt)
    p = Problem(grid=grid, alpha=profile.alpha, p0=1.0, flux=zero_flux_model(grid.n),
                u0=lambda x: evaluate(profile, x, t))
    state = State(values=U1, time=0.0, grid=grid)
    plan = solver.plan(state, p)
    # prepares the plan's terms; the residual steps by its own dt, not the stable one
    solver.stable_dt(state, p, solver.SchemeConfig(t_end=dt), plan)
    Dh = (solver.step(state, p, dt, plan).values - U1) / dt
    resid = np.abs((U2 - U1) / dt - Dh)
    return float(np.sum(resid[U1 > 0.01 * float(np.max(U1))])) * grid.cell_volume
