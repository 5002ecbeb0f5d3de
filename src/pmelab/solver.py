"""Conservative monotone explicit scheme for u_t + div f(x,t,u) = div(|u|^a grad u).

Advection uses a local Lax-Friedrichs interface flux; diffusion is the second
difference of the Kirchhoff function G(u) = |u|^a u/(a+1), which keeps the
update exactly conservative and smooth through the degeneracy at u = 0.

The update is monotone when dt (sum_ax lam_ax/dx + 2n max|u|^a/dx^2) <= 1,
lam_ax being max|df_du| over the interface states of axis ax (Evje & Karlsen,
SIAM J. Numer. Anal. 37, 2000); `stable_dt` returns cfl_safety times that
bound. To get lam_ax it evaluates the flux, so it prepares the whole
dt-independent part of the update and leaves it on the state it was given, for
the `step` that follows on that state and problem. The scratch arrays of the
preparation are cached per grid shape, axis and thread. The catalog's zero flux
makes no flux calls: when f and df_du are both `problem.zero_evaluator` (by
identity, never by name) a step is its diffusion half alone, with lam_ax = 0.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, RunError
from .problem import Grid, Problem, State, sample_initial, zero_evaluator

_DEN_GUARD = 1e-300
# a run is flagged once its boundary cells hold more than this share of the initial mass
BOUNDARY_MASS_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    cfl_safety: float = 0.9
    max_steps: int = 2_000_000
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        times = tuple(sorted(float(t) for t in self.snapshot_times))
        if not all(0 <= t <= self.t_end for t in times):
            raise ConfigError(f"snapshot times {times} outside [0, {self.t_end}]")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class RunResult:
    snapshots: list[State]
    step_count: int
    min_dt: float
    max_dt: float
    boundary_mass_max: float
    mass_series: list[tuple[float, float]]
    boundary_flagged: bool


def kirchhoff(u, alpha: float):
    """G(u) = |u|^a u/(a+1); odd, strictly increasing, G'(u) = |u|^a."""
    if alpha <= 0:
        raise ConfigError(f"diffusion exponent must be > 0, got {alpha}")
    u = np.asarray(u, dtype=float)
    out = np.abs(u) ** alpha * u / (alpha + 1.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=8)
def _coords(grid: Grid, ax: int) -> np.ndarray:
    """Read-only coordinates of the N+1 interfaces normal to axis ax, twice over
    along ax (see `_prepare`), at cell centers along the other axes."""
    axes = [np.tile(grid.axis_interfaces(), 2) if b == ax else grid.axis_centers()
            for b in range(grid.n)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"))
    coords.setflags(write=False)
    return coords


def stable_dt(state: State, problem: Problem, config: SchemeConfig) -> float:
    """Largest monotone dt times cfl: cfl / (sum_ax lam_ax/dx + 2n max|u|^a/dx^2),
    with lam_ax = max|df_du| over the interface states of axis ax. Prepares the
    update on the way (see `_prepare`) and leaves it for `step` on the state, as
    its `_prepared` attribute: (problem, terms)."""
    rate, terms = _prepare(state, problem)
    dt = config.cfl_safety / (rate + _DEN_GUARD)
    if not math.isfinite(dt) or dt <= 0.0:
        raise RunError(f"stable dt underflowed at t={state.time} (dt={dt})")
    object.__setattr__(state, "_prepared", (problem, terms))
    return dt


@functools.lru_cache(maxsize=8)
def _boundary_cells(grid: Grid) -> np.ndarray:
    """Flat indices of the cells that touch the domain boundary."""
    mask = np.ones(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.n] = False
    return np.flatnonzero(mask)


@functools.lru_cache(maxsize=8)
def _cuts(ax: int, m: int) -> tuple[tuple, ...]:
    """Index tuples along axis ax: [:1], [-1:], [:m], [m:], [1:], [:-1], [2:], [1:-1], [:-2]."""
    return tuple((slice(None),) * ax + (slice(a, b),) for a, b in (
        (None, 1), (-1, None), (None, m), (m, None), (1, None), (None, -1),
        (2, None), (1, -1), (None, -2)))


@functools.lru_cache(maxsize=8)
def _work(shape: tuple[int, ...], ax: int, thread: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for axis ax of `_prepare` on a grid of `shape`, for the
    thread of ident `thread` (live threads never share one): the joined
    interface states and |df_du| on them, the padded G, and the LLF sum, lambda
    and state difference at the N+1 interfaces. Reusing them keeps 2-D steps
    from returning heap pages to the system and faulting them back in."""
    N = shape[ax]
    return tuple(np.empty(shape[:ax] + (m,) + shape[ax + 1:])
                 for m in (2 * N + 2, 2 * N + 2, N + 2, N + 1, N + 1, N + 1))


def _prepare(state: State, problem: Problem) -> tuple[float, list]:
    """The dt-independent half of a step: the rate sum_ax lam_ax/dx + 2n max|u|^a/dx^2
    and, per axis, the LLF flux difference (None for the zero flux, whose +0.0
    leaves every value as it is) and the second difference of G = kirchhoff(u).
    Along axis ax the left then the right states of the N+1 interfaces are one
    array, so f and df_du are called once each; u and G get the same ghost cells
    (an edge copy under zero_flux, 0 under dirichlet_zero)."""
    grid, u, t = state.grid, state.values, state.time
    dx, alpha, flux = grid.dx, problem.alpha, problem.flux
    advect = not (flux.f is zero_evaluator and flux.df_du is zero_evaluator)
    a = np.abs(u) ** alpha
    G = a * u / (alpha + 1.0)
    lam_adv = 0.0
    terms = []
    for ax in range(grid.n):
        first, last, left, right, east, west, ip1, i0, im1 = _cuts(ax, grid.N + 1)
        w, absdf, Gp, fsum, lam, du = _work(grid.shape, ax, threading.get_ident())
        ulo, uhi, Glo, Ghi = ((u[first], u[last], G[first], G[last])
                              if problem.boundary_policy == "zero_flux"
                              else (np.zeros_like(u[first]),) * 4)
        np.concatenate((Glo, G, Ghi), axis=ax, out=Gp)
        if advect:
            np.concatenate((ulo, u, u, uhi), axis=ax, out=w)
            x = _coords(grid, ax)
            # 0.5 (f_l + f_r) - 0.5 max(|df_l|, |df_r|) (u_r - u_l)
            f = np.asarray(flux.f(x, t, w), dtype=float)[ax]
            np.add(f[left], f[right], out=fsum)
            fsum *= 0.5
            np.abs(np.asarray(flux.df_du(x, t, w), dtype=float)[ax], out=absdf)
            np.maximum(absdf[left], absdf[right], out=lam)
            lam_ax = float(lam.max())
            if not math.isfinite(lam_ax):
                raise RunError(f"non-finite flux derivative along axis {ax} at t={t}")
            lam_adv += lam_ax / dx
            lam *= 0.5
            lam *= np.subtract(w[right], w[left], out=du)
            fsum -= lam
        lapG = Gp[ip1] - 2.0 * Gp[i0]
        lapG += Gp[im1]
        terms.append((fsum[east] - fsum[west] if advect else None, lapG))
    return lam_adv + 2.0 * grid.n * float(a.max()) / dx ** 2, terms


def step(state: State, problem: Problem, dt: float) -> State:
    """One conservative explicit update u - dt/dx dF + dt/dx^2 lapG per axis; dt
    must respect the stable_dt bound. Uses the terms that stable_dt left on this
    state for this very problem, else prepares them itself."""
    entry = vars(state).pop("_prepared", None)
    terms = (entry[1] if entry is not None and entry[0] is problem
             else _prepare(state, problem)[1])
    dx = state.grid.dx
    new = state.values
    for dF, lapG in terms:
        new = (new if dF is None else new - (dt / dx) * dF) + (dt / dx ** 2) * lapG
    return State(values=new, time=state.time + dt, grid=state.grid)


def advance(states: tuple[State, ...], problem: Problem, config: SchemeConfig,
            targets, names: tuple[str, ...] = (),
            ) -> Iterator[tuple[tuple[State, ...], float | None]]:
    """Step `states` in lockstep through the sorted `targets` with one shared dt,
    the minimum of their stable_dt clipped to the next target.

    Yields ``(states, dt)`` after every step, and ``(states, None)`` with the
    time set exactly to the target each time one is reached. `names` label the
    states in the error raised when preparing or taking a step fails."""
    steps = 0
    t_tol = 1e-12 * max(1.0, config.t_end)
    for target in targets:
        while states[0].time < target - t_tol:
            if steps >= config.max_steps:
                raise RunError(
                    f"exceeded {config.max_steps} steps at t={states[0].time} "
                    f"(target {target})")
            try:
                dts = []
                for k, s in enumerate(states):
                    dts.append(stable_dt(s, problem, config))
                dt = min(min(dts), target - states[0].time)
                stepped = []
                for k, s in enumerate(states):
                    stepped.append(step(s, problem, dt))
            except RunError as exc:
                where = f", {names[k]} branch" if names else ""
                raise RunError(f"step {steps + 1}{where}: {exc}") from exc
            states = tuple(stepped)
            steps += 1
            yield states, dt
        # land exactly on the target for downstream time arithmetic
        states = tuple(State(values=s.values, time=target, grid=s.grid) for s in states)
        yield states, None


def run(problem: Problem, config: SchemeConfig) -> RunResult:
    """Integrate from t=0 to t_end with adaptive dt, landing exactly on
    requested snapshot times; audits mass and boundary-layer contamination."""
    state = sample_initial(problem)
    volume, edge = state.grid.cell_volume, _boundary_cells(state.grid)

    def audit(values) -> tuple[float, float]:
        """L1 mass and boundary-cell mass, both from one |u|."""
        a = np.abs(values)
        return float(a.sum()) * volume, float(a.take(edge).sum()) * volume

    mass0, boundary0 = audit(state.values)
    mass_series = [(0.0, mass0)]
    boundary_scale = mass0 if mass0 > 0 else 1.0
    boundary_max = boundary0 / boundary_scale
    snapshots: list[State] = []
    dts: list[float] = []

    targets = sorted(set(config.snapshot_times) | {config.t_end})
    for (state,), dt in advance((state,), problem, config, targets):
        if dt is None:
            snapshots.append(state)
            continue
        dts.append(dt)
        mass, boundary = audit(state.values)
        mass_series.append((state.time, mass))
        boundary_max = max(boundary_max, boundary / boundary_scale)

    return RunResult(snapshots=snapshots, step_count=len(dts),
                     min_dt=float(min(dts, default=0.0)),
                     max_dt=float(max(dts, default=0.0)),
                     boundary_mass_max=boundary_max,
                     mass_series=mass_series,
                     boundary_flagged=boundary_max > BOUNDARY_MASS_THRESHOLD)
