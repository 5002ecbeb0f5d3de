"""Conservative monotone explicit scheme for u_t + div f(x,t,u) = div(|u|^a grad u).

Advection uses a local Lax-Friedrichs interface flux; diffusion is the second
difference of the Kirchhoff function G(u) = |u|^a u/(a+1), which keeps the
update exactly conservative and smooth through the degeneracy at u = 0.

The update is monotone when dt (sum_ax lam_ax/dx + 2n max|u|^a/dx^2) <= 1,
lam_ax being max|df_du| over the interface states of axis ax (Evje & Karlsen,
SIAM J. Numer. Anal. 37, 2000); `stable_dt` returns cfl_safety times that
bound. To get lam_ax it evaluates the flux, so it prepares the whole
dt-independent part of the update and returns those terms beside dt;
`advance` hands them to `step`.

A state may stack B solutions (branches) along a leading axis, as the
comparison sandwich does. They are prepared and stepped in the same calls,
every value as for its branch alone, and share one dt: stable_dt takes the
largest of the branches' rates, which gives bitwise the smallest of their own
dt. The flux evaluators then get u with that branch axis and x with a
singleton axis in its place, so they must broadcast x against u.

Each axis is computed along axis 0 of swapaxes views (none for axis 0 of an
unstacked state), with the interface coordinates and scratch arrays of one
cache per grid, axis, value shape and thread (`_axis`). The catalog's zero flux
makes no flux calls: when f and df_du are both `problem.zero_evaluator` (by
identity, never by name) a step is its diffusion half alone, with lam_ax = 0,
and its cache holds no coordinates.
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
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    cfl_safety: float = 0.9
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and > 0, got {self.t_end}")
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


def stable_dt(state: State, problem: Problem, config: SchemeConfig) -> tuple[float, list]:
    """(dt, terms): cfl / (sum_ax lam_ax/dx + 2n max|u|^a/dx^2), lam_ax = max|df_du|
    over the interface states of axis ax, and the dt-independent terms of the update
    prepared on the way (see `_prepare`), for `step(state, problem, dt, terms)`.
    A stacked state gets the dt of its largest branch rate: cfl / (rate + guard)
    is monotone in the rate, so that is bitwise the smallest branch dt."""
    rate, terms = _prepare(state, problem)
    branch = None
    if isinstance(rate, np.ndarray):
        branch = int(rate.argmax())
        rate = float(rate[branch])
    dt = config.cfl_safety / (rate + _DEN_GUARD)
    if not math.isfinite(dt) or dt <= 0.0:
        raise RunError(f"stable dt underflowed at t={state.time} (dt={dt})", branch=branch)
    return dt, terms


def _first(v: np.ndarray, k: int) -> np.ndarray:
    """v with its axis k first (swapaxes, which swaps back as well), or v itself for k = 0."""
    return v.swapaxes(0, k) if k else v


def _peak(v: np.ndarray, k: int, b: int):
    """max of v, whose axis k is first: a float, or for a stacked state (b = 1)
    the array of per-branch maxima."""
    if not b:
        return float(v.max())
    v = _first(v, k)
    return v.reshape(len(v), -1).max(1)


@functools.lru_cache(maxsize=8)
def _axis(grid: Grid, ax: int, shape: tuple[int, ...], advect: bool,
          thread: int) -> tuple[np.ndarray | None, ...]:
    """The arrays of `_prepare` for axis ax of values of this shape (grid.shape
    or (B,) + grid.shape), each a view with axis ax first: scratch for the padded
    G; then, for a flux that advects (None otherwise), the read-only coordinates
    of the N+1 interfaces normal to ax, twice over, at cell centers along the
    other axes (ax first after the component axis, and a singleton axis for the
    branch axis, so that x broadcasts against u), and scratch for the joined
    interface states and |df_du| on them, and the LLF sum, lambda and state
    difference at the N+1 interfaces. Keyed by thread ident too, so live threads
    never share scratch; reusing it keeps 2-D steps from returning heap pages to
    the system and faulting them back in."""
    N, b = grid.N, len(shape) - grid.n
    k = ax + b

    def scratch(m: int) -> np.ndarray:
        return _first(np.empty(shape[:k] + (m,) + shape[k + 1:]), k)

    if not advect:
        return (scratch(N + 2),) + (None,) * 6
    axes = [np.tile(grid.axis_interfaces(), 2) if d == ax else grid.axis_centers()
            for d in range(grid.n)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"))
    x.setflags(write=False)
    x = x.reshape((grid.n,) + (1,) * b + x.shape[1:])
    return (scratch(N + 2), x.swapaxes(1, k + 1)) + tuple(
        scratch(m) for m in (2 * N + 2, 2 * N + 2, N + 1, N + 1, N + 1))


def _prepare(state: State, problem: Problem) -> tuple[float | np.ndarray, list]:
    """The dt-independent half of a step: the rate sum_ax lam_ax/dx + 2n max|u|^a/dx^2
    and, per axis, the LLF flux difference (None for the zero flux, whose +0.0
    leaves every value as it is) and the second difference of G(u) = |u|^a u/(a+1).
    Along axis ax the left then the right states of the N+1 interfaces are one
    array, so f and df_du are called once each; u and G get the same ghost cells
    (an edge copy under zero_flux, 0 under dirichlet_zero). Every axis is written
    along axis 0 of swapaxes views, and its terms go back as views too. A stacked
    state (b = 1 leading branch axis) is computed in the same calls, every value
    as it would be for its branch alone, and its rate is one float per branch."""
    values, grid, t = state.values, state.grid, state.time
    m, b = grid.N + 1, values.ndim - grid.n
    dx, alpha, flux = grid.dx, problem.alpha, problem.flux
    advect = not (flux.f is zero_evaluator and flux.df_du is zero_evaluator)
    a = np.abs(values) ** alpha
    G = a * values / (alpha + 1.0)
    lam_adv = 0.0
    terms = []
    for ax in range(grid.n):
        k = ax + b
        Gp, x, w, absdf, fsum, lam, du = _axis(grid, ax, values.shape, advect,
                                               threading.get_ident())
        u, g = _first(values, k), _first(G, k)
        ulo, uhi, glo, ghi = ((u[:1], u[-1:], g[:1], g[-1:])
                              if problem.boundary_policy == "zero_flux"
                              else (np.zeros_like(u[:1]),) * 4)
        np.concatenate((glo, g, ghi), out=Gp)
        dF = None
        if advect:
            np.concatenate((ulo, u, u, uhi), out=w)
            # 0.5 (f_l + f_r) - 0.5 max(|df_l|, |df_r|) (u_r - u_l)
            f = np.asarray(flux.f(x, t, w), dtype=float)[ax]
            np.add(f[:m], f[m:], out=fsum)
            fsum *= 0.5
            np.abs(np.asarray(flux.df_du(x, t, w), dtype=float)[ax], out=absdf)
            np.maximum(absdf[:m], absdf[m:], out=lam)
            lam_ax = _peak(lam, k, b)
            if not math.isfinite(lam_ax if not b else lam_ax.max()):
                raise RunError(f"non-finite flux derivative along axis {ax} at t={t}",
                               branch=int(np.isfinite(lam_ax).argmin()) if b else None)
            lam_adv += lam_ax / dx
            lam *= 0.5
            lam *= np.subtract(w[m:], w[:m], out=du)
            fsum -= lam
            dF = _first(fsum[1:] - fsum[:-1], k)
        lapG = Gp[2:] - 2.0 * Gp[1:-1]
        lapG += Gp[:-2]
        terms.append((dF, _first(lapG, k)))
    return lam_adv + 2.0 * grid.n * _peak(a, 0, b) / dx ** 2, terms


def step(state: State, problem: Problem, dt: float, terms: list | None = None) -> State:
    """One conservative explicit update u - dt/dx dF + dt/dx^2 lapG per axis; dt
    must respect the stable_dt bound. Applies the terms that stable_dt returned
    for this state and problem, or prepares them itself when given none."""
    if terms is None:
        terms = _prepare(state, problem)[1]
    dx = state.grid.dx
    new = state.values
    for dF, lapG in terms:
        new = (new if dF is None else new - (dt / dx) * dF) + (dt / dx ** 2) * lapG
    return State(values=new, time=state.time + dt, grid=state.grid)


def advance(state: State, problem: Problem, config: SchemeConfig,
            names: tuple[str, ...] = ()) -> Iterator[tuple[State, float | None]]:
    """Step `state` through the landing times, config's snapshot times and t_end
    in increasing order, each step by its stable_dt clipped to the next landing
    time; the branches of a stacked state share that dt.

    Yields ``(state, dt)`` after every step, and ``(state, None)`` with the
    time set exactly to the landing time each time one is reached. `names` label
    the branches, by leading index, in the error raised when preparing or taking
    a step fails."""
    steps = 0
    t_tol = 1e-12 * max(1.0, config.t_end)
    for target in sorted(set(config.snapshot_times) | {config.t_end}):
        while state.time < target - t_tol:
            if steps >= MAX_STEPS:
                raise RunError(
                    f"exceeded {MAX_STEPS} steps at t={state.time} (target {target})")
            try:
                dt, terms = stable_dt(state, problem, config)
                dt = min(dt, target - state.time)
                state = step(state, problem, dt, terms)
            except RunError as exc:
                named = names and exc.branch is not None
                where = f", {names[exc.branch]} branch" if named else ""
                raise RunError(f"step {steps + 1}{where}: {exc}") from exc
            del terms  # freed before the next prepare
            steps += 1
            yield state, dt
        # land exactly on the target for downstream time arithmetic
        state = State(values=state.values, time=target, grid=state.grid)
        yield state, None


def run(problem: Problem, config: SchemeConfig) -> RunResult:
    """Integrate from t=0 to t_end with adaptive dt, landing exactly on
    requested snapshot times; audits mass and boundary-layer contamination."""
    state = sample_initial(problem)
    volume = state.grid.cell_volume
    edge = np.ones(state.grid.shape, dtype=bool)
    edge[(slice(1, -1),) * state.grid.n] = False
    edge = np.flatnonzero(edge)  # flat indices of the cells that touch the boundary

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

    for state, dt in advance(state, problem, config):
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
