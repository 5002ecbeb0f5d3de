"""Conservative monotone explicit scheme for u_t + div f(x,t,u) = div(|u|^a grad u).

Advection uses the Engquist-Osher interface flux F = f+(u_l) + f-(u_r) of the
flux's `problem.FluxSplit`: f = a(x) g(u), with f+ nondecreasing and f-
nonincreasing in u (Engquist & Osher, Math. Comp. 36, 1981). Diffusion is the
second difference of the Kirchhoff function G(u) = |u|^a u/(a+1), which keeps
the update exactly conservative and smooth through the degeneracy at u = 0.

The step size obeys dt (sum_ax lam_ax/dx + 2n max|u|^a/dx^2) <= 1, lam_ax being
the largest reach_i |g'(u_i)| over the cells along axis ax (Evje & Karlsen,
SIAM J. Numer. Anal. 37, 2000), where reach_i = max(a+_r - a-_l, a+_l - a-_r),
from a at the cell's left and right faces, is the rate at which one half of g
leaves the cell through both faces. Under Engquist-Osher dF/du_l and -dF/du_r
are >= 0, and cell i's diagonal entry loses at most dt/dx reach_i |g'(u_i)| per
axis, so this is the monotone bound (Crandall & Majda, Math. Comp. 34, 1980)
for every split: every entry of the one-step Jacobian is >= 0. Where a keeps
its sign across a cell, or changes it at a face, reach_i is the larger |a| of
the two faces, so lam_ax is the largest |a| max(|g'(u_l)|, |g'(u_r)|) over the
interfaces; where a changes sign inside the cell it is |a_l| + |a_r|.
`stable_dt` returns cfl_safety times that bound. To get lam_ax it evaluates g,
so it prepares the whole dt-independent part of the update into the step
plan, for `step`; f and df_du are never called here.

A state may stack B solutions (branches) along a leading axis, as the
comparison sandwich does. They are prepared and stepped in the same calls,
every value as for its branch alone, and share one dt: stable_dt takes the
largest of the branches' rates, which gives bitwise the smallest of their own
dt. g gets u with that branch axis, and a(x) a singleton axis in its place.

Stepping takes a plan (`plan`), built once per run and passed to `advance`:
the arrays of `_axis` for each axis (a+ and a- at the interfaces, the reach
at the cells, the padded u and G with the slice views each step takes, the
arrays the terms dF and lapG are written to), the grid constants and one
buffer, which holds |u|^a and then each scaled term. Every axis is computed
along axis 0 of its arrays. For an unstacked state they are C-contiguous with
that axis first, so along axis 1 of a 2-D state the copies into the padded u
and G are the step's one transpose and the flux arithmetic runs on whole rows
(on the strided halves of the value layout it ran about 2x slower); for a
stacked state they are swapaxes views of arrays laid out as the values, which
measured faster on the sandwich's (3, N) states. G is computed straight into
the middle of axis 0's padded G, and g is evaluated once per step and axis on
the N+2 padded cells. Along each axis u and G get the same ghost cells: an
edge copy under zero_flux, 0 under dirichlet_zero, set once per plan.
`stable_dt` writes the plan's terms and `step` reads them, so they hold until
the plan's next `stable_dt`. No module keeps a cache, and the scratch reused by
every step keeps 2-D steps from faulting heap pages in again and again.
A step does no identity arithmetic: no |u|^a pass at alpha = 1, and for a
reach that is one float c, lam_ax is c max|g'|, bit for bit max(c |g'|) as
rounding is monotone. The catalog's zero flux makes no g calls: when the
flux's split is `problem.ZERO_SPLIT` (by identity, never by name or value) a
step is its diffusion half alone, with lam_ax = 0, and its plan holds no
coefficients.

In conservation form mass leaves only through the walls (Crandall & Majda),
so the plan of an unstacked state keeps, per axis, the [low, high] mass that
left through its two walls, and `step` adds dt dx^(n-1) times the outward
wall fluxes: -F and F at the first and last interfaces, and -(G_ghost -
G_edge)/dx at each wall. An edge-copy ghost makes the diffusive one exactly 0,
so under zero_flux an axis without advection sums nothing. Then
M(T) - M(0) + the total outflow is 0 to round-off.

A step's new values become the stepped `State` as they are, read-only, with
no copy and no finiteness scan. A blow-up is caught where the next step takes
max|u|^a, NaN or inf exactly when some value is (or when |u|^a overflows),
before any other arithmetic, or after the last step before a landing time by
a finiteness check at the landing, whose state shares the last stepped
state's array. `advance` yields a stepped state only once one of these checks
has passed, and names the step that made a bad value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, RunError
from .problem import ZERO_SPLIT, Grid, Problem, State, _Stepped, sample_initial

_DEN_GUARD = 1e-300
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
    """wall_outflow holds, per axis, the [low, high] mass that left the box
    through that axis' two walls over the run."""

    snapshots: list[State]
    step_count: int
    min_dt: float
    max_dt: float
    wall_outflow: list[list[float]]


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


def plan(state: State, problem: Problem) -> tuple:
    """A step plan for states of this one's grid and value shape under this
    problem's alpha, boundary policy and split's a (its g is read at every
    prepare, never kept): ((dx, dx^2, buf), (b, 2n, power, alpha + 1, edge, G,
    axes), (outflow, walls), terms). power is None at alpha = 1, edge is the
    zero_flux policy, G the values' G(u) and axes the `_axis` of each axis;
    terms are their (dF, lapG) in the value layout, dF None for the zero flux.
    outflow is the per-axis [low, high] wall outflow of a run with this plan,
    None for a stacked state, and walls the (F or None, Gp or None, face area
    or None in 1-D, outflow[ax]) of each axis that sums it."""
    grid, shape, split = state.grid, state.values.shape, problem.flux.split
    b, edge, dx = len(shape) - grid.n, problem.boundary_policy == "zero_flux", grid.dx
    a = None if split is ZERO_SPLIT else split.a
    axes = tuple(_axis(grid, ax, shape, a, edge) for ax in range(grid.n))
    terms = tuple((None if adv is None else _first(adv[-1], k), _first(lapG, k))
                  for k, _, _, _, _, lapG, adv in axes)
    power = None if problem.alpha == 1 else problem.alpha
    outflow = None if b else [[0.0, 0.0] for _ in axes]
    face = None if grid.n == 1 else dx ** (grid.n - 1)
    walls = () if b else tuple((None if adv is None else adv[5], None if edge else Gp, face,
                                outflow[k]) for k, Gp, *_, adv in axes if adv or not edge)
    return ((dx, dx ** 2, np.empty(shape)),
            (b, 2.0 * grid.n, power, problem.alpha + 1.0, edge, _first(axes[0][2], b), axes),
            (outflow, walls), terms)


def _axis(grid: Grid, ax: int, shape: tuple[int, ...], a, edge: bool) -> tuple:
    """The arrays of `stable_dt` for axis ax of values of this shape (grid.shape
    or (B,) + grid.shape), each with axis ax first: (k, Gp, Gp[1:-1], Gp[2:],
    Gp[:-2], lapG, adv), k = ax + b, Gp the padded G and lapG at the N cells.
    adv is None for a flux that does not advect, else (Up, Up[1:-1], gbuf,
    halves, reach, F, F[1:], F[:-1], tmp, tmp[:-1], dF): the padded u, three
    arrays for g on it, a+ and a- of the split's a(x) normal to ax at the
    interfaces, each with whether it takes g's falling half on the left, the
    reach at the cells, two arrays at the N+1 interfaces and dF. The
    coefficients are read-only and broadcast against the values; one with one
    value everywhere is that float."""
    N, b = grid.N, len(shape) - grid.n
    k = ax + b

    def scratch(m: int) -> np.ndarray:
        if b:
            return _first(np.empty(shape[:k] + (m,) + shape[k + 1:]), k)
        return np.empty((m,) + shape[:k] + shape[k + 1:])

    def padded() -> np.ndarray:
        p = scratch(N + 2)
        if not edge:
            p[0] = p[-1] = 0.0
        return p

    Gp = padded()
    lap = (k, Gp, Gp[1:-1], Gp[2:], Gp[:-2], scratch(N))
    if a is None:
        return lap + (None,)
    axes = [grid.axis_interfaces() if d == ax else grid.axis_centers()
            for d in range(grid.n)]
    c = np.asarray(a(np.stack(np.meshgrid(*axes, indexing="ij"))), dtype=float)[ax]
    c = np.ascontiguousarray(_first(c.reshape((1,) * b + c.shape), k))
    plus, minus = np.maximum(c, 0.0), np.minimum(c, 0.0)
    reach = np.maximum(plus[1:] - minus[:-1], plus[:-1] - minus[1:])
    plus, minus, reach = map(_uniform, (plus, minus, reach))
    # each half of the flux with its coefficient and whether it takes g_down
    # on the left; one that a zeroes everywhere is left out, but never both
    halves = [(plus, False), (minus, True)]
    halves = [h for h in halves if np.any(h[0])] or halves[:1]
    Up, F, tmp = padded(), scratch(N + 1), scratch(N + 1)
    return lap + ((Up, Up[1:-1], (scratch(N + 2), scratch(N + 2), scratch(N + 2)),
                   halves, reach, F, F[1:], F[:-1], tmp, tmp[:-1], scratch(N)),)


def _uniform(v: np.ndarray) -> float | np.ndarray:
    """v as a float where all its values are equal (numpy broadcasts either),
    else v made read-only."""
    if np.all(v == v.flat[0]):
        return float(v.flat[0])
    v.setflags(write=False)
    return v


def _half(coef, left, right, out: np.ndarray) -> np.ndarray:
    """coef (left[:-1] + right[1:]) into out, a None side being 0: one half of
    the Engquist-Osher sum at the N+1 interfaces, from values on the N+2 cells."""
    if left is None:
        return np.multiply(coef, right[1:], out=out)
    if right is None:
        return np.multiply(coef, left[:-1], out=out)
    np.add(left[:-1], right[1:], out=out)
    out *= coef
    return out


def stable_dt(state: State, problem: Problem, config: SchemeConfig, plan: tuple) -> float:
    """cfl / (sum_ax lam_ax/dx + 2n max|u|^a/dx^2), lam_ax being the largest
    reach |g'| over the cells along axis ax; for a stacked state, the dt of its
    largest branch rate, which is bitwise the smallest branch dt. On the way it
    prepares `plan`'s terms for `step(state, problem, dt, plan)`: per axis the
    Engquist-Osher flux difference and the second difference of G(u). A
    non-finite value raises as in `State`, found by max|u|^a before any other
    arithmetic on u."""
    values = state.values
    (dx, dx2, buf), (b, two_n, power, alpha1, edge, G, axes), _, _ = plan
    a = np.abs(values, out=buf)
    if power is not None:
        a **= power
    peak = _peak(a, 0, b)
    if not math.isfinite(peak if not b else peak.max()):
        State(values=values, time=state.time, grid=state.grid)  # raises: a value is not finite
    np.multiply(a, values, out=G)
    G /= alpha1
    g = problem.flux.split.g
    rate = 0.0
    for k, Gp, Gmid, Ghi, Glo, lapG, adv in axes:
        if k != b:  # axis 0's padded G already holds G
            Gmid[...] = _first(G, k)
        if edge:
            Gp[0], Gp[-1] = Gp[1], Gp[-2]
        if adv is not None:
            Up, Umid, gbuf, halves, reach, F, Fhi, Flo, tmp, tmp_lo, dF = adv
            Umid[...] = _first(values, k)
            if edge:
                Up[0], Up[-1] = Up[1], Up[-2]
            up, down, slope = g(Up, gbuf)
            for i, (c, flip) in enumerate(halves):
                left, right = (down, up) if flip else (up, down)
                if i:
                    F += _half(c, left, right, tmp)
                else:
                    _half(c, left, right, F)
            if isinstance(reach, float):  # max(c s_i) is c max(s_i) bit for bit, c >= 0
                lam_ax = reach * _peak(slope[1:-1], k, b)
            else:
                lam_ax = _peak(np.multiply(reach, slope[1:-1], out=tmp_lo), k, b)
            if not math.isfinite(lam_ax if not b else lam_ax.max()):
                raise RunError(f"non-finite flux derivative along axis {k - b} at t={state.time}",
                               branch=int(np.isfinite(lam_ax).argmin()) if b else None)
            rate += lam_ax / dx
            np.subtract(Fhi, Flo, out=dF)
        np.multiply(2.0, Gmid, out=lapG)
        np.subtract(Ghi, lapG, out=lapG)
        lapG += Glo
    rate += two_n * peak / dx2
    branch = None
    if b:
        branch = int(rate.argmax())
        rate = float(rate[branch])
    dt = config.cfl_safety / (rate + _DEN_GUARD)
    if not math.isfinite(dt) or dt <= 0.0:
        raise RunError(f"stable dt underflowed at t={state.time} (dt={dt})", branch=branch)
    return dt


def step(state: State, problem: Problem, dt: float, plan: tuple) -> State:
    """One conservative explicit update u - dt/dx dF + dt/dx^2 lapG per axis with
    the terms that `stable_dt` last prepared into `plan` from this state; dt
    must respect its bound. Writes neither the state nor the terms: each scaled
    term goes through the plan's buffer into the one new array, returned
    read-only and unchecked; `advance` yields the state once it has been checked.
    Adds the mass that leaves through the walls to the plan's outflow."""
    (dx, dx2, buf), _, (_, walls), terms = plan
    u = state.values
    new = np.empty_like(u)
    for dF, lapG in terms:
        if dF is not None:
            u = np.subtract(u, np.multiply(dt / dx, dF, out=buf), out=new)
        u = np.add(u, np.multiply(dt / dx2, lapG, out=buf), out=new)
    for F, Gp, face, total in walls:  # the outward fluxes at the low and high wall
        low, high = (0.0, 0.0) if F is None else (-F[0], F[-1])
        if Gp is not None:
            low, high = low + (Gp[1] - Gp[0]) / dx, high + (Gp[-2] - Gp[-1]) / dx
        if face is not None:  # a wall of n > 1 dimensions is a row of cell faces
            low, high = face * low.sum(), face * high.sum()
        total[0] += dt * float(low)
        total[1] += dt * float(high)
    new.setflags(write=False)
    return _Stepped(values=new, time=state.time + dt, grid=state.grid)


def advance(state: State, problem: Problem, config: SchemeConfig, work: tuple,
            names: tuple[str, ...] = ()) -> Iterator[tuple[State, float | None]]:
    """Step `state` with `work`, a `plan` for it, through the landing times,
    config's snapshot times and t_end in increasing order, each step by its
    stable_dt clipped to the next landing time; the branches of a stacked
    state share that dt.

    Yields ``(state, dt)`` for every step, and ``(state, None)`` with the
    time set exactly to the landing time each time one is reached. An error
    raised when preparing a step names the step, and `names` label the
    branches, by leading index. A non-finite value is found when the next step
    prepares, or at the landing, and is named by the step that made it;
    a stepped state is yielded only after that check has passed."""
    steps = 0
    t_tol = 1e-12 * max(1.0, config.t_end)
    pending = ()  # the last (stepped state, dt), until a check has passed on it

    def label(exc: RunError, made: int) -> str:
        where = f", {names[exc.branch]} branch" if names and exc.branch is not None else ""
        return f"step {made}{where}: {exc}"

    for target in sorted(set(config.snapshot_times) | {config.t_end}):
        while state.time < target - t_tol:
            if steps >= MAX_STEPS:
                raise RunError(f"exceeded {MAX_STEPS} steps at t={state.time} (target {target})")
            try:
                dt = stable_dt(state, problem, config, work)
            except RunError as exc:
                # the state holds a non-finite value only if the last step made it
                made = steps + bool(np.isfinite(state.values).all())
                raise RunError(label(exc, made)) from exc
            yield from pending
            dt = min(dt, target - state.time)
            state = step(state, problem, dt, work)
            steps += 1
            pending = ((state, dt),)
        # land exactly on the target for downstream time arithmetic, on the
        # same read-only array; a State is built only to name a bad value
        if not np.isfinite(state.values).all():
            try:
                State(values=state.values, time=target, grid=state.grid)
            except RunError as exc:
                raise RunError(label(exc, steps)) from exc
        landed = _Stepped(values=state.values, time=target, grid=state.grid)
        yield from pending
        state, pending = landed, ()
        yield state, None


def run(problem: Problem, config: SchemeConfig) -> RunResult:
    """Integrate from t=0 to t_end with adaptive dt, landing exactly on
    requested snapshot times, and total each wall's outflow."""
    state = sample_initial(problem)
    work = plan(state, problem)
    snapshots, dts = [], []
    for state, dt in advance(state, problem, config, work):
        if dt is None:
            snapshots.append(state)
        else:
            dts.append(dt)
    return RunResult(snapshots=snapshots, step_count=len(dts),
                     min_dt=float(min(dts, default=0.0)),
                     max_dt=float(max(dts, default=0.0)),
                     wall_outflow=work[2][0])
