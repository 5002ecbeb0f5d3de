"""Conservative monotone explicit scheme for u_t + div f(x,t,u) = div(|u|^a grad u).

Advection uses the Engquist-Osher interface flux F = f+(u_l) + f-(u_r) of the
split of the `problem.FluxModel` f = a(x) g(u), with f+ nondecreasing and f-
nonincreasing in u (Engquist & Osher, Math. Comp. 36, 1981). Diffusion is the
second difference of the Kirchhoff function G(u) = |u|^a u/(a+1), which keeps
the update exactly conservative and smooth through the degeneracy at u = 0.

The step size obeys dt (sum_ax lam_ax/dx + 2n max|u|^a/dx^2) <= 1, lam_ax being
the largest reach_i |g'(u_i)| over the cells along axis ax (Evje & Karlsen,
SIAM J. Numer. Anal. 37, 2000), where reach_i = max(a+_r - a-_l, a+_l - a-_r),
from a at the cell's left and right faces, is the rate at which one half of g
leaves the cell through both faces. Under it every entry of the one-step
Jacobian is >= 0 for every split: the step is monotone (Crandall & Majda,
Math. Comp. 34, 1980). `stable_dt` returns cfl_safety times that bound.

A state may stack B solutions (branches) along a leading axis, as the
comparison sandwich does. They are stepped in the same calls, every value bit
for bit as for its branch alone, and share one dt, the smallest of their own.

A run builds one `plan` for its state's grid and value shape. `stable_dt`
prepares the dt-independent terms of the update into it, calling the flux's
g at most once and never f or df_du, and `step` applies them; they hold until
the plan's next `stable_dt`. An axis whose a is 0 on every interface does not
advect: its F is +-0.0 for every finite g, so the step leaves out its flux
difference. A flux that advects along no axis calls no g, and its step is the
diffusion half alone. Every fast path (an identity power or product, an exact
reciprocal, a uniform reach, an axis that does not advect) gives the bits of
the plain formula.

An unstacked 1-D state under a flux that advects along no axis is stepped on
a window of its cells outside which every cell holds +0.0. This is exact, and
rests on +0.0 alone, not on a finite speed of propagation: G(+0.0) = +0.0 and
the 3-point stencil steps a +0.0 cell with +0.0 neighbours to +0.0, bit for
bit.

In conservation form mass leaves only through the walls, so the plan of an
unstacked state keeps, per axis, the [low, high] mass that left through its
two walls: each step adds dt dx^(n-1) times the outward advective and
diffusive wall fluxes. Then M(T) - M(0) + the total outflow is 0 to round-off.

A step's new values are not checked when made. The next `stable_dt` checks
them where it takes max|u|^a, before any other arithmetic, by one compare per
branch with G's range, set once per plan: max|u|^a must be between the floor
above which G(max|u|) is a normal float and the ceiling under which G and its
second difference stay finite with a factor 2 to spare, or 0 with every value
0 (nonzero data whose |u|^a underflows to 0 are below the floor). A
non-finite value raises as in `State`; outside the range the error names the
underflow, or the overflow and its cell, and the branch. The last state before
a landing time is checked at the landing. `advance` yields a stepped state
only once a check has passed on it, and names the step that made a bad value.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator, NoReturn

import numpy as np

from .errors import ConfigError, RunError
from .problem import Grid, Problem, State, sample_initial

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


class _Stepped(State):
    """A State of a step's own read-only values, with no copy and no finiteness scan."""

    def __init__(self, values: np.ndarray, time: float, grid: Grid) -> None:
        fields = self.__dict__
        fields["values"], fields["time"], fields["grid"] = values, time, grid


@dataclass(frozen=True)
class RunResult:
    """wall_outflow holds, per axis, the [low, high] mass that left the box
    through that axis' two walls over the run."""

    snapshots: list[State]
    step_count: int
    min_dt: float
    max_dt: float
    wall_outflow: list[list[float]]


_max = np.maximum.reduce  # over the given axes (None: all) without ndarray.max's wrapper


def plan(state: State, problem: Problem) -> tuple:
    """A step plan for states of this one's grid and value shape under this
    problem's alpha, boundary policy and flux's a (its g is passed to every
    prepare, never kept): (prepare, apply, outflow, rates, terms).
    prepare(state, g) writes terms and returns the rate of `stable_dt`;
    apply(u, dt) returns one step's new values, read-only, and adds to outflow,
    the per-axis [low, high] wall outflow (None if stacked). terms: per axis
    (dF, lapG) in the value layout, dF None where the axis does not advect.
    rates: None, or a stacked state's branch rates at the last prepare."""
    grid, shape, edge = state.grid, state.values.shape, problem.boundary_policy == "zero_flux"
    b, dx, dx2, two_n = len(shape) - grid.n, grid.dx, grid.dx ** 2, 2.0 * grid.n
    # u and G padded by one ghost cell per side of each axis, C-ordered after a
    # branch axis; the ghost cells that no edge copy writes hold 0 for the run
    U, G = (np.zeros(shape[:b] + (grid.N + 2,) * grid.n) for _ in range(2))
    cells = (slice(None),) * b + (slice(1, -1),) * grid.n  # U's cells that are not ghosts
    Uf, Uin, ghosts = U.reshape(shape[:b] + (-1,)), U[cells], _ghosts(U, grid.n, edge)
    axes = [_axis(grid, ax, G, problem.flux.a) for ax in range(grid.n)]
    r = (grid.N + 2) ** (grid.n - 1)
    # apply runs over the window of `_axis`: each branch's axis-0 rows 1..N at full
    # padded width, the branches end to end. Unstacked in 1-D the window is the
    # values; else apply runs from U there into work, whose cells it copies out: one
    # contiguous call per term, faster than strided views
    Uw = U.reshape(-1)[r:U.size - r]
    buf, work = np.empty(Uw.shape), None if grid.n == 1 and not b else np.empty(Uw.shape)
    done = None if work is None else _cells(work, U, grid.n)
    power, alpha1 = problem.alpha, problem.alpha + 1.0
    # G /= alpha + 1 as G *= 1/(alpha + 1) where that is exact: both round the same number
    scale, by = (np.multiply, 1 / alpha1) if math.frexp(alpha1)[0] == 0.5 else (np.divide, alpha1)
    # 0-d arrays: numpy converts a float operand again at every call
    by, cF, cG = np.array(by), np.empty(()), np.empty(())
    magnitude = np.abs if power == 1 else lambda v, out: operator.ipow(np.abs(v, out=out), power)
    # G's range on max|u|^alpha. Above the floor G(max|u|) >= the least normal
    # float; below the ceiling |u|^alpha u, G, G + G and G's second difference, at
    # most 4 max|G|, are finite with a factor 2 to spare: (|u|^alpha u) <= MAX/2
    # min(1, (alpha + 1)/4)
    floor = (alpha1 * sys.float_info.min) ** (power / alpha1)
    ceiling = (sys.float_info.max / 2 * min(1.0, alpha1 / 4)) ** (power / alpha1)

    def rate(peak, *lams):  # sum_ax lam_ax/dx + 2n max|u|^a/dx^2, in this order
        total = 0.0
        for lam in lams:
            total += lam / dx
        return float(total + two_n * peak / dx2)

    # most(v, red): v's maxima over the axes red, a float or, stacked, a list of floats
    red, most, finite, finish, rates = None, _max, math.isfinite, rate, None
    # a peak of 0 is inside only for data that are all 0: |u|^alpha can underflow to 0
    inside = lambda peak, u: floor <= peak <= ceiling or peak == 0 and not u.any()  # noqa: E731
    if b:  # per-branch maxima and rates as floats, the largest rate setting dt
        red, rates = tuple(range(1, len(shape))), []  # the last rates
        most = lambda v, red: _max(v, red).tolist()  # noqa: E731
        finite = lambda lam: all(map(math.isfinite, lam))  # noqa: E731
        # all peaks in range at once: peaks are >= 0, so their sum bounds each, and it
        # is nan with any of them, which max or min can skip
        inside = lambda peak, u: floor <= min(peak) and sum(peak) <= ceiling or all(  # noqa: E731
            floor <= p <= ceiling or p == 0 and not u[k].any() for k, p in enumerate(peak))

        def finish(peak, *lams):  # the largest rate; rates keeps each
            rates[:] = map(rate, peak, *lams)
            return max(rates)
    outflow = None if b else [[0.0, 0.0] for _ in axes]
    terms = tuple((None if adv is None else adv[-1], lap[-1]) for _, lap, adv in axes)
    gbuf = tuple(np.empty(Uf.shape) for _ in range(3))  # g's scratch
    # a uniform reach c takes c max|g'|, max|g'| taken once per step
    uniform = any(isinstance(adv[1], float) for _, _, adv in axes if adv)
    advects, laps, walls, ops = [], [], [], []  # ops: apply's (term, c, ufunc)
    for ax, (s, lap, adv) in enumerate(axes):
        laps.append(_lap(*lap[:-1]))
        if adv is not None:
            advects.append(_advect(ax, s, adv, b, finite, _cells(buf, U, grid.n), red, most))
            ops.append((adv[6], cF, np.subtract))
        ops.append((lap[3], cG, np.add))
        if not b and (adv or not edge):
            walls.append(_wall(ax, adv, G, edge, dx, outflow[ax]))

    def prepare(state, g):
        values = state.values
        Uin[...] = values
        for to, src in ghosts:
            to[...] = src
        a = magnitude(U, G)
        peak = most(a, red)
        if not inside(peak, values):
            State(values=values, time=state.time, grid=state.grid)  # raises: a value is not finite
            _outside(a[cells], values, b, 0, power, floor, ceiling, state.time)  # raises
        scale(np.multiply(a, U, out=G), by, out=G)
        lams = []  # each axis' lam_ax
        if advects:  # g's halves on the padded u, |g'| at the cells and max|g'| if uniform
            up, down, slope = g(Uf, gbuf)
            if b:  # the halves flat across the branches, as the window reads them
                up, down = up.reshape(-1), None if down is None else down.reshape(-1)
            slope = slope.reshape(U.shape)[cells]
            top = most(slope, red) if uniform else None
            for advect in advects:
                lams.append(advect(state, up, down, slope, top))
        for lap in laps:
            lap()
        return finish(peak, *lams)

    def apply(u, dt):
        new, cF[()], cG[()] = np.empty(shape), dt / dx, dt / dx2
        if work is None:  # unstacked 1-D: the window is the cells
            for term, c, ufunc in ops:
                u = ufunc(u, np.multiply(c, term, out=buf), out=new)
        else:
            u = Uw  # which prepare wrote from u
            for term, c, ufunc in ops:
                u = ufunc(u, np.multiply(c, term, out=buf), out=work)
            new[...] = done
        for wall in walls:
            wall(dt)
        new.setflags(write=False)
        return new

    if b or advects or grid.n > 1:
        return prepare, apply, outflow, rates, terms
    # 1-D, no advection: the window [lo, hi) alone, every cell outside it +0.0, in the values,
    # G and lapG; last: the array the window is kept for, the last apply made or prepare scanned
    N, lapG, lo, hi, last, views = grid.N, terms[0][1], 0, 0, None, ()

    def bind():  # the window's buf, G and lapG, and its second difference
        nonlocal views
        lw, edges = lapG[lo:hi], edge and (lo == 0 or hi == N)  # ghosts read at a wall only
        views = (buf[lo:hi], G[lo + 1:hi + 1], lw,
                 _lap(G[lo + 1:hi + 1], G[lo + 2:hi + 2], G[lo:hi], lw, _ghosts(G, 1, edges)))

    def prepare_window(state, g):
        nonlocal lo, hi, last
        values = state.values
        if values is not last:  # not apply's own: scan the value bits, so -0.0 is inside
            nz, last = values.view(np.int64) != 0, values
            lo, hi = max(int(nz.argmax()) - 1, 0), min(N + 1 - int(nz[::-1].argmax()), N)
            G[...] = lapG[...] = 0.0
            bind()
        elif lo and values.item(lo) or hi < N and values.item(hi - 1):  # a margin turned nonzero:
            # widen by one cell on that side; the window never shrinks
            lo -= lo > 0 and values.item(lo) != 0
            hi += hi < N and values.item(hi - 1) != 0
            bind()
        bw, Gw, _, lap = views
        v = values[lo:hi]
        a = magnitude(v, bw)
        peak = float(_max(a, None))
        if not inside(peak, v):
            State(values=values, time=state.time, grid=state.grid)  # raises: a value is not finite
            _outside(a, v, 0, lo, power, floor, ceiling, state.time)  # raises: G's range
        scale(np.multiply(a, v, out=Gw), by, out=Gw)
        lap()
        return two_n * peak / dx2

    def apply_window(u, dt):
        nonlocal last
        new, cG[()] = np.zeros(N), dt / dx2
        np.add(u[lo:hi], np.multiply(cG, views[2], out=views[0]), out=new[lo:hi])
        for wall in walls:
            wall(dt)
        new.setflags(write=False)
        last = new
        return new
    return prepare_window, apply_window, outflow, rates, terms


def _outside(a: np.ndarray, u: np.ndarray, b: int, lo: int, alpha: float, floor: float,
             ceiling: float, time: float) -> NoReturn:
    """Raises for finite |u|^alpha values a of u (branches first if b) outside G's range."""
    over = np.argwhere(a > ceiling)
    if not len(over):  # the first branch of nonzero data whose max|u|^alpha is below the floor
        peaks = a.reshape(len(a) if b else 1, -1).max(axis=1)
        k = int(np.argmax(u.reshape(peaks.shape + (-1,)).any(axis=1) & (peaks < floor)))
        raise RunError(f"G(u) = |u|^{alpha} u/{alpha + 1} underflows: max|u|^{alpha} = {peaks[k]}"
                       f" is below its floor {floor}, t={time}", branch=k if b else None)
    # the first cell above the ceiling, and what overflows there: |u|^alpha where it is inf
    idx = [int(k) for k in over[0]]
    what = f"|u|^{alpha}" if math.isinf(a[tuple(idx)]) else f"G(u) = |u|^{alpha} u/{alpha + 1}"
    idx[b] += lo
    raise RunError(f"{what} overflows at cell {tuple(idx[b:])}, t={time}",
                   branch=idx[0] if b else None)


def _axis(grid: Grid, ax: int, G: np.ndarray, a) -> tuple:
    """`plan`'s (stride, lap, adv) for axis ax of the padded G; adv is None where a
    is 0 on every interface of the axis: the axis does not advect."""
    # on G's flat view, the branches end to end, the neighbours of cell m along ax
    # are m - s and m + s, and m runs over one window [r, end) across the branches.
    # A cell reads only its own branch; the ghost cells between branches that the
    # window also covers get finite values (G's ceiling) that no cell reads
    n, N, Gf = grid.n, grid.N, G.reshape(-1)
    s, r = (N + 2) ** (n - 1 - ax), (N + 2) ** (n - 1)
    end, lapG = Gf.size - r, np.empty(Gf.size - 2 * r)
    # (G[m], G[m+s], G[m-s], lapG over the window, lapG at the cells)
    lap = (Gf[r:end], Gf[r + s:end + s], Gf[r - s:end - s], lapG, _cells(lapG, G, n))
    axes = [grid.axis_interfaces() if d == ax else grid.axis_centers() for d in range(n)]
    c = np.asarray(a(np.stack(np.meshgrid(*axes, indexing="ij"))), dtype=float)[ax]
    lo, hi = (slice(None),) * ax + (slice(None, -1),), (slice(None),) * ax + (slice(1, None),)
    plus, minus = np.maximum(c, 0.0), np.minimum(c, 0.0)

    # a coefficient with one value everywhere is that float, else read-only on F's
    # window, with its edge values at the interfaces that no cell reads, laid out
    # once per branch (unstacked, a view of the one layout)
    def laid(v: np.ndarray) -> float | np.ndarray:
        v = _uniform(v)
        if isinstance(v, float):
            return v
        v = np.pad(v, [(0, 1) if d == ax else (1, 1) for d in range(n)], "edge")
        v = np.broadcast_to(v, G.shape).ravel()[r - s:end]
        v.setflags(write=False)
        return v

    # each half of the flux with its coefficient and whether it takes g_down
    # on the left; one that a zeroes everywhere is left out
    halves = [h for h in ((laid(plus), False), (laid(minus), True)) if np.any(h[0])]
    if not halves:
        return s, lap, None
    reach = _uniform(np.maximum(plus[hi] - minus[lo], plus[lo] - minus[hi]))
    F, dF = np.empty(G.shape), np.empty(lapG.shape)
    Fw = F.reshape(-1)[r - s:end]  # the interfaces m | m+s, from one stride below
    # (halves, reach at the cells, left cells, right cells, F there, tmp, dF over the
    # window, the padded F, dF at the cells)
    return s, lap, (halves, reach, slice(r - s, end), slice(r, end + s), Fw, np.empty(Fw.shape),
                    dF, F, _cells(dF, G, n))


def _cells(v: np.ndarray, pad: np.ndarray, n: int) -> np.ndarray:
    """The view at the cells, in the value layout, of v over the window of `_axis`
    on the flat view of the padded pad: branch k's rows start at v[k (N+2)^n]."""
    N = pad.shape[-1] - 2
    v = np.ndarray(pad.shape[:-n] + (N,) + (N + 2,) * (n - 1), buffer=v, strides=pad.strides)
    return v[(Ellipsis, slice(None)) + (slice(1, -1),) * (n - 1)]


def _uniform(v: np.ndarray) -> float | np.ndarray:
    """v as a float where all its values are equal (numpy broadcasts either), else read-only."""
    if np.all(v == v.flat[0]):
        return float(v.flat[0])
    v.setflags(write=False)
    return v


def _ghosts(p: np.ndarray, n: int, edge: bool) -> list:
    """[(to, src)]: per axis of the padded p, its ghost cells and their edge cells if edge."""
    N = p.shape[-1] - 2

    def at(ax: int, k: slice) -> np.ndarray:
        return p[(Ellipsis,) + tuple(k if d == ax else slice(1, -1) for d in range(n))]
    return [(at(ax, slice(None, None, N + 1)), at(ax, slice(1, N + 1, max(N - 1, 1))))
            for ax in range(n)] if edge else []


def _lap(Gmid, Ghi, Glo, lapG, ghosts=()):
    """lap(): the copies of `_ghosts`, then the second difference Ghi - 2 Gmid + Glo into lapG."""
    def lap():
        for to, src in ghosts:
            to[...] = src
        np.add(Gmid, Gmid, out=lapG)  # 2 G, bit for bit
        np.subtract(Ghi, lapG, out=lapG)
        np.add(lapG, Glo, out=lapG)
    return lap


def _advect(ax: int, s: int, adv: tuple, b: int, finite, buf: np.ndarray, red, most):
    """advect(state, up, down, slope, top): F and dF along axis ax; returns lam_ax, finite."""
    halves, reach, left, right, F, tmp, dF, *_ = adv
    flux, Fhi, Flo = _engquist_osher(halves, F, tmp, left, right), F[..., s:], F[..., :-s]
    # lam_ax: max(c s_i) over the cells, an array c being >= 0
    peak = lambda slope, top: most(np.multiply(reach, slope, out=buf), red)  # noqa: E731
    if isinstance(reach, float):  # c max(s_i) = max(c s_i)
        peak = (lambda _, top: [reach * t for t in top]) if b else lambda _, top: reach * top

    def advect(state, up, down, slope, top):
        flux(up, down)
        lam = peak(slope, top)
        if not finite(lam):
            raise RunError(f"non-finite flux derivative along axis {ax} at t={state.time}",
                           branch=int(np.isfinite(lam).argmin()) if b else None)
        np.subtract(Fhi, Flo, out=dF)
        return lam
    return advect


def _engquist_osher(halves: list, F: np.ndarray, tmp: np.ndarray, left: slice, right: slice):
    """flux(up, down): F = the sum over halves of c (g_l + g_r), from g's halves up and down."""
    # up on the left of the plus half, on the right of the minus half (flip); a None
    # down is 0; the second half goes through tmp; x 1.0 is x, so c = 1.0 takes no product
    def half(c, flip, out):
        c, su, sd = np.asarray(c), *((right, left) if flip else (left, right))
        if c.shape == () and c == 1.0:  # np.positive: a copy that returns out
            return lambda up, down: (np.positive(up[su], out=out) if down is None else
                                     np.add(up[su], down[sd], out=out))
        return lambda up, down: (np.multiply(c, up[su], out=out) if down is None else
                                 np.multiply(np.add(up[su], down[sd], out=out), c, out=out))

    first, *rest = [half(c, flip, out) for (c, flip), out in zip(halves, (F, tmp))]
    return first if not rest else lambda u, d: np.add(first(u, d), rest[0](u, d), out=F)


def _wall(ax: int, adv, G: np.ndarray, edge: bool, dx: float, total: list):
    """wall(dt): adds dt times the outward flux through axis ax's low and high wall to total."""
    # -F and F at the first and last interfaces (0 without adv), and -(G_ghost -
    # G_edge)/dx at each wall (0 for an edge copy), over a wall's dx^(n-1) faces
    n, N = G.ndim, G.shape[0] - 2

    def at(v: np.ndarray, k: int) -> np.ndarray:  # v's cells k along ax, one cell wide
        return v[tuple(slice(k, k + 1) if d == ax else slice(1, -1) for d in range(n))]
    face, F = dx ** (n - 1), (0.0, 0.0) if adv is None else (at(adv[-2], 0), at(adv[-2], N))
    if n == 1 and edge:  # F alone, as floats
        def wall(dt, F=adv[-2]):
            total[0] -= dt * F.item(0)
            total[1] += dt * F.item(N)
        return wall
    ghost_lo, edge_lo, edge_hi, ghost_hi = (0.0,) * 4 if edge else (
        at(G, k) for k in (0, 1, N, N + 1))

    def wall(dt):
        total[0] += dt * float(face * ((edge_lo - ghost_lo) / dx - F[0]).sum())
        total[1] += dt * float(face * (F[1] + (edge_hi - ghost_hi) / dx).sum())
    return wall


def stable_dt(state: State, problem: Problem, config: SchemeConfig, plan: tuple) -> float:
    """cfl / (sum_ax lam_ax/dx + 2n max|u|^a/dx^2); for a stacked state, the dt
    of its largest branch rate, bitwise the smallest branch dt. Prepares
    `plan`'s terms for `step(state, problem, dt, plan)` from the state and
    problem.flux.g. A non-finite value raises as in `State`, and a
    max|u|^a outside G's range raises naming the underflow or the overflow."""
    dt = config.cfl_safety / (plan[0](state, problem.flux.g) + _DEN_GUARD)
    if 0.0 < dt < math.inf:
        return dt
    raise RunError(f"stable dt underflowed at t={state.time} (dt={dt})",
                   branch=None if plan[3] is None else int(np.argmax(plan[3])))


def step(state: State, problem: Problem, dt: float, plan: tuple) -> State:
    """One conservative explicit update u - dt/dx dF + dt/dx^2 lapG per axis,
    from the terms that `stable_dt` last prepared into `plan` from this state;
    dt must respect its bound. Writes neither the state nor the terms, returns
    the new state read-only and unchecked, and adds the mass that leaves
    through the walls to the plan's outflow."""
    return _Stepped(plan[1](state.values, dt), state.time + dt, state.grid)


def advance(state: State, problem: Problem, config: SchemeConfig, work: tuple,
            names: tuple[str, ...] = ()) -> Iterator[tuple[State, float | None]]:
    """Step `state` with `work`, a `plan` for it, through the landing times,
    config's snapshot times and t_end in increasing order, each step by its
    stable_dt clipped to the next landing time; the branches of a stacked
    state share that dt.

    Yields ``(state, dt)`` for every step, and ``(state, None)`` with the
    time set exactly to the landing time each time one is reached. An error
    raised when preparing a step names the step, and `names` label the
    branches, by leading index. A bad value is named by the step that made
    it, and a stepped state is yielded only once it has been checked."""
    steps, last = 0, None  # last: the dt of the last stepped state, until a check has passed on it
    t_tol = 1e-12 * max(1.0, config.t_end)

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
            if last is not None:
                yield state, last
            last = dt if dt <= target - state.time else target - state.time
            state = step(state, problem, last, work)
            steps += 1
        # land exactly on the target for downstream time arithmetic, on the
        # same read-only array; a State is built only to name a bad value
        if not np.isfinite(state.values).all():
            try:
                State(values=state.values, time=target, grid=state.grid)
            except RunError as exc:
                raise RunError(label(exc, steps)) from exc
        if last is not None:
            yield state, last
        state, last = _Stepped(state.values, target, state.grid), None
        yield state, None


def run(problem: Problem, config: SchemeConfig) -> RunResult:
    """Integrate from t=0 to t_end with adaptive dt, landing exactly on
    requested snapshot times, and total each wall's outflow."""
    state = sample_initial(problem)
    work = plan(state, problem)
    snapshots, steps, lo, hi = [], 0, math.inf, 0.0
    for state, dt in advance(state, problem, config, work):
        if dt is None:
            snapshots.append(state)
        else:
            steps += 1
            if dt < lo:
                lo = dt
            if dt > hi:
                hi = dt
    return RunResult(snapshots=snapshots, step_count=steps, min_dt=lo if steps else 0.0,
                     max_dt=hi, wall_outflow=work[2])
