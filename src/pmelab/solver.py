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
dt. g gets the padded u with that branch axis first, and the coefficients of
a(x) broadcast against it.

Stepping takes a plan (`plan`), built once per run and passed to `advance`:
one padded u and G, the arrays of `_axis` for each axis and apply's scratch,
bound into two functions chosen once for the run's configuration: n, stacked
or not, the boundary policy, the zero split or an advecting one, a uniform
or an array reach, the halves that a keeps and the power. prepare, which
`stable_dt` calls, writes the terms and returns the rate; apply, which
`step` calls, returns the new values. So a step decides none of these and
makes little more than its numpy calls.

prepare copies the values into the padded u, C-contiguous, which holds one
ghost cell on each side of every axis: (N+2)^n cells, after a stacked
state's branch axis. Its ghost cells are an edge copy, written at every
prepare, under zero_flux, and 0 under dirichlet_zero; the corner ghost cells
of 2-D hold 0 under both. On its flat view the neighbours of cell m along
axis ax are m - s and m + s, s = (N+2)^(n-1-ax): N+2 and 1 in 2-D, 1 in 1-D.
|u|^a, G and g's halves are evaluated once per step on the whole padded u.
Each is pointwise, so its ghost values are bit for bit those of an edge
copy, or G(0) = 0 and g(0), and max|u|^a over the padded u is the one over
the cells. Each axis' interface flux F, its difference dF and the second
difference of G are then one slice operation each on flat arrays, over the
rows window: the cells of axis-0 rows 1..N at full padded width, and for F,
the interfaces from one stride below it. What they give at the ghost cells
of another axis is never read. A uniform reach c takes c times the max|g'|
over the cells, which is taken once per step. apply works over the rows
window too: in 1-D, where that is the cells, from the values into the new
array; in 2-D from the padded u into one scratch array, whose cells it then
copies into the new C-ordered values. The terms are dF and lapG as views at
the cells, in the value layout. apply applies the terms that its own plan
holds, bound when the plan is built, so nothing hands terms back to it:
`stable_dt` writes them and they hold until the plan's next `stable_dt`.
They are also the plan's last entry, to be read. No module keeps a cache,
and the scratch reused by every step keeps 2-D steps from faulting heap
pages in again and again.
A step does no identity arithmetic: no |u|^a pass at alpha = 1, and for a
reach that is one float c, lam_ax is c max|g'|, bit for bit max(c |g'|) as
rounding is monotone. Where alpha + 1 is a power of two, G's division by it
is a product by its reciprocal, and 2 G is G + G: each rounds the same real
number. The catalog's zero flux makes no g calls: when the flux's split is
`problem.ZERO_SPLIT` (by identity, never by name or value) a step is its
diffusion half alone, with lam_ax = 0, and its plan holds no coefficients.

An unstacked 1-D state under the zero split is stepped on a window [lo, hi)
of its cells. Every cell outside the window holds +0.0, and so do the plan's
G and lapG there; the window's first and last cells are margins, each +0.0
or against a wall. This is exact: G(+0.0) = +0.0 and the 3-point stencil
reads a cell and its two neighbours alone, so a +0.0 cell with +0.0
neighbours steps to +0.0 + dt/dx^2 (+0.0) = +0.0, bit for bit. The support
thus grows by at most one cell per step, and max|u|^a over the window is the
one over all cells. This rests on +0.0 alone, not on the equation's finite
speed of propagation: the numerical support runs some 5 to 10 cells ahead of
the exact front, where each cell holds about a power of its neighbour, and
is held back only by underflow to +0.0. prepare scans the value bits of a state
that this plan's apply did not make (a run's first state, or any other), so
-0.0 cells fall inside, and zeroes G and lapG. Along a chain of its own
states (a landing shares the stepped array) it widens the window by one cell
on each side whose margin turned nonzero, and never shrinks it. The second
difference reads the ghost cells only where the window lies against a wall.
apply starts from zeros and writes the window alone, reading only the
window's part of the terms. Advecting splits, stacked states and 2-D step
every cell.

In conservation form mass leaves only through the walls (Crandall & Majda),
so the plan of an unstacked state keeps, per axis, the [low, high] mass that
left through its two walls, and `step` adds dt dx^(n-1) times the outward
wall fluxes: -F and F at the first and last interfaces, and -(G_ghost -
G_edge)/dx at each wall. An edge-copy ghost makes the diffusive one exactly 0,
so under zero_flux an axis without advection sums nothing. Then
M(T) - M(0) + the total outflow is 0 to round-off.

A step's new values become the stepped `State` as they are, read-only, with
no copy and no finiteness scan. A blow-up is caught where the next step takes
max|u|^a, before any other arithmetic: it is NaN or inf exactly when some
value is, which raises as in `State`, or when a finite value's |u|^a
overflows, which raises naming the first such cell and its branch. After the
last step before a landing time, a finiteness check at the landing catches it,
whose state shares the last stepped state's array. `advance` yields a stepped
state only once one of these checks has passed, and names the step that made a
bad value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, NoReturn

import numpy as np

from .errors import ConfigError, RunError
from .problem import ZERO_SPLIT, Grid, Problem, State, sample_initial

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
    """A State that takes a step's values as they are, read-only, with no copy
    and no finiteness scan (the module docstring says where they are checked),
    set without the frozen dataclass's __init__."""

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
    problem's alpha, boundary policy and split's a (its g is passed to every
    prepare, never kept): (prepare, apply, outflow, rates, terms).
    prepare(state, g) writes terms and returns the rate of `stable_dt`;
    apply(u, dt) returns the new values of one step from the terms, read-only,
    and adds to outflow, the per-axis [low, high] wall outflow of a run with
    this plan (None for a stacked state). terms are the per-axis (dF, lapG) in the
    value layout, dF None for the zero flux; rates is None, or the list of a
    stacked state's branch rates at the last prepare."""
    grid, shape, split = state.grid, state.values.shape, problem.flux.split
    b, dx, dx2, two_n = len(shape) - grid.n, grid.dx, grid.dx ** 2, 2.0 * grid.n
    a, edge = None if split is ZERO_SPLIT else split.a, problem.boundary_policy == "zero_flux"
    # the padded u and G, whose ghost cells that no edge copy writes hold 0 for the run
    U, G = (np.zeros(shape[:b] + (grid.N + 2,) * grid.n) for _ in range(2))
    cells = (slice(None),) * b + (slice(1, -1),) * grid.n  # U's cells that are not ghosts
    Uf, Uin, ghosts = U.reshape(shape[:b] + (-1,)), U[cells], _ghosts(U, grid.n, edge)
    axes, r = [_axis(grid, ax, G, a) for ax in range(grid.n)], (grid.N + 2) ** (grid.n - 1)
    # apply runs over the rows window, in 2-D from U there into work, whose cells
    # it copies out: faster than reading the terms' strided views at the cells
    Urows = Uf[(slice(None),) * b + (slice(r, Uf.shape[-1] - r),)]
    buf, work = np.empty(Urows.shape), None if grid.n == 1 else np.empty(Urows.shape)
    done = None if work is None else _cells(work, grid.N, grid.n)
    power, alpha1 = problem.alpha, problem.alpha + 1.0
    # G /= alpha + 1 as G *= 1/(alpha + 1) where that is exact: both round the same number
    scale, by = (np.multiply, 1 / alpha1) if math.frexp(alpha1)[0] == 0.5 else (np.divide, alpha1)
    # 0-d arrays: numpy converts a float operand again at every call
    by, cF, cG = np.array(by), np.empty(()), np.empty(())
    magnitude = np.abs if power == 1 else lambda v, out: operator.ipow(np.abs(v, out=out), power)
    red, finite, finish, rates = None, math.isfinite, float, None
    if b:  # per-branch maxima and rates, the largest rate setting dt
        red, rates = tuple(range(1, len(shape))), []  # the last rates, as floats
        finite = lambda peak: all(map(math.isfinite, peak.tolist()))  # noqa: E731

        def finish(rate):  # the largest rate; rates keeps each for stable_dt's error
            rates[:] = rate.tolist()
            return max(rates)
    outflow = None if b else [[0.0, 0.0] for _ in axes]
    terms = tuple((None if adv is None else adv[-1], lap[-1]) for _, lap, adv in axes)
    gbuf = tuple(np.empty(Uf.shape) for _ in range(3))  # g's scratch
    # a uniform reach c takes c max|g'|, max|g'| taken once per step
    top = any(isinstance(adv[1], float) for _, _, adv in axes if adv)
    advects, laps, walls, ops = [], [], [], []  # ops: apply's (term, c, ufunc)
    for ax, (s, lap, adv) in enumerate(axes):
        laps.append(_lap(*lap[:-1]))
        if adv is not None:
            advects.append(_advect(ax, s, adv, b, finite, _cells(buf, grid.N, grid.n), red))
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
        peak = _max(a, red)
        if not finite(peak):
            State(values=values, time=state.time, grid=state.grid)  # raises: a value is not finite
            _overflow(a[cells], b, 0, power, state.time)  # raises: |u|^a overflows
        scale(np.multiply(a, U, out=G), by, out=G)
        rate = 0.0
        if advects:  # g's halves on the padded u, |g'| at the cells and max|g'| if top
            up, down, slope = g(Uf, gbuf)
            slope = slope.reshape(U.shape)[cells]
            most = _max(slope, red) if top else None
            for advect in advects:
                rate += advect(state, up, down, slope, most) / dx
        for lap in laps:
            lap()
        return finish(rate + two_n * peak / dx2)

    def apply(u, dt):
        new, cF[()], cG[()] = np.empty(shape), dt / dx, dt / dx2
        if work is None:  # 1-D: the rows window is the cells
            for term, c, ufunc in ops:
                u = ufunc(u, np.multiply(c, term, out=buf), out=new)
        else:
            u = Urows  # which prepare wrote from u
            for term, c, ufunc in ops:
                u = ufunc(u, np.multiply(c, term, out=buf), out=work)
            new[...] = done
        for wall in walls:
            wall(dt)
        new.setflags(write=False)
        return new

    if b or advects or grid.n > 1:
        return prepare, apply, outflow, rates, terms
    # 1-D zero flux: the window [lo, hi) alone, as the module docstring says
    # last: the array the window is kept for, the last that apply made or prepare scanned
    N, lapG, lo, hi, last, views = grid.N, terms[0][1], 0, 0, None, ()

    def bind():  # the window's buf, G and lapG, and its second difference
        nonlocal views
        lw, edges = lapG[lo:hi], edge and (lo == 0 or hi == N)  # ghosts read at a wall only
        views = (buf[lo:hi], G[lo + 1:hi + 1], lw,
                 _lap(G[lo + 1:hi + 1], G[lo + 2:hi + 2], G[lo:hi], lw, _ghosts(G, 1, edges)))

    def prepare_window(state, g):
        nonlocal lo, hi, last
        values = state.values
        if values is not last:  # scan the value bits, so -0.0 is in the window
            nz, last = values.view(np.int64) != 0, values
            lo, hi = max(int(nz.argmax()) - 1, 0), min(N + 1 - int(nz[::-1].argmax()), N)
            G[...] = lapG[...] = 0.0
            bind()
        elif lo and values.item(lo) or hi < N and values.item(hi - 1):  # a margin turned nonzero
            lo -= lo > 0 and values.item(lo) != 0
            hi += hi < N and values.item(hi - 1) != 0
            bind()
        bw, Gw, _, lap = views
        v = values[lo:hi]
        a = magnitude(v, bw)
        peak = float(_max(a, None))
        if not finite(peak):
            State(values=values, time=state.time, grid=state.grid)  # raises: a value is not finite
            _overflow(a, 0, lo, power, state.time)  # raises: |u|^a overflows
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


def _overflow(a: np.ndarray, b: int, lo: int, alpha: float, time: float) -> NoReturn:
    """Raises for finite values whose |u|^alpha, a in the value layout (a branch
    axis first when b) from cell lo on along the first cell axis, is not
    finite, naming the first such cell and its branch."""
    idx = [int(k) for k in np.argwhere(~np.isfinite(a))[0]]
    idx[b] += lo
    raise RunError(f"|u|^{alpha} overflows at cell {tuple(idx[b:])}, t={time}",
                    branch=idx[0] if b else None)


def _axis(grid: Grid, ax: int, G: np.ndarray, a) -> tuple:
    """The arrays of `plan` for axis ax, laid out as G, the padded G of values
    of shape grid.shape or (B,) + grid.shape: (s, lap, adv). s = (N+2)^(n-1-ax)
    is the stride of axis ax on G's flat view, so the neighbours of flat cell m
    along it are m - s and m + s; m runs over the rows window, the cells of
    axis-0 rows 1..N at full padded width. lap is (G[m], G[m+s], G[m-s], lapG,
    lapG at the cells), lapG being over the rows window. adv is None for a flux
    that does not advect, else (halves, reach, left, right, F, tmp, dF, F
    padded, dF at the cells): a+ and a- of the split's a(x) normal to ax at the
    interfaces m | m+s, each with whether it takes g's falling half on the left;
    the reach at the cells; the index of the interfaces' left cells m and right
    cells m+s on a flat padded array, m from one stride below the rows window
    to its end; F, the window of the padded F over those m, and tmp of its
    shape; and dF over the rows window. The views at the cells are in the
    value layout. The coefficients are read-only and broadcast against the
    values: one with one value everywhere is that float, an array one is on
    F's window, with its edge values at the interfaces that no cell reads."""
    n, N, b = grid.n, grid.N, G.ndim - grid.n
    s, r, end = (N + 2) ** (n - 1 - ax), (N + 2) ** (n - 1), (N + 2) ** n - (N + 2) ** (n - 1)

    def at(lo: int, hi: int) -> tuple:  # the index of [lo, hi) on a flat padded array
        return (slice(None),) * b + (slice(lo, hi),)

    Gf, lapG = G.reshape(G.shape[:b] + (-1,)), np.empty(G.shape[:b] + (end - r,))
    lap = (Gf[at(r, end)], Gf[at(r + s, end + s)], Gf[at(r - s, end - s)], lapG,
           _cells(lapG, N, n))
    if a is None:
        return s, lap, None
    axes = [grid.axis_interfaces() if d == ax else grid.axis_centers() for d in range(n)]
    c = np.asarray(a(np.stack(np.meshgrid(*axes, indexing="ij"))), dtype=float)[ax]
    lo, hi = (slice(None),) * ax + (slice(None, -1),), (slice(None),) * ax + (slice(1, None),)
    plus, minus = np.maximum(c, 0.0), np.minimum(c, 0.0)
    reach = _uniform(np.maximum(plus[hi] - minus[lo], plus[lo] - minus[hi]))

    def laid(v: np.ndarray) -> float | np.ndarray:  # v on F's window, or its one value
        v = _uniform(v)
        if isinstance(v, float):
            return v
        v = np.pad(v, [(0, 1) if d == ax else (1, 1) for d in range(n)], "edge")
        v = v.ravel()[r - s:end]
        v.setflags(write=False)
        return v

    # each half of the flux with its coefficient and whether it takes g_down
    # on the left; one that a zeroes everywhere is left out, but never both
    halves = [(laid(plus), False), (laid(minus), True)]
    halves = [h for h in halves if np.any(h[0])] or halves[:1]
    F, dF = np.empty(G.shape), np.empty(lapG.shape)
    Fw = F.reshape(Gf.shape)[at(r - s, end)]
    return s, lap, (halves, reach, at(r - s, end), at(r, end + s), Fw, np.empty(Fw.shape),
                    dF, F, _cells(dF, N, n))


def _cells(v: np.ndarray, N: int, n: int) -> np.ndarray:
    """The view at the cells, in the value layout, of v over the rows window."""
    v = v.reshape(v.shape[:-1] + (N,) + (N + 2,) * (n - 1))
    return v[(Ellipsis, slice(None)) + (slice(1, -1),) * (n - 1)]


def _uniform(v: np.ndarray) -> float | np.ndarray:
    """v as a float where all its values are equal (numpy broadcasts either),
    else v made read-only."""
    if np.all(v == v.flat[0]):
        return float(v.flat[0])
    v.setflags(write=False)
    return v


def _ghosts(p: np.ndarray, n: int, edge: bool) -> list:
    """[(to, src)]: per axis of the padded p, its two ghost cells at the other
    axes' cells and the edge cells that each prepare copies into them under
    zero_flux; none under dirichlet_zero, whose ghost cells hold the 0 that
    the plan set."""
    N = p.shape[-1] - 2

    def at(ax: int, k: slice) -> np.ndarray:
        return p[(Ellipsis,) + tuple(k if d == ax else slice(1, -1) for d in range(n))]
    return [(at(ax, slice(None, None, N + 1)), at(ax, slice(1, N + 1, max(N - 1, 1))))
            for ax in range(n)] if edge else []


def _lap(Gmid, Ghi, Glo, lapG, ghosts=()):
    """lap(): the copies of `_ghosts` into G's ghost cells, then the second
    difference Ghi - 2 Gmid + Glo into lapG."""
    def lap():
        for to, src in ghosts:
            to[...] = src
        np.add(Gmid, Gmid, out=lapG)  # 2 G, bit for bit
        np.subtract(Ghi, lapG, out=lapG)
        np.add(lapG, Glo, out=lapG)
    return lap


def _advect(ax: int, s: int, adv: tuple, b: int, finite, buf: np.ndarray, red):
    """advect(state, up, down, slope, top): the Engquist-Osher flux and its
    difference dF along axis ax from g's halves up and down on the flat padded
    u, and the returned lam_ax: the largest reach |g'| over the cells, per
    branch for a stacked state (b = 1), which `finite` checks, from slope,
    |g'| at the cells, or for a uniform reach c as c top, top being max|g'|."""
    halves, reach, left, right, F, tmp, dF, *_ = adv
    flux, Fhi, Flo = _engquist_osher(halves, F, tmp, left, right), F[..., s:], F[..., :-s]
    peak = ((lambda slope, top: reach * top) if isinstance(reach, float)  # c max(s_i) = max(c s_i)
            else lambda slope, top: _max(np.multiply(reach, slope, out=buf), red))  # c >= 0

    def advect(state, up, down, slope, top):
        flux(up, down)
        lam = peak(slope, top)
        if not finite(lam):
            raise RunError(f"non-finite flux derivative along axis {ax} at t={state.time}",
                           branch=int(np.isfinite(lam).argmin()) if b else None)
        np.subtract(Fhi, Flo, out=dF)
        return lam
    return advect


def _engquist_osher(halves: list, F: np.ndarray, tmp: np.ndarray, left: tuple, right: tuple):
    """flux(up, down): F = the sum over halves of c (g_l + g_r) at the
    interfaces from g's halves on the flat padded cells, read at the left and
    the right cells of each interface: up on the left of the plus half and on
    the right of the minus half (flip), a None down being 0; the second half
    goes through tmp."""
    def half(c, flip, out):
        c, su, sd = np.asarray(c), *((right, left) if flip else (left, right))
        return lambda up, down: (np.multiply(c, up[su], out=out) if down is None else
                                 np.multiply(np.add(up[su], down[sd], out=out), c, out=out))

    first, *rest = [half(c, flip, out) for (c, flip), out in zip(halves, (F, tmp))]
    return first if not rest else lambda u, d: np.add(first(u, d), rest[0](u, d), out=F)


def _wall(ax: int, adv, G: np.ndarray, edge: bool, dx: float, total: list):
    """wall(dt): adds dt times the outward flux through the low and the high
    wall of axis ax to total: -F and F at the first and last interfaces (0
    without adv), and -(G_ghost - G_edge)/dx at each wall (0 for an edge
    copy), summed over the dx^(n-1) faces of a wall in n > 1 dimensions."""
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
    """cfl / (sum_ax lam_ax/dx + 2n max|u|^a/dx^2), lam_ax being the largest
    reach |g'| over the cells along axis ax; for a stacked state, the dt of its
    largest branch rate, which is bitwise the smallest branch dt. Prepares
    `plan`'s terms for `step(state, problem, dt, plan)` from the state and
    problem.flux.split.g. A non-finite value raises as in `State`, and a
    finite one whose |u|^a overflows raises naming its cell, both found by
    max|u|^a before any other arithmetic on u."""
    dt = config.cfl_safety / (plan[0](state, problem.flux.split.g) + _DEN_GUARD)
    if 0.0 < dt < math.inf:
        return dt
    raise RunError(f"stable dt underflowed at t={state.time} (dt={dt})",
                   branch=None if plan[3] is None else int(np.argmax(plan[3])))


def step(state: State, problem: Problem, dt: float, plan: tuple) -> State:
    """One conservative explicit update u - dt/dx dF + dt/dx^2 lapG per axis by
    the plan's apply(u, dt), from the terms that `stable_dt` last prepared into
    `plan` from this state, which apply holds itself; dt must respect its
    bound. Writes neither the state nor the terms, returns the new state
    read-only and unchecked (`advance` yields it once it has been checked) and
    adds the mass that leaves through the walls to the plan's outflow. A plan
    of an unstacked 1-D state under the zero flux reads only its window's part
    of the terms (see the module docstring)."""
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
    branches, by leading index. A non-finite value is found when the next step
    prepares, or at the landing, and is named by the step that made it;
    a stepped state is yielded only after that check has passed."""
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
