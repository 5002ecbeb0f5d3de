"""Continuous problem definitions: grids, advection flux models, initial data,
and sampled checks of the structural hypotheses on the flux.

Flux evaluators are opaque callables ``(x, t, u) -> (n,) + shape(u)`` arrays
(possibly read-only views) that must broadcast and be pointwise (see
`FluxModel`). Their stated derivatives are verified by finite differences,
never trusted. The solver steps with each flux's `FluxSplit` and never calls
the evaluators, so the same check verifies the split against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, RunError

BOUNDARY_POLICIES = ("zero_flux", "dirichlet_zero")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-L, L]^n."""

    n: int
    L: float
    N: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.n}")
        if not 0 < self.L < np.inf:
            raise ConfigError(f"half-width must be finite and > 0, got {self.L}")
        if self.N < 1 or int(self.N) != self.N:
            raise ConfigError(f"cell count must be a positive integer, got {self.N}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.n

    def axis_centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + 0.5) * self.dx

    def axis_interfaces(self) -> np.ndarray:
        return -self.L + np.arange(self.N + 1) * self.dx

    def cell_centers(self) -> np.ndarray:
        """Coordinates of all cell centers, shape (n,) + shape."""
        return np.stack(np.meshgrid(*[self.axis_centers()] * self.n, indexing="ij"))


@dataclass(frozen=True)
class FluxSplit:
    """The Engquist-Osher split of a flux f_j(x, t, u) = a_j(x) g(u), by which the
    solver steps it (Engquist & Osher, Math. Comp. 36, 1981).

    g = g_up + g_down, with g_up nondecreasing, g_down nonincreasing, and at
    each u at most one of them changing, so |g'| = g_up' - g_down'. The flux at
    the interface x between the states u_l and u_r is f+(x, u_l) + f-(x, u_r),
    with f+ = a+ g_up + a- g_down nondecreasing and f- = a- g_up + a+ g_down
    nonincreasing in u (a+ = max(a, 0), a- = min(a, 0)); f+ + f- = f. Both
    slopes are bounded by |a(x)| |g'(u)| = |df/du|.

    `a` is a function of x (shape (n,) + cells, as for f) with
    time-independent values; the solver evaluates it once per grid and axis,
    on the interfaces. `g(u, out)` is pointwise: it gets the padded cells of
    one axis and a tuple of three scratch arrays of u's shape and returns
    (g_up(u), g_down(u), |g'(u)|), each of them u itself, one of the scratch
    arrays or a new array, and g_down as None where it is 0 (g nondecreasing).
    `check_flux_consistency` checks all of this against f and df_du."""

    a: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, tuple[np.ndarray, ...]], tuple]


@dataclass(frozen=True)
class FluxModel:
    """Evaluator bundle for f, its u-derivative and its x-divergence at frozen u,
    which the sampled checks call, and the split by which the solver steps f.

    The solver reads only `split`, and a flux without one cannot be stepped
    (see `Problem`): it evaluates the split's a once per grid and axis at the
    interfaces, and its g once per axis and step on the N+2 padded cells. The
    Engquist-Osher flux has dF/du_l >= 0 >= dF/du_r, and the solver's rate is
    the largest rate at which g leaves a cell through its faces, so its
    step-size rule is the monotone bound. `check_flux_consistency` checks the
    split against f and df_du. The evaluators must broadcast x against u, and
    must not reduce over cell axes or mix values between cells."""

    name: str
    f: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    df_du: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    div_x_f: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    split: FluxSplit | None = None


@dataclass(frozen=True)
class State:
    """Discrete solution snapshot: cell averages on a grid at one time. The values
    have the grid's shape, or (B,) + grid shape for B >= 1 solutions (branches)
    stacked along a leading axis and stepped together.

    A State keeps a read-only copy of the values, so later writes to the
    caller's array do not reach it, and checks that each is finite. The states
    `solver.step` returns (`_Stepped`) skip both: their values are the step's
    own new array, read-only, and the next step's max|u|^a, NaN or inf exactly
    when some value is, or the State built at the landing time checks them."""

    values: np.ndarray
    time: float
    grid: Grid

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        shape = self.grid.shape
        if vals.shape != shape and (vals.shape[1:] != shape or vals.shape[0] < 1):
            raise ConfigError(f"state shape {vals.shape} is neither the grid shape "
                              f"{shape} nor (B,) + {shape}, B >= 1")
        if not np.isfinite(vals).all():
            b = vals.ndim - self.grid.n
            idx = tuple(int(k) for k in np.argwhere(~np.isfinite(vals))[0])
            raise RunError(f"non-finite value at cell {idx[b:]}, t={self.time}",
                           branch=idx[0] if b else None)
        if not 0 <= self.time < np.inf:
            raise ConfigError(f"time must be finite and >= 0, got {self.time}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class _Stepped(State):
    """A State that takes its values as they are (see `State`)."""

    def __post_init__(self) -> None:
        pass


@dataclass(frozen=True)
class Problem:
    """One Cauchy problem: grid truncation, diffusion exponent, flux, initial datum."""

    grid: Grid
    alpha: float
    p0: float
    flux: FluxModel
    u0: Callable[[np.ndarray], np.ndarray]
    boundary_policy: str = "zero_flux"

    def __post_init__(self) -> None:
        if not 0 < self.alpha < np.inf:
            raise ConfigError(f"diffusion exponent must be finite and > 0, got {self.alpha}")
        if not 1 <= self.p0 < np.inf:
            raise ConfigError(f"initial integrability must be finite and >= 1, got {self.p0}")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigError(
                f"boundary policy must be one of {BOUNDARY_POLICIES}, "
                f"got {self.boundary_policy!r}")
        if self.flux.split is None:
            raise ConfigError(f"flux {self.flux.name!r} states no Engquist-Osher split "
                              f"(FluxModel.split), so it cannot be stepped")


def sample_initial(problem: Problem) -> State:
    """Pointwise sample of the initial datum at cell centers, as a t=0 state."""
    centers = problem.grid.cell_centers()
    vals = np.asarray(problem.u0(centers), dtype=float)
    vals = np.broadcast_to(vals, problem.grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        idx = tuple(int(k) for k in np.argwhere(~np.isfinite(vals))[0])
        x = tuple(float(centers[(a,) + idx]) for a in range(problem.grid.n))
        raise RunError(f"initial datum is non-finite at cell {idx}, x={x}")
    return State(values=vals, time=0.0, grid=problem.grid)


# ---------------------------------------------------------------------------
# Built-in flux catalog
# ---------------------------------------------------------------------------

def zero_evaluator(x, t, u):
    """f and df_du of the zero flux, for any n = len(x)."""
    return np.zeros((np.shape(x)[0],) + np.shape(u))


def _zero_g(u, out):
    zeros = out[0]
    zeros.fill(0.0)
    return zeros, None, zeros


# The zero flux's split, for any n. The solver skips the advective half of the
# step for a flux whose split is this very object (by identity, never by value).
ZERO_SPLIT = FluxSplit(a=lambda x: np.zeros(np.shape(x)), g=_zero_g)


def zero_flux_model(n: int = 1) -> FluxModel:
    return FluxModel(name="zero", f=zero_evaluator, df_du=zero_evaluator,
                     div_x_f=lambda x, t, u: np.zeros(np.shape(u)), split=ZERO_SPLIT)


def _identity_g(u, out):
    # g = u: all of it nondecreasing, |g'| = 1
    ones = out[2]
    ones.fill(1.0)
    return u, None, ones


def linear_flux_model(c: float = 1.0, n: int = 1) -> FluxModel:
    """f_j = c_j u, split as max(c_j, 0) u + min(c_j, 0) u: upwind."""
    cvec = np.broadcast_to(np.asarray(c, dtype=float), (n,))

    def f(x, t, u):
        u = np.asarray(u, dtype=float)
        return np.stack([cj * u for cj in cvec])

    def df_du(x, t, u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.full(u.shape, cj) for cj in cvec])

    return FluxModel(name="linear", f=f, df_du=df_du,
                     div_x_f=lambda x, t, u: np.zeros(np.shape(u)),
                     params={"c": float(cvec[0])},
                     split=FluxSplit(a=lambda x: np.broadcast_to(
                         cvec.reshape((n,) + (1,) * (np.ndim(x) - 1)), np.shape(x)),
                         g=_identity_g))


def _burgers_g(u, out):
    # g = u^2/2 = max(u, 0)^2/2 + min(u, 0)^2/2, |g'| = |u|
    up, down, slope = out
    np.maximum(u, 0.0, out=up)
    up *= up
    up *= 0.5
    np.minimum(u, 0.0, out=down)
    down *= down
    down *= 0.5
    return up, down, np.abs(u, out=slope)


def burgers_flux_model(n: int = 1) -> FluxModel:
    """f_j = u^2/2 in every component, split as max(u, 0)^2/2 + min(u, 0)^2/2."""
    # all components are equal: one array as a (1,) view or a read-only (n,) view
    def components(v):
        return v[None] if n == 1 else np.broadcast_to(v, (n,) + v.shape)

    def f(x, t, u):
        u = np.asarray(u, dtype=float)
        return components(0.5 * u * u)

    def df_du(x, t, u):
        return components(np.asarray(u, dtype=float))

    return FluxModel(name="burgers", f=f, df_du=df_du,
                     div_x_f=lambda x, t, u: np.zeros(np.shape(u)),
                     split=FluxSplit(a=lambda x: np.ones(np.shape(x)), g=_burgers_g))


def figure1_flux_model(k: float = 1.5) -> FluxModel:
    """One-dimensional flux f(x,t,u) = -tanh(x) |u|^k u, whose x-divergence at
    frozen u is negative where u != 0 (the growth-stimulating regime). Its split
    is a(x) = -tanh(x) and g = |u|^k u, which is nondecreasing."""
    if not 0 < k < np.inf:
        raise ConfigError(f"flux power k must be finite and > 0, got {k}")

    def f(x, t, u):
        u = np.asarray(u, dtype=float)
        return (-np.tanh(x[0]) * np.abs(u) ** k * u)[None]

    def df_du(x, t, u):
        u = np.asarray(u, dtype=float)
        return (-(k + 1.0) * np.tanh(x[0]) * np.abs(u) ** k)[None]

    def div_x_f(x, t, u):
        u = np.asarray(u, dtype=float)
        return -np.abs(u) ** k * u / np.cosh(x[0]) ** 2

    def g(u, out):
        power, value, _ = out
        np.abs(u, out=power)
        power **= k
        np.multiply(power, u, out=value)
        power *= k + 1.0
        return value, None, power

    return FluxModel(name="figure1", f=f, df_du=df_du, div_x_f=div_x_f,
                     params={"k": float(k)},
                     split=FluxSplit(a=lambda x: -np.tanh(x), g=g))


def _figure1_from_config(n: int, k: float) -> FluxModel:
    if n != 1:
        raise ConfigError("figure1 flux is one-dimensional")
    return figure1_flux_model(k)


# name -> (builder of (n, **params), declared parameters with their defaults)
FLUX_CATALOG = {
    "zero": (zero_flux_model, {}),
    "linear": (lambda n, c: linear_flux_model(c, n), {"c": 1.0}),
    "burgers": (burgers_flux_model, {}),
    "figure1": (_figure1_from_config, {"k": 1.5}),
}


def _from_catalog(kind: str, catalog: dict, name: str, params: dict | None, n: int):
    """Build entry `name` of `catalog`, its declared defaults overridden by
    `params`; an unknown name, an undeclared parameter or a non-finite value is a
    ConfigError. Builders that check a parameter themselves report it first."""
    if name not in catalog:
        raise ConfigError(f"unknown {kind} {name!r}; catalog: {sorted(catalog)}")
    build, defaults = catalog[name]
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"{kind} {name!r} has no parameter {', '.join(unknown)}; "
                          f"it declares {sorted(defaults) or 'none'}")
    built = build(n, **{**defaults, **params})
    for key, value in params.items():
        if not np.isfinite(value):
            raise ConfigError(f"{kind} {name!r} parameter {key} must be finite, got {value}")
    return built


def flux_from_config(name: str, params: dict | None = None, n: int = 1) -> FluxModel:
    return _from_catalog("flux", FLUX_CATALOG, name, params, n)


# ---------------------------------------------------------------------------
# Initial-datum catalog
# ---------------------------------------------------------------------------

def _zero_datum(n: int):
    return lambda x: np.zeros(np.shape(x)[1:])


def _gaussian_datum(n: int, amp: float, width: float):
    if not width > 0:
        raise ConfigError(f"initial datum 'gaussian' parameter width must be > 0, got {width}")
    return lambda x: amp * np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / width ** 2)


def _signed_gaussian_datum(n: int):
    # x exp(-x^2): sign-changing datum for the comparison sandwich
    return lambda x: x[0] * np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def _barenblatt_datum(n: int, C: float, t: float, alpha: float):
    from . import barenblatt

    prof = barenblatt.BarenblattProfile(n=n, alpha=alpha, C=C)
    return lambda x: barenblatt.evaluate(prof, x, t)


# name -> (builder of (n, **params), declared parameters with their defaults)
U0_CATALOG = {
    "zero": (_zero_datum, {}),
    "gaussian": (_gaussian_datum, {"amp": 1.0, "width": 1.0}),
    "signed_gaussian": (_signed_gaussian_datum, {}),
    "barenblatt": (_barenblatt_datum, {"C": 1.0, "t": 1.0, "alpha": 1.0}),
}


def u0_from_config(name: str, params: dict | None = None, n: int = 1):
    return _from_catalog("initial datum", U0_CATALOG, name, params, n)


# ---------------------------------------------------------------------------
# Hypothesis checks (sampled, with finite-difference cross-checks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    max_df_du_error: float
    max_div_error: float
    max_split_error: float | None  # None for a flux without a split
    ok: bool


def check_flux_consistency(flux: FluxModel, grid: Grid,
                           u_range: tuple[float, float] = (-1.0, 1.0)) -> ConsistencyReport:
    """Finite-difference verification, at 1000 (x, t, u) samples drawn from seed
    12345, that df_du and div_x_f match f, and the split (when there is one)
    matches f and df_du (see `_split_errors`), to a relative error of 1e-5, with
    all samples evaluated at once (t is passed as a (samples,) array)."""
    samples = 1000
    rng = np.random.default_rng(12345)
    n = grid.n
    xs = rng.uniform(-grid.L, grid.L, size=(n, samples))
    ts = rng.uniform(0.0, 1.0, size=samples)
    us = rng.uniform(u_range[0], u_range[1], size=samples)
    h = 1e-6 * np.maximum(1.0, np.abs(us))
    fd_du = (np.asarray(flux.f(xs, ts, us + h)) - np.asarray(flux.f(xs, ts, us - h))) / (2 * h)
    stated_du = np.asarray(flux.df_du(xs, ts, us))

    hx = 1e-6 * np.maximum(1.0, np.max(np.abs(xs), axis=0))
    fd_div = np.zeros(samples)
    for j in range(n):
        xp, xm = xs.copy(), xs.copy()
        xp[j] += hx
        xm[j] -= hx
        fd_div += (np.asarray(flux.f(xp, ts, us))[j]
                   - np.asarray(flux.f(xm, ts, us))[j]) / (2 * hx)
    stated_div = np.broadcast_to(np.asarray(flux.div_x_f(xs, ts, us)), (samples,))
    err_split = (np.zeros(samples) if flux.split is None
                 else _split_errors(flux, xs, ts, us, h, stated_du))

    bad_du = ~np.all(np.isfinite(fd_du) & np.isfinite(stated_du), axis=0)
    bad_div = ~(np.isfinite(fd_div) & np.isfinite(stated_div))
    bad = bad_du | bad_div | ~np.isfinite(err_split)
    if np.any(bad):
        i = int(np.argmax(bad))
        what = "derivative" if bad_du[i] else "divergence" if bad_div[i] else "split"
        raise RunError(f"non-finite flux {what} at x={xs[:, i]}, t={ts[i]}, u={us[i]}")
    err_du = (np.max(np.abs(fd_du - stated_du), axis=0)
              / np.maximum(1.0, np.max(np.abs(stated_du), axis=0)))
    err_div = np.abs(fd_div - stated_div) / np.maximum(1.0, np.abs(stated_div))
    worst_du = float(np.max(err_du, initial=0.0))
    worst_div = float(np.max(err_div, initial=0.0))
    worst_split = None if flux.split is None else float(np.max(err_split, initial=0.0))
    return ConsistencyReport(max_df_du_error=worst_du, max_div_error=worst_div,
                             max_split_error=worst_split,
                             ok=worst_du <= 1e-5 and worst_div <= 1e-5
                             and (worst_split is None or worst_split <= 1e-5))


def _split_errors(flux: FluxModel, xs, ts, us, h, stated_du) -> np.ndarray:
    """Per sample, the worst relative error of the flux's split: a (g_up + g_down)
    against f, |a| |g'| against |df_du|, and by central differences of step h,
    g_up' - g_down' against |g'|, with g_up' >= 0 >= g_down' (a decrease of g_up
    or an increase of g_down counts as error). Where these hold, the solver's
    interface flux is monotone under its step-size rule."""
    def halves(u):
        up, down, slope = flux.split.g(u, tuple(np.empty_like(u) for _ in range(3)))
        down = np.zeros_like(u) if down is None else down
        return np.array(up), np.array(down), np.array(slope)  # g may hand back u or out

    up, down, slope = halves(us)
    up_hi, down_hi, _ = halves(us + h)
    up_lo, down_lo, _ = halves(us - h)
    d_up, d_down = (up_hi - up_lo) / (2 * h), (down_hi - down_lo) / (2 * h)
    a = np.asarray(flux.split.a(xs), dtype=float)
    f = np.asarray(flux.f(xs, ts, us))
    scale = np.maximum(1.0, slope)
    return np.max([
        np.max(np.abs(a * (up + down) - f), axis=0) / np.maximum(1.0, np.max(np.abs(f), axis=0)),
        np.max(np.abs(np.abs(a) * slope - np.abs(stated_du)), axis=0)
        / np.maximum(1.0, np.max(np.abs(stated_du), axis=0)),
        np.abs(d_up - d_down - slope) / scale,
        np.maximum(-d_up, d_down) / scale], axis=0)


def _x_lattice(grid: Grid, per_axis: int) -> np.ndarray:
    """Uniform subsample of cell centers, shape (n, P)."""
    c = grid.axis_centers()
    idx = np.unique(np.linspace(0, grid.N - 1, min(grid.N, per_axis)).round().astype(int))
    return np.stack(np.meshgrid(*[c[idx]] * grid.n, indexing="ij")).reshape(grid.n, -1)


@dataclass(frozen=True)
class DivergenceReport:
    satisfied: bool
    worst_violation: float
    witness: tuple[tuple[float, ...], float, float]


# the sampled flux checks look at these times
CHECK_TIMES = (0.0, 0.5, 1.0)
# fewest u points of the divergence check's lattice
DIVERGENCE_MIN_SAMPLES = 64


def check_divergence_condition(flux: FluxModel, grid: Grid,
                               u_range: tuple[float, float],
                               samples: int = DIVERGENCE_MIN_SAMPLES) -> DivergenceReport:
    """Sampled check of the sign condition sum_j d f_j/d x_j (x,t,u) * u >= 0
    over a deterministic lattice of x, t in CHECK_TIMES and `samples` u points."""
    if samples < DIVERGENCE_MIN_SAMPLES:
        raise ConfigError(f"need at least {DIVERGENCE_MIN_SAMPLES} u samples, got {samples}")
    lo, hi = float(u_range[0]), float(u_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ConfigError(f"u range must be a bounded interval, got {u_range}")
    X = _x_lattice(grid, per_axis=33)  # (n, P)
    us = np.linspace(lo, hi, samples)
    worst = np.inf
    witness = None
    for t in CHECK_TIMES:
        vals = np.asarray(flux.div_x_f(X[:, :, None], t, us[None, :])) * us[None, :]
        if not np.all(np.isfinite(vals)):
            p, k = np.argwhere(~np.isfinite(vals))[0]
            raise RunError(
                f"non-finite flux divergence at x={tuple(X[:, p])}, t={t}, u={us[k]}")
        p, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[p, k] < worst:
            worst = float(vals[p, k])
            witness = (tuple(float(v) for v in X[:, p]), float(t), float(us[k]))
    return DivergenceReport(satisfied=worst >= -1e-12, worst_violation=worst,
                            witness=witness)


def check_lipschitz_in_u(flux: FluxModel, grid: Grid, M: float) -> float:
    """Empirical Lipschitz constant of u -> f(x,t,u) on |u| <= M, t in CHECK_TIMES,
    from difference quotients over adjacent points of a 10001-point u grid, with
    one flux call per t over the whole x lattice."""
    if not 0 < M < np.inf:
        raise ConfigError(f"Lipschitz check needs a finite u bound M > 0, got M={M}")
    X = _x_lattice(grid, per_axis=9)  # (n, P)
    us = np.linspace(-M, M, 10001)
    du = us[1] - us[0]
    u = np.broadcast_to(us, (X.shape[1], us.size))
    best = 0.0
    for t in CHECK_TIMES:
        fv = np.asarray(flux.f(X[:, :, None], t, u))  # (n, P, 10001)
        finite = np.isfinite(fv).all(axis=(0, 2))
        if not finite.all():
            raise RunError(
                f"non-finite flux value at x={tuple(X[:, finite.argmin()])}, t={t}")
        best = max(best, float(np.max(np.abs(np.diff(fv, axis=-1)) / du)))
    return best


# ---------------------------------------------------------------------------
# Plain-text configuration (key = value lines)
# ---------------------------------------------------------------------------

_KNOWN_KEYS = ("n", "L", "N", "alpha", "p0", "flux", "u0", "boundary")


def _parse_catalog_value(value: str) -> tuple[str, dict]:
    parts = value.split()
    if not parts:
        raise ConfigError("empty catalog entry")
    name, params = parts[0], {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed parameter {tok!r} (expected key=value)")
        key, _, val = tok.partition("=")
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric parameter {tok!r}") from exc
    return name, params


def read_config(text: str) -> dict[str, str]:
    """The raw settings of ``key = value`` lines ('#' starts a comment)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def problem_from_mapping(raw: dict[str, str]) -> Problem:
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    def scalar(key, parse, default):
        try:
            return parse(raw.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"non-numeric scalar setting {key}: {exc}") from exc
    n, L, N = scalar("n", int, "1"), scalar("L", float, "10"), scalar("N", int, "400")
    alpha, p0 = scalar("alpha", float, "1"), scalar("p0", float, "1")
    grid = Grid(n=n, L=L, N=N)
    flux_name, flux_params = _parse_catalog_value(raw.get("flux", "zero"))
    u0_name, u0_params = _parse_catalog_value(raw.get("u0", "gaussian"))
    if u0_name == "barenblatt":
        u0_params.setdefault("alpha", alpha)
    return Problem(grid=grid, alpha=alpha, p0=p0,
                   flux=flux_from_config(flux_name, flux_params, n),
                   u0=u0_from_config(u0_name, u0_params, n),
                   boundary_policy=raw.get("boundary", "zero_flux"))
