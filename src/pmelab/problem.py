"""Continuous problem definitions: grids, advection flux models, initial data,
and sampled checks of the structural hypotheses on the flux.

A flux f_j(x, u) = a_j(x) g(u) is stated by its Engquist-Osher `FluxSplit`, by
which the solver steps it, and the checks read that split: the sign condition
from div a(x) g(u) u, the Lipschitz constant in u from max|a| max|g'|. The
split's stated derivatives (div_a, |g'|) are verified by finite differences,
never trusted. The evaluators f and df_du of a `FluxModel`, pointwise
callables ``(x, u) -> (n,) + shape(u)`` (possibly read-only views), are held
to the split by the same check; the solver never calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, RunError

BOUNDARY_POLICIES = ("zero_flux", "dirichlet_zero")


def _square(v: float) -> float:
    """v ** 2 as Python's pow gives it (not always v * v), inf where that overflows."""
    try:
        return v ** 2
    except OverflowError:
        return np.inf


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
        if not 0 < _square(self.dx) < np.inf:  # the solver divides by dx ** 2
            raise ConfigError(f"cell width 2L/N must have a square that is > 0 and finite, "
                              f"got L={self.L}, N={self.N}")

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
    """The Engquist-Osher split of a flux f_j(x, u) = a_j(x) g(u), by which the
    solver steps it (Engquist & Osher, Math. Comp. 36, 1981).

    g = g_up + g_down, with g_up nondecreasing, g_down nonincreasing, and at
    each u at most one of them changing, so |g'| = g_up' - g_down'. The flux at
    the interface x between the states u_l and u_r is f+(x, u_l) + f-(x, u_r),
    with f+ = a+ g_up + a- g_down nondecreasing and f- = a- g_up + a+ g_down
    nonincreasing in u (a+ = max(a, 0), a- = min(a, 0)); f+ + f- = f. Both
    slopes are bounded by |a(x)| |g'(u)| = |df/du|.

    `a` is a function of x (shape (n,) + cells, as for f); the solver evaluates
    it once per grid and axis, on the interfaces. `div_a(x)` is
    sum_j d a_j/d x_j, of shape cells. `g(u, out)` is pointwise: once per step
    it gets the whole padded state, flat after a stacked state's branch axis:
    one ghost cell on each side of every axis, the corner ghost cells of 2-D
    at 0. With it come three scratch arrays of u's shape, as a tuple, and it
    returns (g_up(u), g_down(u), |g'(u)|), each of them u itself, one of the
    scratch arrays or a new array, and g_down as None where it is 0 (g
    nondecreasing). It leaves u as it is: the solver sets the ghost cells
    under dirichlet_zero once per run. `check_flux_consistency` checks the
    rest."""

    a: Callable[[np.ndarray], np.ndarray]
    div_a: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, tuple[np.ndarray, ...]], tuple]


@dataclass(frozen=True)
class FluxModel:
    """A flux by its `FluxSplit`, which the solver steps and the checks read,
    and the evaluators f(x, u) and df/du(x, u) that `check_flux_consistency`
    holds the split to. The evaluators must broadcast x against u, and must not
    reduce over cell axes or mix values between cells."""

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_du: Callable[[np.ndarray, np.ndarray], np.ndarray]
    split: FluxSplit


@dataclass(frozen=True)
class State:
    """Discrete solution snapshot: cell averages on a grid at one time. The values
    have the grid's shape, or (B,) + grid shape for B >= 1 solutions (branches)
    stacked along a leading axis and stepped together.

    A State keeps a read-only C-ordered copy of the values, so later writes to
    the caller's array do not reach it, and checks that each is finite."""

    values: np.ndarray
    time: float
    grid: Grid

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, order="C")
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
        if not np.isfinite(2.0 * self.p0 + self.grid.n * self.alpha):
            raise ConfigError(f"p0={self.p0}, n={self.grid.n} and alpha={self.alpha} overflow "
                              "the smoothing exponents' denominator 2 p0 + n alpha")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigError(
                f"boundary policy must be one of {BOUNDARY_POLICIES}, "
                f"got {self.boundary_policy!r}")


def sample_initial(problem: Problem) -> State:
    """Pointwise sample of the initial datum at cell centers, as a t=0 state."""
    centers = problem.grid.cell_centers()
    # a view: State keeps its own copy, and scans it for a non-finite value
    vals = np.broadcast_to(np.asarray(problem.u0(centers), dtype=float), problem.grid.shape)
    try:
        return State(values=vals, time=0.0, grid=problem.grid)
    except RunError:
        idx = tuple(int(k) for k in np.argwhere(~np.isfinite(vals))[0])
        x = tuple(float(centers[(a,) + idx]) for a in range(problem.grid.n))
        raise RunError(f"initial datum is non-finite at cell {idx}, x={x}") from None


# ---------------------------------------------------------------------------
# Built-in flux catalog
# ---------------------------------------------------------------------------

def zero_evaluator(x, u):
    """f and df_du of the zero flux, for any n = len(x)."""
    return np.zeros((np.shape(x)[0],) + np.shape(u))


def _no_divergence(x):
    # div_a of a split whose a does not depend on x
    return np.zeros(np.shape(x)[1:])


def _zero_g(u, out):
    zeros = out[0]
    zeros.fill(0.0)
    return zeros, None, zeros


# The zero flux's split, for any n. The solver skips the advective half of the
# step for a flux whose split is this very object (by identity, never by value).
ZERO_SPLIT = FluxSplit(a=lambda x: np.zeros(np.shape(x)), div_a=_no_divergence, g=_zero_g)


def zero_flux_model(n: int = 1) -> FluxModel:
    return FluxModel(name="zero", f=zero_evaluator, df_du=zero_evaluator, split=ZERO_SPLIT)


def _identity_g(u, out):
    # g = u: all of it nondecreasing, |g'| = 1
    ones = out[2]
    ones.fill(1.0)
    return u, None, ones


def linear_flux_model(c: float = 1.0, n: int = 1) -> FluxModel:
    """f_j = c_j u, split as max(c_j, 0) u + min(c_j, 0) u: upwind."""
    cvec = np.broadcast_to(np.asarray(c, dtype=float), (n,))

    def f(x, u):
        u = np.asarray(u, dtype=float)
        return np.stack([cj * u for cj in cvec])

    def df_du(x, u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.full(u.shape, cj) for cj in cvec])

    return FluxModel(name="linear", f=f, df_du=df_du,
                     split=FluxSplit(a=lambda x: np.broadcast_to(
                         cvec.reshape((n,) + (1,) * (np.ndim(x) - 1)), np.shape(x)),
                         div_a=_no_divergence, g=_identity_g))


_ZERO, _HALF = np.array(0.0), np.array(0.5)  # numpy converts a float operand at every call


def _burgers_g(u, out):
    # g = u^2/2 = max(u, 0)^2/2 + min(u, 0)^2/2, |g'| = |u|
    up, down, slope = out
    np.maximum(u, _ZERO, out=up)
    up *= up
    up *= _HALF
    np.minimum(u, _ZERO, out=down)
    down *= down
    down *= _HALF
    return up, down, np.abs(u, out=slope)


def burgers_flux_model(n: int = 1) -> FluxModel:
    """f_j = u^2/2 in every component, split as max(u, 0)^2/2 + min(u, 0)^2/2."""
    # all components are equal: one array as a read-only (n,) view
    def f(x, u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(0.5 * u * u, (n,) + u.shape)

    def df_du(x, u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(u, (n,) + u.shape)

    return FluxModel(name="burgers", f=f, df_du=df_du,
                     split=FluxSplit(a=lambda x: np.ones(np.shape(x)), div_a=_no_divergence,
                                     g=_burgers_g))


def figure1_flux_model(k: float = 1.5) -> FluxModel:
    """One-dimensional flux f(x, u) = -tanh(x) |u|^k u, split as a(x) = -tanh(x)
    and g = |u|^k u, which is nondecreasing. div a = -sech^2(x) < 0, so the
    x-divergence at frozen u is negative where u != 0 (the growth-stimulating
    regime)."""
    if not 0 < k < np.inf:
        raise ConfigError(f"flux power k must be finite and > 0, got {k}")

    def f(x, u):
        u = np.asarray(u, dtype=float)
        return (-np.tanh(x[0]) * np.abs(u) ** k * u)[None]

    def df_du(x, u):
        u = np.asarray(u, dtype=float)
        return (-(k + 1.0) * np.tanh(x[0]) * np.abs(u) ** k)[None]

    k1 = np.array(k + 1.0)  # 0-d: numpy converts a float operand at every call

    def g(u, out):
        power, value, _ = out
        np.abs(u, out=power)
        power **= k
        np.multiply(power, u, out=value)
        power *= k1
        return value, None, power

    return FluxModel(name="figure1", f=f, df_du=df_du,
                     split=FluxSplit(a=lambda x: -np.tanh(x),
                                     div_a=lambda x: -1.0 / np.cosh(x[0]) ** 2, g=g))


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
    w2 = _square(width) if width > 0 else 0.0
    if not 0 < w2 < np.inf or 1.0 / w2 == np.inf:
        raise ConfigError(f"initial datum 'gaussian' parameter width must be > 0, with a "
                          f"square and its reciprocal > 0 and finite, got {width}")
    return lambda x: amp * np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / w2)


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
    max_split_error: float
    ok: bool


def _halves(split: FluxSplit, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g_up(u), g_down(u) (zeros where the split gives None) and |g'(u)|, each a
    new array (g may hand back u or its scratch)."""
    up, down, slope = split.g(u, tuple(np.empty_like(u) for _ in range(3)))
    down = np.zeros_like(u) if down is None else down
    return np.array(up), np.array(down), np.array(slope)


# check_flux_consistency, check_divergence_condition and check_lipschitz_in_u scan
# what they compute with np.isfinite and raise a RunError naming x and u, so each runs
# under np.errstate(all="ignore"): numpy's overflow and invalid-value warnings would
# only repeat that error, with this file's path and line
@np.errstate(all="ignore")
def check_flux_consistency(flux: FluxModel, grid: Grid,
                           u_range: tuple[float, float] = (-1.0, 1.0)) -> ConsistencyReport:
    """Finite-difference verification, at 1000 (x, u) samples drawn from seed
    12345, that df_du matches f, the split's div_a matches its a, and the split
    matches f and df_du (see `_split_errors`), to a relative error of 1e-5, with
    all samples evaluated at once."""
    samples = 1000
    rng = np.random.default_rng(12345)
    n = grid.n
    xs = rng.uniform(-grid.L, grid.L, size=(n, samples))
    us = rng.uniform(u_range[0], u_range[1], size=samples)
    h = 1e-6 * np.maximum(1.0, np.abs(us))
    fd_du = (np.asarray(flux.f(xs, us + h)) - np.asarray(flux.f(xs, us - h))) / (2 * h)
    stated_du = np.asarray(flux.df_du(xs, us))

    a = flux.split.a
    hx = 1e-6 * np.maximum(1.0, np.max(np.abs(xs), axis=0))
    fd_div = np.zeros(samples)
    for j in range(n):
        xp, xm = xs.copy(), xs.copy()
        xp[j] += hx
        xm[j] -= hx
        fd_div += (np.asarray(a(xp))[j] - np.asarray(a(xm))[j]) / (2 * hx)
    stated_div = np.broadcast_to(np.asarray(flux.split.div_a(xs)), (samples,))
    err_split = _split_errors(flux, xs, us, h, stated_du)

    bad_du = ~np.all(np.isfinite(fd_du) & np.isfinite(stated_du), axis=0)
    bad_div = ~(np.isfinite(fd_div) & np.isfinite(stated_div))
    bad = bad_du | bad_div | ~np.isfinite(err_split)
    if np.any(bad):
        i = int(np.argmax(bad))
        what = "derivative" if bad_du[i] else "divergence" if bad_div[i] else "split"
        raise RunError(f"non-finite flux {what} at x={xs[:, i]}, u={us[i]}")
    err_du = (np.max(np.abs(fd_du - stated_du), axis=0)
              / np.maximum(1.0, np.max(np.abs(stated_du), axis=0)))
    err_div = np.abs(fd_div - stated_div) / np.maximum(1.0, np.abs(stated_div))
    worst_du = float(np.max(err_du, initial=0.0))
    worst_div = float(np.max(err_div, initial=0.0))
    worst_split = float(np.max(err_split, initial=0.0))
    return ConsistencyReport(max_df_du_error=worst_du, max_div_error=worst_div,
                             max_split_error=worst_split,
                             ok=max(worst_du, worst_div, worst_split) <= 1e-5)


def _split_errors(flux: FluxModel, xs, us, h, stated_du) -> np.ndarray:
    """Per sample, the worst relative error of the flux's split: a (g_up + g_down)
    against f, |a| |g'| against |df_du|, and by central differences of step h,
    g_up' - g_down' against |g'|, with g_up' >= 0 >= g_down' (a decrease of g_up
    or an increase of g_down counts as error). Where these hold, the solver's
    interface flux is monotone under its step-size rule."""
    up, down, slope = _halves(flux.split, us)
    up_hi, down_hi, _ = _halves(flux.split, us + h)
    up_lo, down_lo, _ = _halves(flux.split, us - h)
    d_up, d_down = (up_hi - up_lo) / (2 * h), (down_hi - down_lo) / (2 * h)
    a = np.asarray(flux.split.a(xs), dtype=float)
    f = np.asarray(flux.f(xs, us))
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
    witness: tuple[tuple[float, ...], float]  # (x, u)


# fewest u points of the divergence check's lattice
DIVERGENCE_MIN_SAMPLES = 64


@np.errstate(all="ignore")
def check_divergence_condition(flux: FluxModel, grid: Grid,
                               u_range: tuple[float, float],
                               samples: int = DIVERGENCE_MIN_SAMPLES) -> DivergenceReport:
    """Sampled check of the sign condition sum_j d f_j/d x_j (x, u) * u >= 0,
    read from the split as div_a(x) (g_up + g_down)(u) u, over a deterministic
    lattice of x and `samples` u points."""
    if samples < DIVERGENCE_MIN_SAMPLES:
        raise ConfigError(f"need at least {DIVERGENCE_MIN_SAMPLES} u samples, got {samples}")
    lo, hi = float(u_range[0]), float(u_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ConfigError(f"u range must be a bounded interval, got {u_range}")
    X = _x_lattice(grid, per_axis=33)  # (n, P)
    us = np.linspace(lo, hi, samples)
    up, down, _ = _halves(flux.split, us)
    vals = np.asarray(flux.split.div_a(X))[:, None] * (up + down) * us  # (P, samples)
    if not np.all(np.isfinite(vals)):
        p, k = np.argwhere(~np.isfinite(vals))[0]
        raise RunError(f"non-finite flux divergence at x={tuple(X[:, p].tolist())}, u={us[k]}")
    p, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
    worst = float(vals[p, k])
    return DivergenceReport(satisfied=worst >= -1e-12, worst_violation=worst,
                            witness=(tuple(float(v) for v in X[:, p]), float(us[k])))


@np.errstate(all="ignore")
def check_lipschitz_in_u(flux: FluxModel, grid: Grid, M: float) -> float:
    """The Lipschitz constant of u -> f(x, u) on |u| <= M, read from the split as
    max |a_j| over the x lattice times max |g'| over a 10001-point u grid: the
    sup of |df/du| = |a| |g'| over those points."""
    if not 0 < M < np.inf:
        raise ConfigError(f"Lipschitz check needs a finite u bound M > 0, got M={M}")
    X = _x_lattice(grid, per_axis=9)  # (n, P)
    us = np.linspace(-M, M, 10001)
    a = np.abs(np.asarray(flux.split.a(X), dtype=float))
    slope = _halves(flux.split, us)[2]
    finite_x, finite_u = np.isfinite(a).all(axis=0), np.isfinite(slope)
    if not finite_x.all():
        raise RunError(f"non-finite split a at x={tuple(X[:, finite_x.argmin()].tolist())}")
    if not finite_u.all():
        raise RunError(f"non-finite flux derivative |g'| at u={us[finite_u.argmin()]}")
    return float(np.max(a) * np.max(slope))


# ---------------------------------------------------------------------------
# Plain-text configuration (key = value lines)
# ---------------------------------------------------------------------------

_KNOWN_KEYS = ("n", "L", "N", "alpha", "p0", "flux", "u0", "boundary")


def parse_catalog_value(value: str) -> tuple[str, dict]:
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
    flux_name, flux_params = parse_catalog_value(raw.get("flux", "zero"))
    u0_name, u0_params = parse_catalog_value(raw.get("u0", "gaussian"))
    if u0_name == "barenblatt":
        u0_params.setdefault("alpha", alpha)
    return Problem(grid=grid, alpha=alpha, p0=p0,
                   flux=flux_from_config(flux_name, flux_params, n),
                   u0=u0_from_config(u0_name, u0_params, n),
                   boundary_policy=raw.get("boundary", "zero_flux"))
