"""Output checks computed apart from pmelab.

Every function here reads what the program wrote (CSV/JSON files, or raw
solver states saved by the worker) and recomputes the expected property with
numpy alone: grids, initial data, the Barenblatt profile, norms, envelopes and
power-law fits are evaluated from their closed forms. Each check returns a list
of human-readable problems; an empty list means the output passed. Nothing is
compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

ROUNDOFF = 1e-12


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """pmelab CSV: one '# schema' line, a header line, then numeric rows."""
    with open(path, encoding="utf-8") as fh:
        schema = fh.readline()
        if not schema.startswith("# pmelab csv"):
            raise ValueError(f"{path}: missing pmelab csv header")
        columns = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return columns, data


def read_decay_csv(path) -> dict:
    """decay-series rows grouped as {(alpha, q): (t array, norm array)}; q is
    the program's spelling ('1.0', '2.0', 'inf')."""
    series: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[2:]
    for line in lines:
        alpha, q, t, v = line.split(",")
        series.setdefault((float(alpha), q), []).append((float(t), float(v)))
    return {k: (np.array([p[0] for p in v]), np.array([p[1] for p in v]))
            for k, v in series.items()}


def cell_centers(L: float, N: int) -> np.ndarray:
    dx = 2.0 * L / N
    return -L + (np.arange(N) + 0.5) * dx


def _close(a, b, rtol=ROUNDOFF) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _nonincreasing(values, name: str, rtol: float = ROUNDOFF) -> list[str]:
    out = []
    for j in range(1, len(values)):
        if values[j] > values[j - 1] * (1.0 + rtol):
            out.append(f"{name} rises by {values[j] / values[j - 1] - 1.0:.3e} "
                       f"between snapshots {j - 1} and {j}")
    return out


# ---------------------------------------------------------------------------
# figure1-1d
# ---------------------------------------------------------------------------

def check_figure1(csv_path, L: float, N: int) -> list[str]:
    """Unit Gaussian datum, conserved integral, nonnegative final profile that
    moved away from the datum."""
    cols, d = read_csv(csv_path)
    if cols != ["x", "u_initial", "u_final"] or d.shape != (N, 3):
        return [f"figure1 csv has columns {cols} and shape {d.shape}"]
    x, u0, u1 = d.T
    problems = []
    if np.max(np.abs(x - cell_centers(L, N))) > 1e-12 * L:
        problems.append("figure1 x column is not the cell-centre grid")
    if np.max(np.abs(u0 - np.exp(-x * x))) > 1e-15:
        problems.append("figure1 initial profile is not exp(-x^2)")
    dx = 2.0 * L / N
    m0, m1 = float(np.sum(u0)) * dx, float(np.sum(u1)) * dx
    if not _close(m0, m1):
        problems.append(f"figure1 integral drifts by {(m1 - m0) / m0:.3e}")
    if np.min(u1) < 0.0:
        problems.append(f"figure1 final profile goes negative ({np.min(u1):.3e})")
    if np.max(np.abs(u1 - u0)) <= 0.01:
        problems.append("figure1 final profile did not move away from the datum")
    return problems


def check_sup_never_rises(snapshots: np.ndarray) -> list[str]:
    """Maximum principle for the step-size probe: max|u| per snapshot."""
    return _nonincreasing(np.max(np.abs(snapshots), axis=1), "probe max|u|")


# ---------------------------------------------------------------------------
# burgers-2d
# ---------------------------------------------------------------------------

def check_burgers_2d(csv_path, L: float, N: int, amp: float, width: float,
                     times: np.ndarray) -> list[str]:
    cols, d = read_csv(csv_path)
    S = len(times)
    if cols != ["t", "x0", "x1", "u"] or d.shape != (S * N * N, 4):
        return [f"run csv has columns {cols} and shape {d.shape}"]
    snaps = d.reshape(S, N * N, 4)
    problems = []
    if np.max(np.abs(snaps[:, 0, 0] - times)) > 1e-12 * times[-1] or \
            np.any(snaps[:, :, 0] != snaps[:, :1, 0]):
        problems.append("run snapshot times are not the requested ones")
    c = cell_centers(L, N)
    X, Y = np.meshgrid(c, c, indexing="ij")
    if (np.max(np.abs(snaps[:, :, 1] - X.ravel())) > 1e-12 * L
            or np.max(np.abs(snaps[:, :, 2] - Y.ravel())) > 1e-12 * L):
        problems.append("run x0/x1 columns are not the cell-centre grid")
    u = snaps[:, :, 3]
    expected0 = amp * np.exp(-(X * X + Y * Y).ravel() / width ** 2)
    if np.max(np.abs(u[0] - expected0)) > 1e-15 * amp:
        problems.append("run initial snapshot is not the requested Gaussian")
    cell = (2.0 * L / N) ** 2
    mass = np.sum(u, axis=1) * cell
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    if drift > ROUNDOFF:
        problems.append(f"run integral drifts by {drift:.3e}")
    if np.min(u) < 0.0:
        problems.append(f"run solution goes negative ({np.min(u):.3e})")
    problems += _nonincreasing(np.max(np.abs(u), axis=1), "run max|u|")
    problems += _nonincreasing(np.sqrt(np.sum(u * u, axis=1) * cell), "run L2 norm")
    return problems


# ---------------------------------------------------------------------------
# sandwich-1d
# ---------------------------------------------------------------------------

def sandwich_envelope(eps: float, L: float, N: int, p0: float, alpha: float) -> float:
    """max ||u0^(+/-) + eps psi||_p0^delta0 for u0 = x exp(-x^2), psi = exp(-x^2),
    delta0 = 2 p0 / (2 p0 + n alpha) in one dimension."""
    x = cell_centers(L, N)
    u0 = x * np.exp(-x * x)
    psi = np.exp(-x * x)
    dx = 2.0 * L / N
    delta0 = 2.0 * p0 / (2.0 * p0 + alpha)

    def norm(v):
        return (float(np.sum(np.abs(v) ** p0)) * dx) ** (1.0 / p0)

    return max(norm(np.maximum(-u0, 0.0) + eps * psi),
               norm(np.maximum(u0, 0.0) + eps * psi)) ** delta0


def check_sandwich(csv_path, eps_list, L: float, N: int, p0: float,
                   alpha: float) -> list[str]:
    cols, d = read_csv(csv_path)
    if cols != ["eps", "lower_violation", "upper_violation", "envelope"] or \
            d.shape != (len(eps_list), 4):
        return [f"sandwich csv has columns {cols} and shape {d.shape}"]
    problems = []
    for (eps, low, high, env), want_eps in zip(d, eps_list):
        if eps != want_eps:
            problems.append(f"sandwich row eps={eps!r}, requested {want_eps!r}")
        if low < -ROUNDOFF or high < -ROUNDOFF:
            problems.append(f"sandwich ordering violated at eps={eps:g} "
                            f"(lower {low:.3e}, upper {high:.3e})")
        expected = sandwich_envelope(eps, L, N, p0, alpha)
        if not _close(env, expected):
            problems.append(f"sandwich envelope {env!r} at eps={eps:g}, "
                            f"closed form gives {expected!r}")
    order = np.argsort(-d[:, 0])
    env = d[order, 3]
    if not np.all(np.diff(env) < 0.0):
        problems.append("sandwich envelope does not decrease with eps")
    return problems


# ---------------------------------------------------------------------------
# diffusion-1d
# ---------------------------------------------------------------------------

def barenblatt(x, t: float, alpha: float, C: float, n: int = 1) -> np.ndarray:
    """U(x,t) = s^-k (C - b r^2 s^(-2k/n))_+^(1/alpha), s = t/(alpha+1),
    k = n/(n alpha + 2), b = k alpha / (2 (alpha+1) n); x has shape (n, ...)."""
    s = t / (alpha + 1.0)
    k = n / (n * alpha + 2.0)
    b = k * alpha / (2.0 * (alpha + 1.0) * n)
    r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=0)
    return s ** (-k) * np.maximum(C - b * r2 * s ** (-2.0 * k / n), 0.0) ** (1.0 / alpha)


def barenblatt_errors(profiles: dict, L: float, t1: float, alpha: float,
                      C: float) -> dict:
    """Discrete L1 distance between each final profile {N: values} and the
    exact profile at t1."""
    out = {}
    for N, values in sorted(profiles.items()):
        exact = barenblatt(cell_centers(L, N)[None, :], t1, alpha, C)
        out[N] = float(np.sum(np.abs(values - exact))) * (2.0 * L / N)
    return out


def check_barenblatt_ladder(csv_path, errors: dict) -> list[str]:
    """Errors recomputed by the benchmark agree with the program's, fall with
    N, and show an observed order >= 0.9 on the last pair."""
    cols, d = read_csv(csv_path)
    grids = sorted(errors)
    if cols[:3] != ["N", "interior_residual", "global_l1_error"] or \
            [int(v) for v in d[:, 0]] != grids:
        return [f"barenblatt csv has columns {cols} and grids {list(d[:, 0])}"]
    problems = []
    for (N, _, err, _), mine in zip(d, (errors[g] for g in grids)):
        if not _close(err, mine, rtol=1e-9):
            problems.append(f"barenblatt error at N={int(N)} is {err!r}, "
                            f"the benchmark measures {mine!r}")
    errs = [errors[g] for g in grids]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        problems.append(f"barenblatt errors do not fall with N: {errs}")
    order = math.log(errs[-2] / errs[-1]) / math.log(grids[-1] / grids[-2])
    if not order >= 0.9:
        problems.append(f"barenblatt observed order {order:.3f} < 0.9 on the last pair")
    return problems


def loglog_slope(t: np.ndarray, v: np.ndarray, window) -> float:
    keep = (t >= window[0]) & (t <= window[1])
    lt, lv = np.log(t[keep]), np.log(v[keep])
    lt0 = lt - lt.mean()
    return float(np.sum(lt0 * (lv - lv.mean())) / np.sum(lt0 * lt0))


def check_decay(csv_path, json_path, alphas, t_end: float, n: int = 1) -> list[str]:
    """q=1 norm constant; sup-norm slope fitted by the benchmark within 0.03 of
    -n/(n alpha + 2) and equal to the program's fit."""
    series = read_decay_csv(csv_path)
    with open(json_path, encoding="utf-8") as fh:
        fits = json.load(fh)["fits"]
    window = (t_end / 10.0, t_end)
    problems = []
    for alpha in alphas:
        if (alpha, "1.0") not in series or (alpha, "inf") not in series:
            problems.append(f"decay csv lacks the q=1 or q=inf series for alpha={alpha:g}")
            continue
        _, m = series[(alpha, "1.0")]
        if np.max(np.abs(m - m[0])) > ROUNDOFF * m[0]:
            problems.append(f"decay q=1 norm is not constant for alpha={alpha:g}")
        t, v = series[(alpha, "inf")]
        problems += _nonincreasing(v, f"decay sup norm (alpha={alpha:g})")
        slope = loglog_slope(t, v, window)
        rate = -n / (n * alpha + 2.0)
        if abs(slope - rate) > 0.03:
            problems.append(f"decay sup-norm slope {slope:.4f} is {abs(slope - rate):.4f} "
                            f"from {rate:.4f} for alpha={alpha:g}")
        reported = fits.get(f"alpha={alpha:g},q=inf", {}).get("slope")
        if reported is None or not _close(reported, slope, rtol=1e-9):
            problems.append(f"decay reported slope {reported} != benchmark fit {slope!r} "
                            f"for alpha={alpha:g}")
    return problems
