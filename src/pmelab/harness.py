"""Theorem-by-theorem numerical audits: norm monotonicity, the weighted energy
inequality, the smoothing-effect ratio, the sign-splitting comparison sandwich,
power-law decay fits, and the refinement study against an exact solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exponents, solver
from .errors import ConfigError, RunError
from .problem import Problem, State, problem_from_mapping, sample_initial
from .solver import RunResult, SchemeConfig

_trapezoid = getattr(np, "trapezoid", None) or np.trapz
# float64 values in one block of the sandwich's audited states (256 KiB)
AUDIT_BLOCK = 1 << 15


def lq_norm(state: State, q) -> float:
    """Discrete L^q norm (sum |u_i|^q dx^n)^(1/q); grid max for q = inf."""
    if q == math.inf:
        return float(np.max(np.abs(state.values))) if state.values.size else 0.0
    if q < 1:
        raise ConfigError(f"norm index must be >= 1 or inf, got {q}")
    total = float(np.sum(np.abs(state.values) ** q)) * state.grid.cell_volume
    return total ** (1.0 / q)


@dataclass(frozen=True)
class DecayRecord:
    series: list[tuple[float, float]]
    fitted_slope: float
    fitted_intercept: float
    r_squared: float


# fewest (t, norm) points inside the window that fit_decay fits a line through
FIT_MIN_POINTS = 5


def fit_decay(series: Sequence[tuple[float, float]],
              window: tuple[float, float]) -> tuple[float, float, float]:
    """Least-squares line through (log t, log norm) inside the window;
    returns (slope, intercept, r^2)."""
    t_lo, t_hi = window
    pts = [(t, v) for t, v in series if t_lo <= t <= t_hi]
    if len(pts) < FIT_MIN_POINTS:
        raise RunError(f"power-law fit needs >= {FIT_MIN_POINTS} points in window {window}, "
                       f"got {len(pts)}")
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(ts <= 0) or np.any(vs <= 0):
        raise RunError("power-law fit requires positive times and norms")
    lt, lv = np.log(ts), np.log(vs)
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(intercept), r2


def decay_record(result: RunResult, q, window: tuple[float, float]) -> DecayRecord:
    """DecayRecord of ||u(t)||_q along a RunResult's snapshots."""
    series = [(s.time, lq_norm(s, q)) for s in result.snapshots]
    slope, intercept, r2 = fit_decay(series, window)
    return DecayRecord(series=series, fitted_slope=slope, fitted_intercept=intercept, r_squared=r2)


# ---------------------------------------------------------------------------
# L^q monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    series: list[tuple[float, float]]
    max_uptick: float
    passed: bool


def audit_lq_monotonicity(result: RunResult, q_list: Sequence,
                          tolerance: float = 1e-8) -> dict:
    """The (t, ||u(t)||_q) series over the snapshots and its max relative uptick
    between consecutive snapshots, per q."""
    if len(result.snapshots) < 2:
        raise RunError("L^q monotonicity audit needs at least two snapshots")
    reports = {}
    for q in q_list:
        series = [(s.time, lq_norm(s, q)) for s in result.snapshots]
        norms = [v for _, v in series]
        scale = norms[0] if norms[0] > 0 else 1.0
        uptick = max((b - a) / scale for a, b in zip(norms, norms[1:]))
        reports[q] = MonotonicityReport(series=series, max_uptick=uptick,
                                        passed=uptick <= tolerance)
    return reports


# ---------------------------------------------------------------------------
# Weighted energy inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyAudit:
    lhs_dissipation_term: float
    rhs_term: float
    margin: float
    passed: bool


def _grad_sq(state: State) -> np.ndarray:
    """Central-difference |grad u|^2 with edge-copied ghosts."""
    dx = state.grid.dx
    g2 = np.zeros_like(state.values)
    for ax in range(state.grid.n):
        u = state.values.swapaxes(0, ax)
        up = np.concatenate((u[:1], u, u[-1:]))
        g2 += (((up[2:] - up[:-2]) / (2.0 * dx)) ** 2).swapaxes(0, ax)
    return g2


def audit_energy_inequality(result: RunResult, q: float, gamma: float, t0: float,
                            alpha: float, slack: float = 0.05) -> EnergyAudit:
    """Discrete check of the weighted inequality
    (t-t0)^g ||u(t)||_q^q + q(q-1) int (tau-t0)^g int |u|^(q-2+a) |grad u|^2
    <= g int (tau-t0)^(g-1) ||u(tau)||_q^q,
    with trapezoidal time quadrature and a stated discretization slack."""
    if gamma <= 1:
        raise ConfigError(f"weight exponent must be > 1, got {gamma}")
    if q < 2:
        raise ConfigError(f"norm index must be >= 2, got {q}")
    snaps = [s for s in result.snapshots if s.time >= t0]
    if len(snaps) < 20:
        raise RunError(f"energy audit needs >= 20 snapshots in [{t0}, t], got {len(snaps)}")
    t = snaps[-1].time
    taus = np.array([s.time for s in snaps])
    norm_q = np.array([lq_norm(s, q) ** q for s in snaps])
    dissip = np.array([
        float(np.sum(np.abs(s.values) ** (q - 2.0 + alpha) * _grad_sq(s)))
        * s.grid.cell_volume
        for s in snaps])
    w = (taus - t0) ** gamma
    lhs_norm = (t - t0) ** gamma * norm_q[-1]
    lhs_diss = q * (q - 1.0) * float(_trapezoid(w * dissip, taus))
    rhs = gamma * float(_trapezoid((taus - t0) ** (gamma - 1.0) * norm_q, taus))
    margin = rhs - (lhs_norm + lhs_diss)
    return EnergyAudit(lhs_dissipation_term=lhs_diss, rhs_term=rhs, margin=margin,
                       passed=margin >= -slack * rhs)


# ---------------------------------------------------------------------------
# Smoothing-effect ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingReport:
    gamma0: float
    last_decade_variation: float
    passed: bool


def audit_smoothing(result: RunResult, p0: float, alpha: float) -> SmoothingReport:
    """Constancy audit of ||u(t)||_inf t^gamma0 / ||u0||_p0^delta0 along snapshots."""
    if not result.snapshots:
        raise RunError("smoothing audit: empty run result")
    n = result.snapshots[0].grid.n
    delta0, gamma0 = exponents.smoothing_exponents(n, p0, alpha)
    norm0 = lq_norm(result.snapshots[0], p0)
    if norm0 <= 0:
        raise RunError("smoothing audit: initial datum has zero L^p0 norm")
    ratios = [(s.time, lq_norm(s, math.inf) * s.time ** gamma0 / norm0 ** delta0)
              for s in result.snapshots if s.time > 0]
    if not ratios:
        raise RunError("smoothing audit: no snapshots with t > 0")
    t_max = ratios[-1][0]
    last = np.array([r for t, r in ratios if t >= t_max / 10.0])
    variation = float((last.max() - last.min()) / last.min()) if last.min() > 0 else math.inf
    return SmoothingReport(gamma0=gamma0, last_decade_variation=variation, passed=variation < 0.5)


# ---------------------------------------------------------------------------
# Sign-splitting comparison sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    max_lower_violation: float
    max_upper_violation: float
    envelope: float
    step_count: int


def sandwich_envelope(problem: Problem, lower: State, upper: State) -> float:
    """max{||lower||_q, ||upper||_q}^delta with q = p0; for the outer data
    -u0^- - eps psi and u0^+ + eps psi, the norms of u0^- + eps psi and u0^+ + eps psi."""
    delta0, _ = exponents.smoothing_exponents(problem.grid.n, problem.p0, problem.alpha)
    return max(lq_norm(lower, problem.p0), lq_norm(upper, problem.p0)) ** delta0


def run_sandwich(problem: Problem, eps: float,
                 psi: Callable[[np.ndarray], np.ndarray],
                 config: SchemeConfig) -> SandwichReport:
    """Three lockstep runs from -u0^- - eps psi <= u0 <= u0^+ + eps psi, stepped
    as the rows of one stacked state and so sharing one dt sequence (the minimum
    of the three stability bounds per step) that lands on config's snapshot times;
    reports the most negative pointwise ordering violation over the initial and
    every stepped state, whose minima are taken once per block of
    max(1, AUDIT_BLOCK // values.size) states, bit for bit the per-state minima."""
    if not 0 < eps < math.inf:
        raise ConfigError(f"perturbation size must be finite and > 0, got {eps}")
    grid = problem.grid
    psi_vals = np.broadcast_to(np.asarray(psi(grid.cell_centers()), float), grid.shape)
    if np.any(psi_vals <= 0):
        raise ConfigError("sandwich weight psi must be strictly positive on the grid")
    mid = sample_initial(problem)
    low = State(values=-np.maximum(-mid.values, 0.0) - eps * psi_vals, time=0.0, grid=grid)
    high = State(values=np.maximum(mid.values, 0.0) + eps * psi_vals, time=0.0, grid=grid)
    envelope = sandwich_envelope(problem, low, high)

    stack = State(values=np.stack((low.values, mid.values, high.values)), time=0.0, grid=grid)
    block = np.empty((max(1, AUDIT_BLOCK // stack.values.size),) + stack.values.shape)
    block[0], size = stack.values, len(block)  # step i's state goes to row i % size
    lows, highs = [], []  # the two minima of each block

    def reduce(states: np.ndarray) -> None:
        lo, u, hi = states.swapaxes(0, 1)
        lows.append(float((u - lo).min()))
        highs.append(float((hi - u).min()))

    steps = 0
    for state, dt in solver.advance(stack, problem, config, solver.plan(stack, problem),
                                    names=("lower", "middle", "upper")):
        if dt is not None:
            steps += 1
            row = steps % size
            if not row:
                reduce(block)
            block[row] = state.values
    reduce(block[:steps % size + 1])
    return SandwichReport(max_lower_violation=min(lows),
                          max_upper_violation=min(highs),
                          envelope=envelope, step_count=steps)


# ---------------------------------------------------------------------------
# Refinement study against an exact solution
# ---------------------------------------------------------------------------

def refinement_study(settings: dict, grids: Sequence[int],
                     exact: Callable[[np.ndarray, float], np.ndarray],
                     t0: float, t1: float) -> tuple[list[float], list[float]]:
    """L1 errors against exact(x, t1) of one run per N in grids, settings with that N
    run from t0 to t1, and the orders log(e0/e1)/log(n1/n0) between consecutive grids."""
    errors = []
    for N in grids:
        problem = problem_from_mapping({**settings, "N": str(N)})
        u = solver.run(problem, SchemeConfig(t_end=t1 - t0)).snapshots[-1].values
        gap = np.abs(u - exact(problem.grid.cell_centers(), t1))
        errors.append(float(np.sum(gap)) * problem.grid.cell_volume)
    orders = [math.log(e0 / e1) / math.log(n1 / n0)
              for n0, n1, e0, e1 in zip(grids, grids[1:], errors, errors[1:])]
    return errors, orders
