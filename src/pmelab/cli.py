"""Command-line front end: runs, audits, and deterministic CSV/JSON/SVG reports.

Output file names carry a stamp that hashes every option as parsed (not wall
clock), so identical invocations overwrite themselves byte-identically.
Exit codes: 0 success and audits passing, 1 audit failure or RunError,
2 usage error or ConfigError, an unreadable --config or an unusable --outdir
among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import barenblatt, exponents, harness, solver, svg
from .errors import ConfigError, RunError
from .problem import (ALPHA_MIN, DIVERGENCE_MIN_SAMPLES, Grid, Problem,
                      check_divergence_condition, check_flux_consistency, check_lipschitz_in_u,
                      flux_from_config, parse_catalog_value, problem_from_mapping, read_config,
                      sample_initial)


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _table(schema: str, columns: list[str], rows) -> list[str]:
    """The text of a CSV: its schema line and header, then one line per row."""
    return ([f"# pmelab csv v1 schema={schema}\n{','.join(columns)}\n"]
            + [",".join(_cell(v) for v in row) + "\n" for row in rows])


def _on_path(option: str, path: str, call, **kwargs):
    """call(path, **kwargs); an OSError, such as a directory given for a file
    or a file for a directory, is a ConfigError naming the option."""
    try:
        return call(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"{option} {path!r} is unusable: {exc.strerror}") from None


def _problem_from_args(args, base: dict[str, str] | None = None) -> tuple[Problem, dict]:
    """The problem and the settings made of `base`, then the --config file, then
    each --set, a later key replacing an earlier one."""
    raw = dict(base or {})
    if args.config:
        with _on_path("--config", args.config, open, encoding="utf-8") as fh:
            raw.update(read_config(fh.read()))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return problem_from_mapping(raw), raw


def _entries(option: str, text: str, parse) -> list:
    """The comma-separated entries of `option`; a non-numeric one is a ConfigError
    naming the option."""
    try:
        return [parse(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{option} has a non-numeric entry: {exc}") from None


def _number_list(option: str, text: str, admissible, requirement: str) -> list[float]:
    """The comma-separated numbers of `option` ('inf' or 'oo' for infinity), every
    entry checked before any work; a bad or repeated one is a ConfigError naming
    the option."""
    values = _entries(option, text, lambda s: math.inf if s in ("inf", "oo") else float(s))
    for i, v in enumerate(values):
        if not admissible(v):
            raise ConfigError(f"{option} entries must be {requirement}, got {v}")
        if v in values[:i]:
            raise ConfigError(f"{option} entries must differ, got {v} twice")
    return values


# a run passes when its mass budget closes and no wall passes mass, each to
# this share of ||u0||_1
BUDGET_TOLERANCE = 1e-12


def _mass_budget(result: solver.RunResult) -> tuple[list, float, float]:
    """The [t, signed mass] at each landing of a run that lands at t = 0, the
    residual M(T) - M(0) + total wall outflow, and the largest |wall outflow|."""
    masses = [[s.time, float(np.sum(s.values)) * s.grid.cell_volume] for s in result.snapshots]
    residual = masses[-1][1] - masses[0][1] + sum(sum(w) for w in result.wall_outflow)
    return masses, residual, max(abs(v) for w in result.wall_outflow for v in w)


def _snapshot_csv(result: solver.RunResult) -> Iterable[str]:
    """The text of the run CSV, _table's header and then one piece per snapshot:
    columns t, x0[, x1], u, one row per cell, each value as %.17g (the text of
    _cell). The N cell centers of an axis and the distinct u values of a
    snapshot (by bit pattern, so -0.0 and 0.0 stay apart) are each formatted
    once, and every row joins its text from them by index, so the bytes equal
    %.17g of every cell."""
    grid = result.snapshots[0].grid
    centers = ["%.17g" % c for c in grid.axis_centers().tolist()]
    # row i of a snapshot at time text T is T + tails[i] % text(u[i]), cells in C order
    tails = ["," + ",".join(x) + ",%s\n"
             for x in itertools.product(centers, repeat=grid.n)]
    yield from _table("run-snapshots", ["t"] + [f"x{a}" for a in range(grid.n)] + ["u"], ())
    for snap in result.snapshots:
        t = "%.17g" % snap.time
        bits, inverse = np.unique(snap.values.ravel().view(np.int64), return_inverse=True)
        texts = ["%.17g" % v for v in bits.view(np.float64).tolist()]
        yield (t + t.join(tails)) % tuple(map(texts.__getitem__, inverse.tolist()))


@dataclasses.dataclass(frozen=True)
class Report:
    """What one command made: the values its parsing made of its options (a
    --set/--config mapping, a parsed list), the text of its CSV in pieces, the
    JSON summary with its verdict under "passed", the stdout line before that
    verdict, and the SVG curves with the keywords of svg.write_svg, if the
    command plots."""

    settings: dict
    csv: Iterable[str]
    summary: dict
    line: str
    curves: list | None = None
    plot: dict = dataclasses.field(default_factory=dict)


def _stamp(args, settings: dict) -> str:
    """A hash of every option as parsed: the options other than --outdir,
    --config and --set that hold a value, updated with what parsing made."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("outdir", "func", "config", "set") and v is not None}
    canon = json.dumps({**options, **settings}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:10]


def _emit(args, report: Report) -> int:
    """Write the report's files into --outdir as <command>_<stamp>.{csv,json,svg},
    the CSV piece by piece, print its line with the verdict, and return the exit
    code: 0 if it passed, else 1."""
    stem = os.path.join(args.outdir, f"{args.command}_{_stamp(args, report.settings)}")
    summary = [json.dumps(report.summary, indent=2, sort_keys=True), "\n"]
    for path, pieces in ((stem + ".csv", report.csv), (stem + ".json", summary)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    if report.curves is not None:
        svg.write_svg(stem + ".svg", report.curves, **report.plot)
    passed = report.summary["passed"]
    print(f"{report.line} passed={passed}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Commands: each checks its input, computes and returns a Report
# ---------------------------------------------------------------------------

def cmd_run(args) -> Report:
    if args.snapshots < 1:
        raise ConfigError(f"--snapshots must be >= 1, got {args.snapshots}")
    problem, raw = _problem_from_args(args)
    # SchemeConfig rejects a non-finite t_end before linspace computes with it
    config = solver.SchemeConfig(t_end=args.t_end, cfl_safety=args.cfl)
    config = dataclasses.replace(
        config, snapshot_times=tuple(np.linspace(0.0, args.t_end, args.snapshots)))
    result = solver.run(problem, config)
    masses, residual, largest = _mass_budget(result)
    summary = {
        "step_count": result.step_count,
        "min_dt": result.min_dt,
        "max_dt": result.max_dt,
        "masses": masses,
        "wall_outflow": result.wall_outflow,
        "budget_residual": residual,
        "passed": max(abs(residual), largest)
                  <= BUDGET_TOLERANCE * harness.lq_norm(result.snapshots[0], 1),
    }
    x = problem.grid.axis_centers()
    curves = [svg.Curve(x, result.snapshots[0].values, label="initial", dashed=True),
              svg.Curve(x, result.snapshots[-1].values, label="final")]
    return Report(raw, _snapshot_csv(result), summary,
                  f"run: steps={result.step_count} "
                  f"wall_outflow_max={largest:.3e}",
                  curves if problem.grid.n == 1 else None,  # a 2-D run has no plot
                  dict(title="solution", xlabel="x", ylabel="u"))


def cmd_figure1(args) -> Report:
    problem = problem_from_mapping({
        "flux": f"figure1 k={args.k!r}", "u0": "gaussian", "alpha": repr(args.alpha),
        "L": repr(args.L), "N": str(args.N)})
    snap_times = tuple(float(j) * args.t_end / 5.0 for j in range(6))
    result = solver.run(problem, solver.SchemeConfig(t_end=args.t_end,
                                                     snapshot_times=snap_times))
    x = problem.grid.axis_centers()
    u0 = result.snapshots[0].values
    u_final = result.snapshots[-1].values
    audit = harness.audit_lq_monotonicity(result, (1.0,), tolerance=0.005)[1.0]
    changed = float(np.max(np.abs(u_final - u0))) > 0.01
    summary = {
        "l1_series": [[t, v] for t, v in audit.series],
        "l1_max_relative_uptick": audit.max_uptick,
        "l1_nonincreasing_within_half_percent": audit.passed,
        "solution_moved": changed,
        "wall_outflow": result.wall_outflow,
        "budget_residual": _mass_budget(result)[1],
        "step_count": result.step_count,
        "passed": bool(audit.passed and changed),
    }
    return Report(
        {}, _table("figure1-profiles", ["x", "u_initial", "u_final"], zip(x, u0, u_final)),
        summary, f"figure1: l1_uptick={audit.max_uptick:.3e}",
        [svg.Curve(x, u0, label="initial", dashed=True),
         svg.Curve(x, u_final, label=f"t={args.t_end:g}")],
        dict(title="advection-stimulated growth vs degenerate diffusion",
             xlabel="x", ylabel="u"))


def cmd_barenblatt_validate(args) -> Report:
    grids = _entries("--grids", args.grids, int)
    if len(grids) < 2 or any(a >= b for a, b in zip(grids, grids[1:])):
        raise ConfigError(f"--grids needs at least two strictly increasing grid sizes "
                          f"for an observed order, got {grids}")
    if not 0 < args.t0 < args.t1 < math.inf:
        raise ConfigError(f"--t0 and --t1 must satisfy 0 < t0 < t1 < inf, "
                          f"got {args.t0} and {args.t1}")
    profile = barenblatt.BarenblattProfile(n=1, alpha=args.alpha, C=args.C)
    boxes = [Grid(n=1, L=args.L, N=N) for N in grids]  # a bad L or N is named first
    if barenblatt.support_radius(profile, args.t1) >= args.L:  # exact on R, not on the box
        raise ConfigError(f"--t1 {args.t1} puts the exact support at radius "
                          f"{barenblatt.support_radius(profile, args.t1):.3g} >= --L {args.L}")
    for g in boxes:  # a datum that vanishes on the grid, or a one-cell spike, is not resolved
        sampled = float(np.sum(barenblatt.evaluate(profile, g.cell_centers(), args.t0))) * g.dx
        if not abs(sampled / barenblatt.mass(profile) - 1.0) <= 0.5:
            raise ConfigError(f"--t0 {args.t0} gives grid N={g.N} a sampled datum of mass "
                              f"{sampled:.3g}, not within half of {barenblatt.mass(profile):.3g}")
    residuals = [barenblatt.residual_check(profile, g, args.t0) for g in boxes]
    errors, orders = harness.refinement_study(
        {"flux": "zero", "u0": f"barenblatt C={args.C!r} t={args.t0!r}",
         "alpha": repr(args.alpha), "L": repr(args.L)},
        grids, functools.partial(barenblatt.evaluate, profile), args.t0, args.t1)
    summary = {"alpha": args.alpha, "C": args.C, "grids": grids, "errors": errors,
               "orders": orders, "passed": orders[-1] >= 0.9}
    return Report(
        {"grids": grids},
        _table("barenblatt-refinement",
               ["N", "interior_residual", "global_l1_error", "observed_order"],
               zip(grids, residuals, errors, [math.nan] + orders)),
        summary, f"barenblatt-validate: orders={['%.3f' % o for o in orders]}",
        [svg.Curve(grids, errors, label="L1 error"),
         svg.Curve(grids, residuals, label="interior residual", dashed=True)],
        dict(title="refinement against the exact self-similar solution",
             xlabel="N", ylabel="error", logx=True, logy=True))


def cmd_decay_study(args) -> Report:
    if args.snapshots < 1:
        raise ConfigError(f"--snapshots must be >= 1, got {args.snapshots}")
    problem, raw = _problem_from_args(args)
    alphas = (_number_list("--alphas", args.alphas, lambda a: ALPHA_MIN <= a < math.inf,
                           f"diffusion exponents, finite and >= {ALPHA_MIN}")
              if args.alphas else [problem.alpha])
    if len({f"{a:g}" for a in alphas}) < len(alphas):
        raise ConfigError(f"--alphas entries must differ in 6 significant digits, the "
                          f"precision of the output keys alpha=..., got {args.alphas}")
    q_list = _number_list("--q-list", args.q_list, lambda q: q == math.inf or q >= 1,
                          "norm indices, >= 1 or inf")
    # SchemeConfig rejects a non-finite t_end before geomspace computes with it
    config = solver.SchemeConfig(t_end=args.t_end)
    snap_times = (0.0,) + tuple(np.geomspace(args.t_end / 50.0, args.t_end, args.snapshots))
    config = dataclasses.replace(config, snapshot_times=snap_times)
    window = (args.t_end / 10.0, args.t_end)
    in_window = {t for t in snap_times + (args.t_end,) if window[0] <= t <= window[1]}
    if len(in_window) < harness.FIT_MIN_POINTS:
        raise ConfigError(
            f"--snapshots {args.snapshots} puts {len(in_window)} snapshot times in the "
            f"fit window {window}; the power-law fit needs >= {harness.FIT_MIN_POINTS}")
    if not harness.lq_norm(sample_initial(problem), problem.p0) > 0:
        raise ConfigError(f"the datum u0 has zero L^p0 norm (p0={problem.p0}) on the grid; "
                          "the power-law fits and the smoothing audit need it > 0")

    rows, fits, smoothing, plotted = [], {}, {}, None
    for alpha in alphas:
        result = solver.run(dataclasses.replace(problem, alpha=alpha), config)
        recs = {q: harness.decay_record(result, q, window) for q in q_list}
        report = harness.audit_smoothing(result, problem.p0, alpha)
        smoothing[f"alpha={alpha:g}"] = report
        for q, rec in recs.items():
            for t, v in rec.series:
                rows.append((alpha, str(q), t, v))
            fits[f"alpha={alpha:g},q={q}"] = {
                "slope": rec.fitted_slope,
                "intercept": rec.fitted_intercept,
                "r_squared": rec.r_squared,
                "reference_rate": -report.gamma0 if q == math.inf else None,
            }
        plotted = plotted or recs[q_list[-1]]  # the first alpha's last q
    summary = {
        "fits": fits, "fit_window": list(window),
        "smoothing_last_decade_variation": {k: s.last_decade_variation
                                            for k, s in smoothing.items()},
        "passed": all(s.passed for s in smoothing.values())}
    fit_ts = [t for t, _ in plotted.series if window[0] <= t <= window[1]]
    fit_vs = [math.exp(plotted.fitted_intercept) * t ** plotted.fitted_slope for t in fit_ts]
    return Report(
        {**raw, "alphas": alphas, "q_list": [str(q) for q in q_list]},
        _table("decay-series", ["alpha", "q", "t", "norm"], rows), summary,
        "decay-study: " + "; ".join(f"{k}: slope={v['slope']:.4f}" for k, v in fits.items()),
        [svg.Curve([t for t, _ in plotted.series if t > 0],
                   [v for t, v in plotted.series if t > 0], label="norm", kind="points"),
         svg.Curve(fit_ts, fit_vs, label="fit")],
        dict(title="norm decay", xlabel="t", ylabel="norm", logx=True, logy=True,
             annotations=[svg.Annotation(0.08, 0.10, f"slope {plotted.fitted_slope:.4f}")]))


def cmd_moser_table(args) -> Report:
    if args.m < 1:
        raise ConfigError(f"--m must be >= 1, got {args.m}")
    A_inf, S_inf = exponents.moser_limits(args.q, args.n, args.alpha)
    trace = exponents.moser_trace(args.q, args.n, args.alpha, args.m)
    rows = [(m, A, S, A - A_inf, S - S_inf)
            for m, A, S in zip(range(1, args.m + 1), trace.A, trace.S)]
    ex = exponents.exponent_set(args.n, args.q, args.alpha)
    try:
        ladder = exponents.moser_time_grid(args.m, 1.0)
    except ConfigError:  # rungs closer than the float spacing near t = 1
        ladder = None
    passed = math.isfinite(trace.K_bound)
    summary = {
        "q": args.q, "n": args.n, "alpha": args.alpha, "m": args.m,
        "A_limit": A_inf, "S_limit": S_inf,
        "A_final_gap": rows[-1][3], "S_final_gap": rows[-1][4],
        "K_bound": trace.K_bound if passed else None,
        "exponents": {"beta": ex.beta, "theta": ex.theta, "gamma": ex.gamma},
        "time_ladder": ladder,
        "passed": passed,
    }
    return Report(
        {}, _table("moser-table", ["m", "A_m", "S_m", "A_limit_gap", "S_limit_gap"], rows),
        summary, f"moser-table: A_{args.m}={rows[-1][1]:.12g} (limit {A_inf:.12g}), "
                 f"S_{args.m}={rows[-1][2]:.12g} (limit {S_inf:.12g})")


def cmd_check_flux(args) -> Report:
    if args.samples < DIVERGENCE_MIN_SAMPLES:
        raise ConfigError(f"--samples must be >= {DIVERGENCE_MIN_SAMPLES}, got {args.samples}")
    M = max(abs(args.umin), abs(args.umax))
    if not math.isfinite(2.0 * M):  # the width of [-M, M]
        raise ConfigError(f"--umin {args.umin} and --umax {args.umax}: 2 max(|umin|, |umax|) "
                          "overflows")
    name, params = parse_catalog_value(args.flux)
    flux = flux_from_config(name, params, n=1)
    grid = Grid(n=1, L=args.L, N=args.N)
    report = check_divergence_condition(flux, grid, (args.umin, args.umax),
                                        samples=args.samples)
    C_f = check_lipschitz_in_u(flux, grid, M)
    consistency = check_flux_consistency(flux, grid, (-M, M))
    (x,), u = report.witness
    summary = {
        "flux": name, "params": params,
        "satisfied": report.satisfied,
        "worst_violation": report.worst_violation,
        "witness": {"x": [x], "u": u},
        "consistency": dataclasses.asdict(consistency),
        "lipschitz": {"C_f": C_f},
        "passed": report.satisfied and consistency.ok,
    }
    return Report(
        {}, _table("check-flux", ["satisfied", "worst_violation", "witness_x", "witness_u"],
                   [(int(report.satisfied), report.worst_violation, x, u)]),
        summary, f"check-flux {name}: satisfied={report.satisfied} "
                 f"worst={report.worst_violation:.3e} witness={report.witness} "
                 f"consistent={consistency.ok} C_f={C_f:.6g}")


def cmd_sandwich(args) -> Report:
    problem, raw = _problem_from_args(args, {
        "flux": "burgers", "u0": "signed_gaussian", "N": "400", "L": "10",
        "alpha": "1", "p0": "1"})
    eps_list = _number_list("--eps-list", args.eps, lambda e: 0 < e < math.inf,
                            "perturbation sizes, finite and > 0")
    psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))
    config = solver.SchemeConfig(t_end=args.t_end)
    reports = [harness.run_sandwich(problem, eps, psi, config) for eps in eps_list]
    rows = [(eps, r.max_lower_violation, r.max_upper_violation, r.envelope)
            for eps, r in zip(eps_list, reports)]
    ordered = sorted(range(len(eps_list)), key=lambda i: -eps_list[i])
    env = [reports[i].envelope for i in ordered]
    no_violation = all(r.max_lower_violation >= -1e-12
                       and r.max_upper_violation >= -1e-12 for r in reports)
    env_monotone = all(a > b for a, b in zip(env, env[1:]))
    summary = {
        "reports": [{"eps": eps, "lower_violation": lo, "upper_violation": hi, "envelope": env}
                    for eps, lo, hi, env in rows],
        "ordering_respected": no_violation,
        "envelope_decreasing_with_eps": env_monotone,
        "passed": bool(no_violation and env_monotone),
    }
    return Report(
        {**raw, "eps": eps_list},
        _table("sandwich", ["eps", "lower_violation", "upper_violation", "envelope"], rows),
        summary, f"sandwich: ordering={no_violation} envelope_decreasing={env_monotone}")


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def _add_problem_args(p):
    p.add_argument("--config", help="problem configuration file (key = value lines)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmelab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a problem and export snapshots")
    _add_problem_args(p)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--snapshots", type=int, default=11)
    p.add_argument("--cfl", type=float, default=0.9)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("figure1", help="advection-growth experiment")
    p.add_argument("--k", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--N", type=int, default=600)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("barenblatt-validate",
                       help="refinement study against the exact solution")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--L", type=float, default=20.0)
    p.add_argument("--grids", default="100,200,400")
    p.set_defaults(func=cmd_barenblatt_validate)

    p = sub.add_parser("decay-study", help="norm decay series and power-law fits")
    _add_problem_args(p)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--q-list", default="1,2,inf")
    p.add_argument("--snapshots", type=int, default=25)
    p.add_argument("--alphas", help="comma list sweeping the diffusion exponent")
    p.set_defaults(func=cmd_decay_study)

    p = sub.add_parser("moser-table", help="iteration sequences and their limits")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=int, default=40)
    p.set_defaults(func=cmd_moser_table)

    p = sub.add_parser("check-flux", help="sampled flux-divergence sign check")
    p.add_argument("--flux", required=True, help="catalog entry, e.g. 'linear c=3'")
    p.add_argument("--umin", type=float, default=-1.0)
    p.add_argument("--umax", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--N", type=int, default=64)
    p.set_defaults(func=cmd_check_flux)

    p = sub.add_parser("sandwich", help="sign-splitting comparison experiment")
    _add_problem_args(p)
    p.add_argument("--eps-list", dest="eps", default="0.1,0.01,0.001")
    p.add_argument("--t-end", type=float, default=1.0)
    p.set_defaults(func=cmd_sandwich)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _on_path("--outdir", args.outdir, os.makedirs, exist_ok=True)
        return _emit(args, args.func(args))
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"pmelab {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"pmelab {args.command}: run error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
