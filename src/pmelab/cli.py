"""Command-line front end: runs, audits, and deterministic CSV/JSON/SVG reports.

Output file names carry a stamp derived from the effective configuration (not
wall clock), so identical invocations overwrite themselves byte-identically.
Exit codes: 0 success and audits passing, 1 audit failure or RunError,
2 usage error or ConfigError.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import barenblatt, exponents, harness, solver, svg
from .errors import ConfigError, RunError
from .problem import (DIVERGENCE_MIN_SAMPLES, Grid, Problem, check_divergence_condition,
                      check_flux_consistency, check_lipschitz_in_u, flux_from_config,
                      problem_from_mapping, read_config, zero_flux_model)


def _stamp(settings: dict) -> str:
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:10]


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path, schema: str, columns: list[str], rows) -> None:
    lines = [f"# pmelab csv v1 schema={schema}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_paths(outdir: str, command: str, settings: dict) -> dict:
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{command}_{_stamp(settings)}")
    return {ext: f"{stem}.{ext}" for ext in ("csv", "json", "svg")}


def _problem_from_args(args, base: dict[str, str] | None = None) -> tuple[Problem, dict]:
    """The problem and the settings made of `base`, then the --config file, then
    each --set, a later key replacing an earlier one."""
    raw = dict(base or {})
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw.update(read_config(fh.read()))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return problem_from_mapping(raw), raw


def _number_list(option: str, text: str, admissible, requirement: str) -> list[float]:
    """The comma-separated numbers of `option` ('inf' or 'oo' for infinity), every
    entry checked before any work; a bad or repeated one is a ConfigError naming
    the option."""
    values = [math.inf if s in ("inf", "oo") else float(s) for s in text.split(",")]
    for i, v in enumerate(values):
        if not admissible(v):
            raise ConfigError(f"{option} entries must be {requirement}, got {v}")
        if v in values[:i]:
            raise ConfigError(f"{option} entries must differ, got {v} twice")
    return values


def _write_snapshot_csv(path, result: solver.RunResult) -> None:
    """The run CSV: columns t, x0[, x1], u, one row per cell per snapshot,
    each value as %.17g (the text of _cell). The x text of each row is made
    once; each snapshot is then one % format over its u values."""
    grid = result.snapshots[0].grid
    x_fmt = ",".join(["%.17g"] * grid.n)
    # row i of a snapshot at time text T is T + tails[i] % u[i]
    tails = [f",{x_fmt % tuple(x)},%.17g\n"
             for x in grid.cell_centers().reshape(grid.n, -1).T.tolist()]
    cols = ["t"] + [f"x{a}" for a in range(grid.n)] + ["u"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# pmelab csv v1 schema=run-snapshots\n{','.join(cols)}\n")
        for snap in result.snapshots:
            t = "%.17g" % snap.time
            fh.write((t + t.join(tails)) % tuple(snap.values.ravel().tolist()))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.snapshots < 1:
        raise ConfigError(f"--snapshots must be >= 1, got {args.snapshots}")
    problem, raw = _problem_from_args(args)
    # SchemeConfig rejects a non-finite t_end before linspace computes with it
    config = solver.SchemeConfig(t_end=args.t_end, cfl_safety=args.cfl)
    config = dataclasses.replace(
        config, snapshot_times=tuple(np.linspace(0.0, args.t_end, args.snapshots)))
    settings = {"command": "run", **raw, "t_end": args.t_end,
                "snapshots": args.snapshots, "cfl": args.cfl}
    paths = _out_paths(args.outdir, "run", settings)
    result = solver.run(problem, config)
    _write_snapshot_csv(paths["csv"], result)
    summary = {
        "step_count": result.step_count,
        "min_dt": result.min_dt,
        "max_dt": result.max_dt,
        "boundary_mass_max": result.boundary_mass_max,
        "boundary_flagged": result.boundary_flagged,
        "mass_series": [[t, m] for t, m in result.mass_series[:: max(1, len(result.mass_series) // 200)]],
        "passed": not result.boundary_flagged,
    }
    _write_json(paths["json"], summary)
    if problem.grid.n == 1:
        x = problem.grid.axis_centers()
        svg.write_svg(paths["svg"], [
            svg.Curve(x, result.snapshots[0].values, label="initial", dashed=True),
            svg.Curve(x, result.snapshots[-1].values, label="final"),
        ], title="solution", xlabel="x", ylabel="u")
    print(f"run: steps={result.step_count} boundary_mass_max={result.boundary_mass_max:.3e} "
          f"passed={not result.boundary_flagged}")
    return 0 if not result.boundary_flagged else 1


def cmd_figure1(args) -> int:
    settings = {"command": "figure1", "k": args.k, "alpha": args.alpha,
                "t_end": args.t_end, "L": args.L, "N": args.N}
    paths = _out_paths(args.outdir, "figure1", settings)
    problem, result = harness.figure1_experiment(
        k=args.k, alpha=args.alpha, t_end=args.t_end, L=args.L, N=args.N)
    x = problem.grid.axis_centers()
    u0 = result.snapshots[0].values
    u_final = result.snapshots[-1].values
    _write_csv(paths["csv"], "figure1-profiles", ["x", "u_initial", "u_final"],
               zip(x, u0, u_final))
    audit = harness.audit_lq_monotonicity(result, (1.0,), tolerance=0.005)[1.0]
    max_uptick, mass_ok = audit.max_uptick, audit.passed
    changed = float(np.max(np.abs(u_final - u0))) > 0.01
    summary = {
        "l1_series": [[t, v] for t, v in audit.series],
        "l1_max_relative_uptick": max_uptick,
        "l1_nonincreasing_within_half_percent": mass_ok,
        "solution_moved": changed,
        "boundary_mass_max": result.boundary_mass_max,
        "step_count": result.step_count,
        "passed": bool(mass_ok and changed),
    }
    _write_json(paths["json"], summary)
    svg.write_svg(paths["svg"], [
        svg.Curve(x, u0, label="initial", dashed=True),
        svg.Curve(x, u_final, label=f"t={args.t_end:g}"),
    ], title="advection-stimulated growth vs degenerate diffusion",
        xlabel="x", ylabel="u")
    print(f"figure1: l1_uptick={max_uptick:.3e} passed={summary['passed']}")
    return 0 if summary["passed"] else 1


def cmd_barenblatt_validate(args) -> int:
    grids = [int(v) for v in args.grids.split(",")]
    if len(grids) < 2 or any(a >= b for a, b in zip(grids, grids[1:])):
        raise ConfigError(f"--grids needs at least two strictly increasing grid sizes "
                          f"for an observed order, got {grids}")
    if not 0 < args.t0 < args.t1 < math.inf:
        raise ConfigError(f"--t0 and --t1 must satisfy 0 < t0 < t1 < inf, "
                          f"got {args.t0} and {args.t1}")
    settings = {"command": "barenblatt-validate", "alpha": args.alpha, "C": args.C,
                "t0": args.t0, "t1": args.t1, "L": args.L, "grids": grids}
    paths = _out_paths(args.outdir, "barenblatt-validate", settings)
    profile = barenblatt.BarenblattProfile(n=1, alpha=args.alpha, C=args.C)
    residuals, errors = [], []
    for N in grids:
        grid = Grid(n=1, L=args.L, N=N)
        residuals.append(barenblatt.residual_check(profile, grid, args.t0).interior_l1)
        p = Problem(grid=grid, alpha=args.alpha, p0=1.0, flux=zero_flux_model(1),
                    u0=lambda x: barenblatt.evaluate(profile, x, args.t0))
        result = solver.run(p, solver.SchemeConfig(t_end=args.t1 - args.t0))
        exact = barenblatt.evaluate(profile, grid.cell_centers(), args.t1)
        errors.append(float(np.sum(np.abs(result.snapshots[-1].values - exact))) * grid.dx)
    orders = [math.log(e0 / e1) / math.log(n1 / n0)
              for n0, n1, e0, e1 in zip(grids, grids[1:], errors, errors[1:])]
    _write_csv(paths["csv"], "barenblatt-refinement",
               ["N", "interior_residual", "global_l1_error", "observed_order"],
               zip(grids, residuals, errors, [math.nan] + orders))
    passed = orders[-1] >= 0.9
    _write_json(paths["json"], {
        "alpha": args.alpha, "C": args.C,
        "grids": grids, "errors": errors, "orders": orders, "passed": passed,
    })
    svg.write_svg(paths["svg"], [
        svg.Curve(grids, errors, label="L1 error"),
        svg.Curve(grids, residuals, label="interior residual", dashed=True),
    ], title="refinement against the exact self-similar solution",
        xlabel="N", ylabel="error", logx=True, logy=True)
    print(f"barenblatt-validate: orders={['%.3f' % o for o in orders]} passed={passed}")
    return 0 if passed else 1


def cmd_decay_study(args) -> int:
    problem, raw = _problem_from_args(args)
    alphas = (_number_list("--alphas", args.alphas, lambda a: 0 < a < math.inf,
                           "diffusion exponents, finite and > 0")
              if args.alphas else [problem.alpha])
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
    settings = {"command": "decay-study", **raw, "t_end": args.t_end,
                "alphas": alphas, "q_list": [str(q) for q in q_list],
                "snapshots": args.snapshots}
    paths = _out_paths(args.outdir, "decay-study", settings)

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
    _write_csv(paths["csv"], "decay-series", ["alpha", "q", "t", "norm"], rows)
    passed = all(s.passed for s in smoothing.values())
    _write_json(paths["json"], {
        "fits": fits, "fit_window": list(window),
        "smoothing_last_decade_variation": {k: s.last_decade_variation
                                            for k, s in smoothing.items()},
        "passed": passed})
    fit_ts = [t for t, _ in plotted.series if window[0] <= t <= window[1]]
    fit_vs = [math.exp(plotted.fitted_intercept) * t ** plotted.fitted_slope for t in fit_ts]
    svg.write_svg(paths["svg"], [
        svg.Curve([t for t, _ in plotted.series if t > 0],
                  [v for t, v in plotted.series if t > 0], label="norm", kind="points"),
        svg.Curve(fit_ts, fit_vs, label="fit"),
    ], title="norm decay", xlabel="t", ylabel="norm", logx=True, logy=True,
        annotations=[svg.Annotation(0.08, 0.10, f"slope {plotted.fitted_slope:.4f}")])
    print("decay-study: " + "; ".join(f"{k}: slope={v['slope']:.4f}" for k, v in fits.items())
          + f" passed={passed}")
    return 0 if passed else 1


def cmd_moser_table(args) -> int:
    if args.m < 1:
        raise ConfigError(f"--m must be >= 1, got {args.m}")
    settings = {"command": "moser-table", "q": args.q, "n": args.n,
                "alpha": args.alpha, "m": args.m}
    paths = _out_paths(args.outdir, "moser-table", settings)
    A_inf, S_inf = exponents.moser_limits(args.q, args.n, args.alpha)
    trace = exponents.moser_trace(args.q, args.n, args.alpha, args.m)
    rows = [(m, A, S, A - A_inf, S - S_inf)
            for m, A, S in zip(range(1, args.m + 1), trace.A, trace.S)]
    _write_csv(paths["csv"], "moser-table",
               ["m", "A_m", "S_m", "A_limit_gap", "S_limit_gap"], rows)
    ex = exponents.exponent_set(args.n, args.q, args.alpha)
    try:
        ladder = exponents.moser_time_grid(args.m, 1.0)
    except ConfigError:  # rungs closer than the float spacing near t = 1
        ladder = None
    passed = math.isfinite(trace.K_bound)
    _write_json(paths["json"], {
        "q": args.q, "n": args.n, "alpha": args.alpha, "m": args.m,
        "A_limit": A_inf, "S_limit": S_inf,
        "A_final_gap": rows[-1][3], "S_final_gap": rows[-1][4],
        "K_bound": trace.K_bound if passed else None,
        "exponents": {"beta": ex.beta, "theta": ex.theta, "gamma": ex.gamma},
        "time_ladder": ladder,
        "passed": passed,
    })
    print(f"moser-table: A_{args.m}={rows[-1][1]:.12g} (limit {A_inf:.12g}), "
          f"S_{args.m}={rows[-1][2]:.12g} (limit {S_inf:.12g}) passed={passed}")
    return 0 if passed else 1


def cmd_check_flux(args) -> int:
    if args.samples < DIVERGENCE_MIN_SAMPLES:
        raise ConfigError(f"--samples must be >= {DIVERGENCE_MIN_SAMPLES}, got {args.samples}")
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.c is not None:
        params["c"] = args.c
    settings = {"command": "check-flux", "flux": args.flux, **params,
                "umin": args.umin, "umax": args.umax, "samples": args.samples,
                "L": args.L, "N": args.N}
    paths = _out_paths(args.outdir, "check-flux", settings)
    flux = flux_from_config(args.flux, params, n=1)
    grid = Grid(n=1, L=args.L, N=args.N)
    report = check_divergence_condition(flux, grid, (args.umin, args.umax),
                                        samples=args.samples)
    M = max(abs(args.umin), abs(args.umax))
    C_f = check_lipschitz_in_u(flux, grid, M)
    consistency = check_flux_consistency(flux, grid, (-M, M))
    passed = report.satisfied and consistency.ok
    _write_json(paths["json"], {
        "flux": args.flux, "params": params,
        "satisfied": report.satisfied,
        "worst_violation": report.worst_violation,
        "witness": {"x": list(report.witness[0]), "t": report.witness[1],
                    "u": report.witness[2]},
        "consistency": dataclasses.asdict(consistency),
        "lipschitz": {"C_f": C_f},
        "passed": passed,
    })
    _write_csv(paths["csv"], "check-flux",
               ["satisfied", "worst_violation", "witness_x", "witness_t", "witness_u"],
               [(int(report.satisfied), report.worst_violation,
                 report.witness[0][0], report.witness[1], report.witness[2])])
    print(f"check-flux {args.flux}: satisfied={report.satisfied} "
          f"worst={report.worst_violation:.3e} witness={report.witness} "
          f"consistent={consistency.ok} C_f={C_f:.6g} passed={passed}")
    return 0 if passed else 1


def cmd_sandwich(args) -> int:
    problem, raw = _problem_from_args(args, {
        "flux": "burgers", "u0": "signed_gaussian", "N": "400", "L": "10",
        "alpha": "1", "p0": "1"})
    eps_list = _number_list("--eps-list", args.eps_list, lambda e: 0 < e < math.inf,
                            "perturbation sizes, finite and > 0")
    settings = {"command": "sandwich", **raw, "eps": eps_list, "t_end": args.t_end}
    paths = _out_paths(args.outdir, "sandwich", settings)
    psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))
    config = solver.SchemeConfig(t_end=args.t_end)
    reports = [harness.run_sandwich(problem, eps, psi, config) for eps in eps_list]
    rows = [(r.eps, r.max_lower_violation, r.max_upper_violation, r.envelope)
            for r in reports]
    _write_csv(paths["csv"], "sandwich",
               ["eps", "lower_violation", "upper_violation", "envelope"], rows)
    ordered = sorted(range(len(eps_list)), key=lambda i: -eps_list[i])
    env = [reports[i].envelope for i in ordered]
    no_violation = all(r.max_lower_violation >= -1e-12
                       and r.max_upper_violation >= -1e-12 for r in reports)
    env_monotone = all(a > b for a, b in zip(env, env[1:]))
    _write_json(paths["json"], {
        "reports": [{"eps": r.eps, "lower_violation": r.max_lower_violation,
                     "upper_violation": r.max_upper_violation,
                     "envelope": r.envelope} for r in reports],
        "ordering_respected": no_violation,
        "envelope_decreasing_with_eps": env_monotone,
        "passed": bool(no_violation and env_monotone),
    })
    print(f"sandwich: ordering={no_violation} envelope_decreasing={env_monotone}")
    return 0 if no_violation and env_monotone else 1


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
    p.add_argument("--flux", required=True)
    p.add_argument("--k", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--umin", type=float, default=-1.0)
    p.add_argument("--umax", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--N", type=int, default=64)
    p.set_defaults(func=cmd_check_flux)

    p = sub.add_parser("sandwich", help="sign-splitting comparison experiment")
    _add_problem_args(p)
    p.add_argument("--eps-list", default="0.1,0.01,0.001")
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
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"pmelab {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"pmelab {args.command}: run error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
