"""pmelab benchmark: four CLI workloads, end-to-end metrics and a traced
per-layer breakdown.

    python3 bench/run.py --workload figure1-1d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --seconds 25        # every workload in turn

Run from the repository root. Each round runs the workload's operations in a
fresh interpreter (bench/worker.py) against the pmelab sources in ./src, then
checks the outputs here with computations made apart from pmelab
(bench/checks.py). Rounds repeat until --seconds have passed. The last line
printed per workload is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
ROUND_TIMEOUT_S = 150.0
# Host load drifts this machine's speed by up to ~30% over seconds. The
# worker times a reference loop just before and after the operations, and all
# times are reported at the speed where that loop takes REF_LOOP_S (its median
# on a 2-core 2.1 GHz VM); see README.md.
REF_LOOP_S = 0.19

# The step-size probe: fixed inputs, never seeded. Linear flux c=20 with
# alpha=1 puts the advective and diffusive bounds close together, where taking
# their minimum (instead of the combined monotonicity condition) lets max|u| rise.
PROBE = {"c": 20.0, "L": 5.0, "N": 200, "alpha": 1.0, "width2": 0.5,
         "t_end": 0.3, "snapshots": 31}
PROBE_FAULT = ("solver.stable_dt takes min(dx/(2 lambda), dx^2/(2 n D)) instead of "
               "the combined condition dt (sum lambda/dx + 2 n D/dx^2) <= 1 "
               "(Evje & Karlsen 2000), so the update is not monotone")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def figure1_1d(rng):
    k = _uniform(rng, 1.45, 1.55)
    ops = [{"name": "figure1", "cli": ["figure1", "--k", repr(k)]},
           {"name": "probe", "probe": PROBE, "keep": "snapshots"}]

    def check(out, raw):
        return checks.check_figure1(out["figure1.csv"], L=10.0, N=600), {}

    return {"k": k}, ops, check


def burgers_2d(rng):
    amp, width = _uniform(rng, 0.98, 1.02), _uniform(rng, 0.98, 1.02)
    L, N, t_end, snaps = 10.0, 160, 3.0, 11
    ops = [{"name": "run", "cli": [
        "run", "--set", "n=2", "--set", "flux=burgers",
        "--set", f"u0=gaussian amp={amp!r} width={width!r}",
        "--set", f"N={N}", "--set", f"L={L!r}",
        "--t-end", repr(t_end), "--snapshots", str(snaps)]}]

    def check(out, raw):
        return checks.check_burgers_2d(out["run.csv"], L, N, amp, width,
                                       np.linspace(0.0, t_end, snaps)), {}

    return {"amp": amp, "width": width}, ops, check


def sandwich_1d(rng):
    scale = _uniform(rng, 0.9, 1.1)
    eps = [float(f"{scale * e:.6g}") for e in (0.1, 0.01, 0.001)]
    ops = [{"name": "sandwich", "cli": [
        "sandwich", "--eps-list", ",".join(repr(e) for e in eps), "--t-end", "3"]}]

    def check(out, raw):
        # the command's default problem: N=400, L=10, p0=1, alpha=1
        return checks.check_sandwich(out["sandwich.csv"], eps, L=10.0, N=400,
                                     p0=1.0, alpha=1.0), {}

    return {"eps": eps}, ops, check


def diffusion_1d(rng):
    amp, width = _uniform(rng, 0.97, 1.03), _uniform(rng, 0.97, 1.03)
    alphas, t_end, grids = [0.5, 1.0], 50.0, [200, 400, 800, 1600]
    ops = [{"name": "barenblatt-validate", "keep": "final_profiles",
            "cli": ["barenblatt-validate", "--grids", ",".join(map(str, grids))]},
           {"name": "decay-study", "cli": [
               "decay-study", "--set", "N=800", "--set", "L=40",
               "--set", f"u0=gaussian amp={amp!r} width={width!r}",
               "--t-end", repr(t_end), "--alphas", ",".join(map(repr, alphas))]}]

    def check(out, raw):
        # barenblatt-validate defaults: alpha=1, C=1, t0=1, t1=2, L=20
        profiles = {N: raw[f"barenblatt-validate_{N}"] for N in grids}
        errors = checks.barenblatt_errors(profiles, L=20.0, t1=2.0, alpha=1.0, C=1.0)
        problems = (checks.check_barenblatt_ladder(out["barenblatt-validate.csv"], errors)
                    + checks.check_decay(out["decay-study.csv"], out["decay-study.json"],
                                         alphas, t_end))
        return problems, {"l1_error_vs_exact": errors[grids[-1]]}

    return {"amp": amp, "width": width}, ops, check


WORKLOADS = {"figure1-1d": figure1_1d, "burgers-2d": burgers_2d,
             "sandwich-1d": sandwich_1d, "diffusion-1d": diffusion_1d}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cell_updates_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "problem.flux_calls_per_step": "count", "problem.flux_s": "s",
    "problem.state_s": "s", "solver.steps": "count", "solver.step_s": "s",
    "solver.step_ns_per_cell": "ns", "solver.stable_dt_s": "s",
    "solver.run_self_s": "s", "harness.sandwich_self_s": "s",
    "harness.audit_s": "s", "barenblatt.eval_s": "s", "svg.write_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes", "cli.import_s": "s",
    "trace.overhead_s": "s"}


def _outputs(outdir: str) -> dict:
    """{'<command>.<ext>': path} for the files one round wrote."""
    files = {}
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        command, _, rest = name.rpartition("_")
        files[f"{command}.{rest.rpartition('.')[2]}"] = os.path.join(outdir, name)
    return files


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for key, path in sorted(files.items()):
        with open(path, "rb") as fh:
            h.update(key.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_round(ops, check, traced: bool) -> dict:
    """One fresh-interpreter round; returns its measurements, the failed
    operations and the problems the checks found."""
    round_dir = os.path.join(WORK, "round")
    shutil.rmtree(round_dir, ignore_errors=True)
    os.makedirs(round_dir)
    spec_path = os.path.join(round_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "round_dir": round_dir, "trace": traced, "ops": ops}, fh)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"round exceeded {ROUND_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err}")
    with open(os.path.join(round_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    raw = dict(np.load(os.path.join(round_dir, "raw.npz")))
    out = _outputs(os.path.join(round_dir, "out"))

    failed, problems, notes = [], [], {}
    for outcome in result["ops"]:
        name = outcome["name"]
        if outcome["status"] != 0:
            failed.append(f"{name}: exit {outcome['status']} {outcome['detail']}".strip())
        elif name == "probe":
            rises = checks.check_sup_never_rises(raw["probe"])
            if rises:
                failed.append(f"probe: {len(rises)} rises, the first: {rises[0]}; "
                              f"fault: {PROBE_FAULT}")
    if all(o["status"] == 0 for o in result["ops"]):
        problems, notes = check(out, raw)
    if traced and result["traced_cell_updates"] != result["cell_updates"]:
        problems.append(f"trace counted {result['traced_cell_updates']} cell updates, "
                        f"the run results {result['cell_updates']}")
    result.update(failed=failed, problems=problems, notes=notes, digest=_digest(out),
                  ops_ok=all(o["status"] == 0 for o in result["ops"]),
                  setup_s=None if traced else result["first_call"] - started - result["loop_s"][0],
                  speed=2.0 * REF_LOOP_S / sum(result["loop_s"]))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    params, ops, check = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    plain, traced = [], []
    t_start = time.monotonic()
    # whole rounds only; with tracing on, plain and traced rounds alternate
    while (not plain or (trace and not traced)
           or time.monotonic() - t_start < seconds):
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(run_round(ops, check, use_trace))
    rounds = plain + traced
    failed = [f for r in rounds for f in r["failed"]]
    problems = sorted({p for r in rounds for p in r["problems"]})
    if len({r["digest"] for r in rounds if r["ops_ok"]}) > 1:
        problems.append("output files differ between rounds of the same inputs")

    med = statistics.median

    def timed(rs, value, power=1):
        """(median at the reference speed, median as measured) of value(round)."""
        return (med(value(r) * r["speed"] ** power for r in rs),
                med(value(r) for r in rs))

    if trace:
        per = {k: timed(traced, lambda r, k=k: r["layers"][k],
                        1 if PER_LAYER_UNITS[k] in ("s", "ns") else 0)
               for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        on = timed(traced, lambda r: r["wall_s"])
        off = timed(plain, lambda r: r["wall_s"])
        per["trace.overhead_s"] = (on[0] - off[0], on[1] - off[1])
        units = PER_LAYER_UNITS
    else:
        per = {"wall_s": timed(plain, lambda r: r["wall_s"]),
               "setup_s": timed(plain, lambda r: r["setup_s"]),
               "cell_updates_per_s": timed(plain, lambda r: r["cell_updates"] / r["wall_s"], -1),
               "peak_rss_mb": timed(plain, lambda r: r["rss_mb"], 0)}
        units = END_TO_END_UNITS
    metrics = {k: v[0] for k, v in per.items()}

    print(f"== {name}  seed={seed}  inputs={json.dumps(params)}  "
          f"rounds={len(plain)} plain + {len(traced)} traced, "
          f"machine speed {med(r['speed'] for r in rounds):.3f} of reference")
    print(f"   {'metric (median)':<30} {'at ref. speed':>14} {'as measured':>14}")
    for key, (ref, measured) in per.items():
        print(f"   {key:<30} {ref:>14.6g} {measured:>14.6g} {units[key]}")
    for key in sorted({k for r in rounds for k in r["notes"]}):
        print(f"   {key:<30} {med(r['notes'][key] for r in rounds if key in r['notes']):>14.6g}"
              "  (reported, not gated)")
    attempted = len(rounds) * len(ops)
    print(f"   operations: attempted {attempted}, failed {len(failed)}")
    for line in sorted(set(f.splitlines()[0] for f in failed)):
        print(f"   FAILED {line}")
    for line in problems:
        print(f"   CHECK {line}")
    report = {"correct": not problems, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(report))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmelab", "cli.py")):
        print(f"bench: no pmelab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
