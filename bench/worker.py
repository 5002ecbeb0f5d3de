"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py SPEC.json

SPEC names the pmelab source tree, the round directory, whether to trace, and
the operations: CLI commands run through ``pmelab.cli.dispatch`` and the
step-size probe run through ``solver.run``. The worker times the operations,
saves the raw states the checks need to ``raw.npz`` and writes ``result.json``
into the round directory. It checks nothing itself; run.py does.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
import traceback


def reference_loop_s() -> float:
    """Seconds for a fixed CPU-bound mix like the workloads' own: small-array
    ufunc calls, 2-D stencil arithmetic and float formatting. Timed around each
    round, it measures how fast the machine runs at that moment."""
    import numpy as np

    u = np.linspace(0.0, 1.0, 601)
    v = u[:160, None] * u[None, :160]
    t0 = time.perf_counter()
    for _ in range(2400):
        np.diff(np.pad(np.abs(u) ** 1.5 * u, 1, mode="edge"))
    for _ in range(150):
        p = np.pad(v, 1, mode="edge")
        (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2]
         - 4.0 * p[1:-1, 1:-1]) * np.abs(v) ** 1.5
    for _ in range(120):
        ",".join(f"{x:.17g}" for x in u)
    return time.perf_counter() - t0


def _wrap_after(module, name: str, after):
    """Replace module.name by a wrapper that calls after(args, result)."""
    fn = getattr(module, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    setattr(module, name, wrapper)


def _mark_first_call(modules, clock: dict) -> None:
    """Record time.monotonic() at the first call into any public function of
    `modules`, then put the functions back as they were."""
    current = {(m, name): fn for m in modules for name, fn in vars(m).items()
               if inspect.isfunction(fn) and fn.__module__ == m.__name__
               and not name.startswith("_")}

    def hook(fn):
        @functools.wraps(fn)
        def first(*args, **kwargs):
            if clock.get("first_call") is None:
                clock["first_call"] = time.monotonic()
                for (m, name), orig in current.items():
                    setattr(m, name, orig)
            return fn(*args, **kwargs)
        return first

    for (m, name), fn in current.items():
        setattr(m, name, hook(fn))


def _install_tracing(tracer, pmelab) -> None:
    """Spans around the calls into each layer's public functions."""
    import dataclasses

    problem, solver, harness, barenblatt, svg = (
        pmelab.problem, pmelab.solver, pmelab.harness, pmelab.barenblatt, pmelab.svg)
    traced_problems: dict[int, tuple] = {}

    def with_traced_flux(p):
        # Problem and FluxModel are frozen, so one traced copy per problem serves.
        entry = traced_problems.get(id(p))
        if entry is None or entry[0] is not p:
            flux = dataclasses.replace(
                p.flux, f=tracer.wrap("problem.flux", p.flux.f),
                df_du=tracer.wrap("problem.flux", p.flux.df_du))
            entry = traced_problems[id(p)] = (p, dataclasses.replace(p, flux=flux))
        return entry[1]

    step = tracer.wrap("solver.step", solver.step)
    stable_dt = tracer.wrap("solver.stable_dt", solver.stable_dt)

    def traced_step(state, p, *rest):
        tracer.count("cells", state.values.size)
        return step(state, with_traced_flux(p), *rest)

    def traced_stable_dt(state, p, *rest):
        return stable_dt(state, with_traced_flux(p), *rest)

    solver.step, solver.stable_dt = traced_step, traced_stable_dt
    solver.run = tracer.wrap("solver.run", solver.run)
    problem.State.__post_init__ = tracer.wrap("problem.state", problem.State.__post_init__)
    harness.run_sandwich = tracer.wrap("harness.run_sandwich", harness.run_sandwich)
    for name in ("lq_norm", "fit_decay", "decay_record", "sandwich_envelope"):
        setattr(harness, name, tracer.wrap("harness.audit", getattr(harness, name)))
    for name in ("evaluate", "residual_check"):
        setattr(barenblatt, name, tracer.wrap("barenblatt.eval", getattr(barenblatt, name)))
    svg.write_svg = tracer.wrap("svg.write", svg.write_svg)


def _layer_metrics(tracer, import_s: float, output_bytes: int) -> dict:
    from tracing import self_times

    st = self_times(tracer.spans)

    def busy(name):
        return st.get(name, (0, 0.0))[1]

    steps = st.get("solver.step", (0, 0.0))[0]
    cells = tracer.counters.get("cells", 0)
    return {
        "problem.flux_calls_per_step":
            st.get("problem.flux", (0, 0.0))[0] / steps if steps else 0.0,
        "problem.flux_s": busy("problem.flux"),
        "problem.state_s": busy("problem.state"),
        "solver.steps": steps,
        "solver.step_s": busy("solver.step"),
        "solver.step_ns_per_cell": busy("solver.step") * 1e9 / cells if cells else 0.0,
        "solver.stable_dt_s": busy("solver.stable_dt"),
        "solver.run_self_s": busy("solver.run"),
        "harness.sandwich_self_s": busy("harness.run_sandwich"),
        "harness.audit_s": busy("harness.audit"),
        "barenblatt.eval_s": busy("barenblatt.eval"),
        "svg.write_s": busy("svg.write"),
        "cli.self_s": busy("cli.dispatch"),
        "cli.output_bytes": output_bytes,
        "cli.import_s": import_s,
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import pmelab.cli
    import_s = time.perf_counter() - t0
    import numpy as np
    from pmelab import barenblatt, harness, problem, solver

    clock: dict = {"first_call": None}
    # steps x cells x branches, from what the calls return
    counts = {"cells": 0}
    runs: list = []

    def after_run(args, result):
        runs.append(result)
        counts["cells"] += result.step_count * result.snapshots[0].values.size

    def after_sandwich(args, report):
        counts["cells"] += 3 * report.step_count * args[0].grid.N ** args[0].grid.n

    def after_residual(args, report):  # one step of the space operator
        counts["cells"] += args[1].N ** args[1].n

    _wrap_after(solver, "run", after_run)
    _wrap_after(harness, "run_sandwich", after_sandwich)
    _wrap_after(barenblatt, "residual_check", after_residual)

    tracer = None
    dispatch = pmelab.cli.dispatch
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        _install_tracing(tracer, pmelab)
        dispatch = tracer.wrap("cli.dispatch", dispatch)
    else:
        _mark_first_call((solver, harness), clock)

    outdir = os.path.join(spec["round_dir"], "out")
    raw: dict = {}
    outcomes = []
    # The first loop runs before the first call into solver/harness, so run.py
    # takes its duration out of setup_s.
    loop_before = reference_loop_s()
    t0 = time.perf_counter()
    for op in spec["ops"]:
        del runs[:]
        outcome = {"name": op["name"], "status": 0, "detail": ""}
        try:
            if "cli" in op:
                outcome["status"] = dispatch(["--outdir", outdir] + op["cli"])
            else:
                pr = op["probe"]
                p = problem.Problem(
                    grid=problem.Grid(n=1, L=pr["L"], N=pr["N"]), alpha=pr["alpha"],
                    p0=1.0, flux=problem.linear_flux_model(pr["c"]),
                    u0=lambda x, w2=pr["width2"]: np.exp(-x[0] ** 2 / w2))
                times = tuple(np.linspace(0.0, pr["t_end"], pr["snapshots"]))
                solver.run(p, solver.SchemeConfig(t_end=pr["t_end"], snapshot_times=times))
        except Exception:  # one failed operation must not end the round
            outcome["status"] = "error"
            outcome["detail"] = traceback.format_exc(limit=3)
        if op.get("keep") == "snapshots" and runs:
            raw[op["name"]] = np.array([s.values for s in runs[0].snapshots])
        elif op.get("keep") == "final_profiles":
            for r in runs:
                raw[f"{op['name']}_{r.snapshots[-1].values.size}"] = r.snapshots[-1].values
        outcomes.append(outcome)
    wall_s = time.perf_counter() - t0
    loop_after = reference_loop_s()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    np.savez(os.path.join(spec["round_dir"], "raw.npz"), **raw)
    result = {"import_s": import_s, "first_call": clock["first_call"], "wall_s": wall_s,
              "loop_s": [loop_before, loop_after],
              "rss_mb": rss_mb, "cell_updates": counts["cells"], "ops": outcomes}
    if tracer is not None:
        tracer.write(os.path.join(spec["round_dir"], "trace.json"))
        out_bytes = sum(e.stat().st_size for e in os.scandir(outdir)) \
            if os.path.isdir(outdir) else 0
        result["layers"] = _layer_metrics(tracer, import_s, out_bytes)
        result["traced_cell_updates"] = tracer.counters.get("cells", 0)
    with open(os.path.join(spec["round_dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
