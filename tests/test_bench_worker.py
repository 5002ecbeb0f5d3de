"""The contract between the benchmark worker and the package: a traced round
must count the same cell updates at the `solver.step` hook as the run results
hold, write the same bytes as a plain round and keep the same final profiles.
bench/run.py rejects a round that breaks any of these, so a change to how a run
steps is checked here on small inputs, in the same subprocess the benchmark uses."""

import json
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"

OPS = [
    {"name": "run-1d", "cli": ["run", "--set", "flux=burgers", "--set", "N=60",
                               "--t-end", "1"]},
    {"name": "run-2d", "cli": ["run", "--set", "n=2", "--set", "flux=burgers",
                               "--set", "N=20", "--t-end", "1"]},
    {"name": "sandwich", "cli": ["sandwich", "--set", "N=60", "--eps-list", "0.1,0.01",
                                 "--t-end", "0.2"]},
    {"name": "figure1", "cli": ["figure1", "--N", "60", "--t-end", "0.2"]},
    {"name": "barenblatt-validate", "keep": "final_profiles",
     "cli": ["barenblatt-validate", "--grids", "40,80"]},
    {"name": "decay-study", "cli": ["decay-study", "--set", "N=60", "--set", "L=20",
                                    "--t-end", "10", "--alphas", "0.5,1.0"]},
    {"name": "probe", "probe": {"c": 20.0, "L": 5.0, "N": 50, "alpha": 1.0, "width2": 0.5,
                                "t_end": 0.3, "snapshots": 4}},
]


def run_round(tmp_path: pathlib.Path, traced: bool) -> tuple[dict, dict]:
    """(result.json, {file name: bytes}) of one worker round on OPS."""
    round_dir = tmp_path / ("traced" if traced else "plain")
    round_dir.mkdir()
    spec = round_dir / "spec.json"
    spec.write_text(json.dumps({"src": str(ROOT / "src"), "round_dir": str(round_dir),
                                "trace": traced, "ops": OPS}))
    proc = subprocess.run([sys.executable, str(WORKER), str(spec)], capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((round_dir / "result.json").read_text())
    out = round_dir / "out"
    return result, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_traced_round_counts_and_writes_as_the_plain_round(tmp_path):
    plain, plain_files = run_round(tmp_path, traced=False)
    traced, traced_files = run_round(tmp_path, traced=True)
    for result in (plain, traced):
        assert [(o["name"], o["status"]) for o in result["ops"]] == \
            [(op["name"], 0) for op in OPS], [o["detail"] for o in result["ops"]]
    assert traced["cell_updates"] == plain["cell_updates"] > 0
    assert traced["traced_cell_updates"] == traced["cell_updates"]
    assert traced_files == plain_files
    for round_name in ("plain", "traced"):
        with np.load(tmp_path / round_name / "raw.npz") as raw:
            assert sorted(raw.files) == ["barenblatt-validate_40", "barenblatt-validate_80"]
    assert {name.split("_")[0] for name in traced_files} == {
        op["cli"][0] for op in OPS if "cli" in op}


# Runs the worker with pmelab.solver.stable_dt replaced by the split rule that
# bench/run.py's PROBE_FAULT names: cfl min(dx/(2 lam), dx^2/(2 n D)), lam the
# largest |f'(u)| and D the largest |u|^alpha, in place of the combined rule.
# The real stable_dt runs first, as it prepares the plan that the step reads.
SPLIT_RULE_BOOTSTRAP = """
import json, os, sys
import numpy as np
spec = sys.argv[1]
with open(spec) as fh:
    src = json.load(fh)["src"]
sys.path[:0] = [src, os.path.join(os.path.dirname(src), "bench")]
from pmelab import solver
import worker

real = solver.stable_dt

def split_rule(state, problem, config, plan):
    real(state, problem, config, plan)
    u, grid = state.values, state.grid
    lam = float(np.max(np.abs(problem.flux.df_du(grid.cell_centers(), u))))
    D = float(np.max(np.abs(u) ** problem.alpha))
    return config.cfl_safety * min(grid.dx / (2.0 * lam), grid.dx ** 2 / (2.0 * grid.n * D))

solver.stable_dt = split_rule
sys.exit(worker.main(spec))
"""


def test_step_size_probe_catches_the_split_rule(tmp_path):
    # the benchmark's probe, run by the worker as bench/run.py runs it and judged
    # by the same check: max|u| never rises under the combined rule, and rises
    # under the split rule (6 times in 270 steps at L=5, N=200, against 335 steps)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import checks
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    ops = [{"name": "probe", "probe": run.PROBE, "keep": "snapshots"}]
    results, rises = {}, {}
    for name, argv in [("plain", [str(WORKER)]),
                       ("fault", ["-c", SPLIT_RULE_BOOTSTRAP])]:
        round_dir = tmp_path / name
        round_dir.mkdir()
        spec = round_dir / "spec.json"
        spec.write_text(json.dumps({"src": str(ROOT / "src"), "round_dir": str(round_dir),
                                    "trace": False, "ops": ops}))
        proc = subprocess.run([sys.executable, *argv, str(spec)], capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        results[name] = json.loads((round_dir / "result.json").read_text())
        assert results[name]["ops"][0]["status"] == 0, results[name]["ops"][0]["detail"]
        with np.load(round_dir / "raw.npz") as raw:
            rises[name] = checks.check_sup_never_rises(raw["probe"])
    assert rises["plain"] == []
    assert rises["fault"], "the probe misses the split rule"
    # the split rule took over the step size: fewer, larger steps
    assert results["fault"]["cell_updates"] < results["plain"]["cell_updates"]
