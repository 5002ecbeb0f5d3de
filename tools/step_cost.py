"""Microseconds per step of six fixed problems, for one pmelab tree or for two
in alternating pairs.

    python3 tools/step_cost.py SRC
    python3 tools/step_cost.py SRC_A SRC_B

SRC is a pmelab source tree: the directory that holds the `pmelab` package,
such as `src` in a checkout. With one tree, each case runs five times in this
process and prints the best run's wall time over its step count, with the
step count. The cases are the 1-D zero flux of the decay-study benchmark
(N=800, L=40, a unit Gaussian to t=50) at alpha = 0.5 and alpha = 1, the
default `figure1` problem (N=600), the burgers-2d benchmark's problem (N=160,
L=10, 11 snapshots to t=3), under its zero_flux walls and under
dirichlet_zero, whose ghost cells hold g(0) and G(0), and the `sandwich`
command's default problem (Burgers, N=400, L=10, alpha=1, a signed Gaussian)
at eps=0.1 to t=3, through `harness.run_sandwich`, which steps its three
branches as one stacked state.

With two trees, each tree's `pmelab` is copied to a path of the same length
in a temporary directory, and PAIRS pairs of passes run, each pass the
one-tree timing of one tree in a fresh interpreter, in ABBA order: A then B,
B then A, and so on. For each case it prints each tree's step count and
median, the median of the paired differences B - A (also as a share of A's
median), the share of pairs that each tree won (ties count for neither) and
each tree's interquartile range. The figures are those of the machine it
runs on.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10

# name -> (problem settings, with eps for a sandwich, t_end, number of evenly
# spaced snapshot times)
CASES = {
    "zero-1d alpha=0.5": ({"N": "800", "L": "40", "alpha": "0.5", "u0": "gaussian"}, 50.0, 2),
    "zero-1d alpha=1": ({"N": "800", "L": "40", "alpha": "1", "u0": "gaussian"}, 50.0, 2),
    "figure1": ({"flux": "figure1 k=1.5", "u0": "gaussian", "alpha": "0.5", "L": "10.0",
                 "N": "600"}, 5.0, 6),
    "burgers-2d": ({"n": "2", "flux": "burgers", "u0": "gaussian amp=1.0 width=1.0",
                    "N": "160", "L": "10.0"}, 3.0, 11),
    "burgers-2d dirichlet_zero": ({"n": "2", "flux": "burgers",
                                   "u0": "gaussian amp=1.0 width=1.0", "N": "160", "L": "10.0",
                                   "boundary": "dirichlet_zero"}, 3.0, 11),
    "sandwich eps=0.1": ({"flux": "burgers", "u0": "signed_gaussian", "N": "400", "L": "10",
                          "alpha": "1", "p0": "1", "eps": "0.1"}, 3.0, 2),
}

# a pass in a fresh interpreter: argv is the tree, the cases as JSON and the repeats
CHILD = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import step_cost; "
         "print(json.dumps(step_cost.measure_all(json.loads(sys.argv[3]), int(sys.argv[4]))))")


def measure(settings: dict, t_end: float, snapshots: int, repeats: int = 5) -> tuple[int, float]:
    """(steps, µs per step) of the fastest of `repeats` runs of one case:
    `solver.run`, or `harness.run_sandwich` where the settings hold an eps."""
    import numpy as np

    from pmelab import harness, problem, solver

    settings = dict(settings)
    eps = settings.pop("eps", None)
    p = problem.problem_from_mapping(settings)
    times = tuple(t_end * j / (snapshots - 1) for j in range(snapshots))
    config = solver.SchemeConfig(t_end=t_end, snapshot_times=times)
    psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))  # the sandwich command's
    run = ((lambda: solver.run(p, config)) if eps is None else
           lambda: harness.run_sandwich(p, float(eps), psi, config))
    best, steps = float("inf"), 0
    for _ in range(repeats):
        start = time.perf_counter()
        steps = run().step_count
        best = min(best, time.perf_counter() - start)
    return steps, best * 1e6 / steps


def measure_all(cases: dict, repeats: int = 5) -> dict:
    """{name: (steps, µs per step)} of each case, by `measure`."""
    return {name: measure(*case, repeats=repeats) for name, case in cases.items()}


def paired(src_a: str, src_b: str, cases: dict = CASES, pairs: int = PAIRS,
           repeats: int = 5) -> list[tuple]:
    """Per case: (name, steps of A, steps of B, median of A, median of B, median
    of B - A, share of pairs won by A, by B, IQR of A, IQR of B), from `pairs`
    >= 2 pairs of passes in ABBA order, each pass a fresh interpreter that
    imports its tree from a path as long as the other's."""
    runs = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as tmp:
        for key, src in (("a", src_a), ("b", src_b)):
            shutil.copytree(os.path.join(src, "pmelab"), os.path.join(tmp, key, "pmelab"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        for i in range(pairs):
            for key in ("ab" if i % 2 == 0 else "ba"):
                out = subprocess.run(
                    [sys.executable, "-c", CHILD, os.path.join(tmp, key), TOOLS,
                     json.dumps(cases), str(repeats)],
                    capture_output=True, text=True, env=env, check=True).stdout
                runs[key].append(json.loads(out))
    rows = []
    for name in cases:
        (steps_a, a), (steps_b, b) = (
            (runs[key][0][name][0], [run[name][1] for run in runs[key]]) for key in "ab")
        rows.append((name, steps_a, steps_b, statistics.median(a), statistics.median(b),
                     statistics.median([y - x for x, y in zip(a, b)]),
                     sum(x < y for x, y in zip(a, b)) / pairs,
                     sum(y < x for x, y in zip(a, b)) / pairs, _iqr(a), _iqr(b)))
    return rows


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or not all(
            os.path.isfile(os.path.join(src, "pmelab", "solver.py")) for src in argv):
        print("usage: python3 tools/step_cost.py SRC [SRC_B]", file=sys.stderr)
        return 2
    width = max(map(len, CASES))
    if len(argv) == 1:
        sys.path.insert(0, os.path.abspath(argv[0]))
        print(f"{'case':<{width}}{'steps':>8}{'us/step':>10}")
        for name, case in CASES.items():
            steps, cost = measure(*case)
            print(f"{name:<{width}}{steps:>8}{cost:>10.1f}")
        return 0
    print(f"{PAIRS} pairs, A = {argv[0]}, B = {argv[1]}; us/step")
    heads = ("steps A", "steps B", "A", "B", "B-A", "B-A %", "A won", "B won", "IQR A", "IQR B")
    print(f"{'case':<{width}}" + "".join(f"{h:>9}" for h in heads))
    for name, sa, sb, ma, mb, diff, wa, wb, qa, qb in paired(*argv):
        print(f"{name:<{width}}{sa:>9}{sb:>9}{ma:>9.1f}{mb:>9.1f}{diff:>+9.2f}"
              f"{100 * diff / ma:>+9.2f}{wa:>9.0%}{wb:>9.0%}{qa:>9.2f}{qb:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
