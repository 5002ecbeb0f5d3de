"""Microseconds per step of `solver.run` for five fixed problems.

    python3 tools/step_cost.py SRC

SRC is a pmelab source tree: the directory that holds the `pmelab` package,
such as `src` in a checkout. Each case runs `solver.run` five times in this
process and prints the best run's wall time over its step count, with the
step count. The cases are the 1-D zero flux of the decay-study benchmark
(N=800, L=40, a unit Gaussian to t=50) at alpha = 0.5 and alpha = 1, the
default `figure1` problem (N=600) and the burgers-2d benchmark's problem
(N=160, L=10, 11 snapshots to t=3), under its zero_flux walls and under
dirichlet_zero, whose ghost cells hold g(0) and G(0). Run it alternately on
two trees to compare their steps; the figures are those of the machine it
runs on.
"""

from __future__ import annotations

import os
import sys
import time

# name -> (problem settings, t_end, number of evenly spaced snapshot times)
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
}


def measure(settings: dict, t_end: float, snapshots: int, repeats: int = 5) -> tuple[int, float]:
    """(steps, µs per step) of the fastest of `repeats` runs of one case."""
    from pmelab import problem, solver

    p = problem.problem_from_mapping(settings)
    times = tuple(t_end * j / (snapshots - 1) for j in range(snapshots))
    config = solver.SchemeConfig(t_end=t_end, snapshot_times=times)
    best, steps = float("inf"), 0
    for _ in range(repeats):
        start = time.perf_counter()
        steps = solver.run(p, config).step_count
        best = min(best, time.perf_counter() - start)
    return steps, best * 1e6 / steps


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isfile(os.path.join(argv[0], "pmelab", "solver.py")):
        print("usage: python3 tools/step_cost.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    width = max(map(len, CASES))
    print(f"{'case':<{width}}{'steps':>8}{'us/step':>10}")
    for name, case in CASES.items():
        steps, cost = measure(*case)
        print(f"{name:<{width}}{steps:>8}{cost:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
