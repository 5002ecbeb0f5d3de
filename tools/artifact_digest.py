"""Digest of what the pmelab CLI writes for a fixed list of commands.

    python3 tools/artifact_digest.py SRC > digest.json

SRC is a pmelab source tree: the directory that holds the `pmelab` package,
such as `src` in a checkout. Each command runs in a fresh interpreter against
SRC, in an empty output directory of its own. The JSON printed maps each
command to the sha256 of every file it wrote, of its stdout and of its stderr,
and to its exit code. Two trees that write the same bytes give the same
digest, so comparing two trees is one `diff` of their digests.

COMMANDS lists the commands; the comment above each group says what it covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = [
    # acceptance criterion 10
    ["run", "--set", "N=120", "--set", "u0=gaussian", "--t-end", "0.5"],
    ["figure1", "--t-end", "1.0", "--N", "200"],
    ["barenblatt-validate", "--grids", "100,200"],
    ["decay-study", "--t-end", "1.0", "--set", "N=100", "--set", "u0=gaussian",
     "--snapshots", "12"],
    ["moser-table", "--m", "20"],
    ["check-flux", "--flux", "burgers"],
    ["sandwich", "--eps-list", "0.1,0.01", "--t-end", "0.2"],
    # the benchmark workloads (bench/run.py) at the middle of their random ranges
    ["figure1", "--k", "1.5"],
    ["run", "--set", "n=2", "--set", "flux=burgers", "--set", "u0=gaussian amp=1.0 width=1.0",
     "--set", "N=160", "--set", "L=10.0", "--t-end", "3.0", "--snapshots", "11"],
    ["sandwich", "--eps-list", "0.1,0.01,0.001", "--t-end", "3"],
    ["barenblatt-validate", "--grids", "200,400,800,1600"],
    ["decay-study", "--set", "N=800", "--set", "L=40",
     "--set", "u0=gaussian amp=1.0 width=1.0", "--t-end", "50.0", "--alphas", "0.5,1.0"],
    # further cases
    ["moser-table", "--m", "60"],
    ["check-flux", "--flux", "figure1"],
    ["check-flux", "--flux", "linear c=3"],
    ["check-flux", "--flux", "zero"],
    ["run", "--set", "flux=linear c=3", "--set", "u0=gaussian width=8", "--set", "L=5",
     "--set", "N=100", "--t-end", "0.5"],
    ["run", "--set", "flux=figure1", "--set", "alpha=1.7", "--set", "boundary=dirichlet_zero",
     "--set", "N=200", "--t-end", "1.0"],
    ["sandwich", "--set", "n=2", "--set", "N=40", "--eps-list", "0.1,0.01", "--t-end", "0.2"],
    ["sandwich", "--set", "n=2", "--set", "N=40", "--set", "boundary=dirichlet_zero",
     "--eps-list", "0.1,0.01", "--t-end", "0.2"],
    ["check-flux", "--flux", "burgers", "--samples", "5"],
    ["sandwich", "--eps-list", "0.1,0.1", "--t-end", "0.2"],
    ["decay-study", "--t-end", "1.0", "--set", "N=100", "--q-list", "2,2",
     "--snapshots", "12"],
    ["decay-study", "--t-end", "1.0", "--set", "N=100", "--alphas", "1,1",
     "--snapshots", "12"],
    # the exact support reaches L=3 by t1=2
    ["barenblatt-validate", "--L", "3", "--grids", "100,200"],
    # 2-D steps on both axes: no advection, and advection with zero ghost cells
    ["run", "--set", "n=2", "--set", "flux=zero", "--set", "u0=signed_gaussian",
     "--set", "L=2", "--set", "N=40", "--t-end", "0.5"],
    ["run", "--set", "n=2", "--set", "flux=linear c=1.5", "--set", "u0=gaussian width=1.5",
     "--set", "boundary=dirichlet_zero", "--set", "L=2", "--set", "N=40",
     "--t-end", "0.3"],
    ["decay-study", "--t-end", "1.0", "--set", "N=50", "--alphas", "1,1.0000001",
     "--snapshots", "12"],
    # 1-D Burgers, unstacked, with signed data under both boundary policies
    ["run", "--set", "flux=burgers", "--set", "u0=signed_gaussian", "--set", "L=3",
     "--set", "N=120", "--t-end", "1"],
    ["run", "--set", "flux=burgers", "--set", "u0=signed_gaussian", "--set", "L=3",
     "--set", "N=120", "--set", "boundary=dirichlet_zero", "--t-end", "1"],
    # a flux whose a is 0 on the grid, 1-D and 2-D under both boundary policies:
    # no axis advects, so the step is its diffusion half alone and calls no g
    ["run", "--set", "flux=linear c=0", "--set", "u0=signed_gaussian", "--set", "L=3",
     "--set", "N=120", "--t-end", "1"],
    ["run", "--set", "flux=linear c=0", "--set", "u0=signed_gaussian", "--set", "L=3",
     "--set", "N=120", "--set", "boundary=dirichlet_zero", "--t-end", "1"],
    ["run", "--set", "n=2", "--set", "flux=linear c=0", "--set", "u0=signed_gaussian",
     "--set", "L=3", "--set", "N=40", "--t-end", "1"],
    ["run", "--set", "n=2", "--set", "flux=linear c=0", "--set", "u0=signed_gaussian",
     "--set", "L=3", "--set", "N=40", "--set", "boundary=dirichlet_zero", "--t-end", "1"],
    # 2-D Burgers from signed data under dirichlet_zero: g's falling half, and
    # g(0) at the ghost cells; mass leaves through the walls, so the run fails
    # its budget verdict
    ["run", "--set", "n=2", "--set", "flux=burgers", "--set", "u0=signed_gaussian",
     "--set", "boundary=dirichlet_zero", "--set", "L=2", "--set", "N=40", "--t-end", "0.3"],
    # every option of figure1 and barenblatt-validate off its default, and a run's CFL
    ["figure1", "--k", "1.2", "--alpha", "0.7", "--t-end", "0.5", "--L", "8", "--N", "150"],
    ["barenblatt-validate", "--alpha", "0.5", "--C", "2", "--t0", "0.5", "--t1", "1",
     "--L", "15", "--grids", "60,120"],
    ["run", "--set", "N=100", "--t-end", "0.3", "--cfl", "0.5"],
    # the benchmark's step-size probe through the CLI: 31 landings, each one a
    # State built and checked from a stepped state
    ["run", "--set", "flux=linear c=20", "--set", "L=5", "--set", "N=200", "--set", "alpha=1",
     "--set", "u0=gaussian width=0.7071067811865476", "--t-end", "0.3", "--snapshots", "31"],
    # signed zeros: the datum -0.0 everywhere steps to +0.0, and the CSV keeps both texts
    ["run", "--set", "u0=gaussian amp=-0.0", "--set", "N=20", "--t-end", "0.1",
     "--snapshots", "3"],
    # the step's identity drops (alpha = 1, a uniform reach, a coefficient of
    # 1.0), each beside a case that does not take it: the coefficient -1.0,
    # which keeps its product, a uniform reach and the coefficient 1.0 on both
    # axes of 2-D, and an array reach at alpha = 1
    ["run", "--set", "flux=linear c=-1", "--set", "alpha=1", "--set", "N=100",
     "--t-end", "0.5"],
    ["run", "--set", "n=2", "--set", "flux=linear c=1", "--set", "u0=gaussian",
     "--set", "L=2", "--set", "N=40", "--t-end", "0.3"],
    ["run", "--set", "flux=figure1", "--set", "alpha=1", "--set", "N=200", "--t-end", "1.0"],
    # G(u) = |u|^alpha u/(alpha+1): alpha + 1 = 4 is a power of two, whose
    # division the step takes as a product by 1/4; alpha + 1 = 3 is not
    ["run", "--set", "alpha=3", "--set", "u0=signed_gaussian", "--set", "L=5",
     "--set", "N=200", "--t-end", "1"],
    ["run", "--set", "flux=burgers", "--set", "alpha=2", "--set", "u0=signed_gaussian",
     "--set", "L=5", "--set", "N=200", "--t-end", "1"],
    # data at the zero_flux wall (the wall reproducer): advection carries about
    # half the mass out through the high wall, and the run fails
    ["run", "--set", "flux=linear c=1", "--set", "L=3", "--set", "N=120", "--t-end", "3"],
    # compact data whose support reaches the walls: the zero-flux step works on
    # the cells the support can reach, until it spans the box
    ["run", "--set", "flux=zero", "--set", "u0=barenblatt C=1 t=1", "--set", "L=3",
     "--set", "N=120", "--t-end", "5"],
    ["run", "--set", "flux=zero", "--set", "u0=barenblatt C=1 t=1", "--set", "L=3",
     "--set", "N=120", "--set", "boundary=dirichlet_zero", "--t-end", "5"],
    # 2-D compact data that reach the dirichlet_zero walls by t=0.2: the
    # diffusive wall outflow reads G's ghost cells
    ["run", "--set", "n=2", "--set", "flux=zero", "--set", "u0=barenblatt C=0.5 t=0.2",
     "--set", "L=2", "--set", "N=40", "--set", "boundary=dirichlet_zero", "--t-end", "1"],
    # non-numeric text in a list option and in a scalar setting
    ["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "1,x"],
    ["run", "--set", "N=abc", "--t-end", "0.1"],
    # a u range whose width 2M overflows: rejected before any sampling
    ["check-flux", "--flux", "linear c=1", "--umax", "1e308"],
    ["check-flux", "--flux", "linear c=1", "--umin=-1e308", "--umax", "1e308"],
    # q, n and alpha whose closed forms' denominators overflow: rejected before
    # any NaN or Infinity reaches the JSON
    ["moser-table", "--q", "1e308"],
    ["moser-table", "--n", "2", "--alpha", "1e308"],
    # a p0 whose smoothing exponents' denominator 2 p0 + n alpha overflows
    ["sandwich", "--set", "p0=1e308", "--set", "N=50", "--eps-list", "0.1,0.01",
     "--t-end", "0.05"],
    # a decay-study datum of zero L^p0 norm: rejected before any run
    ["decay-study", "--set", "u0=zero", "--set", "N=50", "--t-end", "1"],
    # a --config path that is a directory: rejected before any work
    ["run", "--config", "/"],
    # plots with a flat x range (one cell) and a flat y range (u = 0)
    ["run", "--set", "N=1", "--t-end", "0.01"],
    ["run", "--set", "u0=zero", "--t-end", "0.01"],
    # a CFL factor whose first dt underflows: a run error
    ["run", "--cfl", "5e-324", "--t-end", "0.01"],
    # a divergence that overflows on the sampled u range: a non-finite check
    ["check-flux", "--flux", "figure1 k=400", "--umax", "10"],
    # finite data whose |u|^2 is finite but whose G = |u|^2 u/3 overflows: a run
    # error at step 1 that names G, before G is formed and with no numpy warning
    ["run", "--set", "u0=gaussian amp=1e150", "--set", "alpha=2", "--t-end", "0.01"],
    # an alpha below the bound under which G's ceiling compare cannot resolve:
    # rejected before any step
    ["run", "--set", "u0=gaussian amp=1.7e308", "--set", "alpha=1e-17", "--t-end", "0.001"],
    # data whose G(max|u|) is below the least normal float: a run error that names the underflow
    ["run", "--set", "u0=gaussian amp=1e-200", "--set", "N=40", "--t-end", "0.01"],
    # the same datum in the sandwich: only the middle branch underflows, and is named
    ["sandwich", "--set", "u0=gaussian amp=1e-200", "--set", "N=40", "--eps-list", "0.1",
     "--t-end", "0.05"],
    # nonzero data whose |u|^2 underflows to 0 in every cell: max|u|^2 = 0 as for zero
    # data, and a run error that names the underflow; in the sandwich, the middle branch
    ["run", "--set", "u0=gaussian amp=1e-200", "--set", "alpha=2", "--t-end", "0.01"],
    ["sandwich", "--set", "u0=gaussian amp=1e-200", "--set", "alpha=2"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(src: str, argv: list[str]) -> dict:
    """Exit code and sha256 of stdout, stderr and each file written by one command."""
    with tempfile.TemporaryDirectory() as outdir:
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "pmelab.cli", "--outdir", outdir, *argv],
            capture_output=True, env=env, cwd=outdir, check=False)
        files = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout),
            "stderr": _sha(proc.stderr), "files": files}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isfile(os.path.join(argv[0], "pmelab", "cli.py")):
        print("usage: python3 tools/artifact_digest.py SRC", file=sys.stderr)
        return 2
    print(json.dumps({" ".join(cmd): digest(argv[0], cmd) for cmd in COMMANDS}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
