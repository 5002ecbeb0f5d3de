"""Digest of what the pmelab CLI writes for a fixed list of commands.

    python3 tools/artifact_digest.py SRC > digest.json

SRC is a pmelab source tree: the directory that holds the `pmelab` package,
such as `src` in a checkout. Each command runs in a fresh interpreter against
SRC, in an empty output directory of its own. The JSON printed maps each
command to the sha256 of every file it wrote, of its stdout and of its stderr,
and to its exit code. Two trees that write the same bytes give the same
digest, so comparing two trees is one `diff` of their digests.

The list covers the seven commands of acceptance criterion 10, the commands
of the four benchmark workloads at their middle parameters, and cases the
criterion-10 list leaves out: a long Moser table, every catalog flux under
check-flux, data at the walls under both boundary policies, a 2-D sandwich,
and options given a value that is rejected before any work.
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
    ["check-flux", "--flux", "linear", "--c", "3"],
    ["run", "--set", "flux=linear c=3", "--set", "u0=gaussian width=8", "--set", "L=5",
     "--set", "N=100", "--t-end", "0.5"],
    ["run", "--set", "flux=figure1", "--set", "alpha=1.7", "--set", "boundary=dirichlet_zero",
     "--set", "N=200", "--t-end", "1.0"],
    ["sandwich", "--set", "n=2", "--set", "N=40", "--eps-list", "0.1,0.01", "--t-end", "0.2"],
    ["check-flux", "--flux", "burgers", "--samples", "5"],
    ["sandwich", "--eps-list", "0.1,0.1", "--t-end", "0.2"],
    ["decay-study", "--t-end", "1.0", "--set", "N=100", "--q-list", "2,2",
     "--snapshots", "12"],
    ["decay-study", "--t-end", "1.0", "--set", "N=100", "--alphas", "1,1",
     "--snapshots", "12"],
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
