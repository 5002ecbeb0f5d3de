"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest bench -q

Each check first passes on a real pmelab output made at a small size, then
fails on a copy with one deliberate corruption, so that no check passes
vacuously.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from pmelab import barenblatt, cli, solver  # noqa: E402
from pmelab.problem import Grid, Problem, zero_flux_model  # noqa: E402


def _run_cli(tmp_path, *argv) -> dict:
    outdir = str(tmp_path / "out")
    assert cli.dispatch(["--outdir", outdir, *argv]) == 0
    return {os.path.basename(p).rpartition("_")[0] + os.path.splitext(p)[1]: p
            for p in glob.glob(os.path.join(outdir, "*"))}


def _rewrite_csv(src, dst, data) -> str:
    with open(src, encoding="utf-8") as fh:
        head = fh.readline() + fh.readline()
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(head)
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return str(dst)


def _has(problems, text) -> bool:
    return any(text in p for p in problems)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,alpha,C,t", [(1, 1.0, 1.0, 2.0), (1, 0.5, 0.7, 1.3),
                                         (1, 2.0, 1.9, 0.4), (2, 1.0, 1.2, 3.0)])
def test_barenblatt_closed_form_matches_pmelab(n, alpha, C, t):
    grid = Grid(n=n, L=6.0, N=60)
    x = grid.cell_centers()
    ours = checks.barenblatt(x, t, alpha, C, n=n)
    theirs = barenblatt.evaluate(barenblatt.BarenblattProfile(n=n, alpha=alpha, C=C), x, t)
    assert np.max(ours) > 0 and np.min(ours) == 0.0
    np.testing.assert_allclose(ours, theirs, rtol=1e-14, atol=1e-300)


def test_self_times_subtract_union_of_children():
    a = ["cli", 0, 100, None]
    b = ["solver.run", 10, 60, a]
    c = ["solver.run", 40, 90, a]          # overlaps b, as from a second thread
    d = ["solver.step", 20, 30, b]
    st = self_times([a, b, c, d])
    assert st["cli"] == (1, pytest.approx(20e-9))
    assert st["solver.run"] == (2, pytest.approx(40e-9 + 50e-9))
    assert st["solver.step"] == (1, pytest.approx(10e-9))


def test_tracer_parents_worker_thread_spans_on_main_span():
    import threading

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap("outer", outer)()
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["inner"][3] is by_name["outer"]


# ---------------------------------------------------------------------------
# figure1 and the probe
# ---------------------------------------------------------------------------

def test_figure1_check(tmp_path):
    out = _run_cli(tmp_path, "figure1", "--N", "120", "--t-end", "1")
    path = out["figure1.csv"]
    assert checks.check_figure1(path, L=10.0, N=120) == []
    _, d = checks.read_csv(path)

    bad = d.copy()
    bad[60, 2] += 1e-6
    assert _has(checks.check_figure1(_rewrite_csv(path, tmp_path / "a.csv", bad), 10.0, 120),
                "integral drifts")
    bad = d.copy()
    bad[0, 2], bad[1, 2] = -1e-3, bad[1, 2] + bad[0, 2] + 1e-3
    assert _has(checks.check_figure1(_rewrite_csv(path, tmp_path / "b.csv", bad), 10.0, 120),
                "goes negative")
    bad = d.copy()
    bad[:, 2] = bad[:, 1]
    assert _has(checks.check_figure1(_rewrite_csv(path, tmp_path / "c.csv", bad), 10.0, 120),
                "did not move")
    bad = d.copy()
    bad[60, 1] *= 1.0 + 1e-9
    assert _has(checks.check_figure1(_rewrite_csv(path, tmp_path / "d.csv", bad), 10.0, 120),
                "not exp(-x^2)")


def test_sup_never_rises():
    snaps = np.array([[0.0, 1.0, 0.5], [0.1, 0.9, 0.4], [0.2, 0.8, 0.3]])
    assert checks.check_sup_never_rises(snaps) == []
    snaps[2, 1] = 0.95
    assert _has(checks.check_sup_never_rises(snaps), "between snapshots 1 and 2")


# ---------------------------------------------------------------------------
# burgers-2d
# ---------------------------------------------------------------------------

def test_burgers_2d_check(tmp_path):
    L, N, amp, width, S = 10.0, 24, 1.01, 0.99, 5
    out = _run_cli(tmp_path, "run", "--set", "n=2", "--set", "flux=burgers",
                   "--set", f"u0=gaussian amp={amp} width={width}", "--set", f"N={N}",
                   "--set", f"L={L}", "--t-end", "0.5", "--snapshots", str(S))
    path, times = out["run.csv"], np.linspace(0.0, 0.5, S)

    def problems(data, name):
        return checks.check_burgers_2d(_rewrite_csv(path, tmp_path / name, data),
                                       L, N, amp, width, times)

    assert checks.check_burgers_2d(path, L, N, amp, width, times) == []
    _, d = checks.read_csv(path)
    u = d[:, 3].reshape(S, N * N)
    low = int(np.argmin(u[-1]))                # a cell that is ~0

    def with_u(v):
        bad = d.copy()
        bad[:, 3] = v.ravel()
        return bad

    v = u.copy()
    v[-1, 0] += 1e-6
    assert _has(problems(with_u(v), "mass.csv"), "integral drifts")
    v = u.copy()
    v[-1, low] = -1e-30
    assert _has(problems(with_u(v), "neg.csv"), "goes negative")
    v = u.copy()
    v[3] = v[2]                                # flat interval, then raise its maximum
    top = int(np.argmax(v[3]))
    v[3, top] += 1e-3
    v[3, int(np.argsort(v[3])[-2])] -= 1e-3
    assert _has(problems(with_u(v), "max.csv"), "max|u| rises")
    v = u.copy()
    v[3] = v[2]                                # flat interval, then concentrate mass
    top = float(np.max(v[3]))
    a = int(np.argmax(np.where(v[3] < 0.8 * top, v[3], -np.inf)))
    b = int(np.argmax(np.where(v[3] < 0.5 * v[3, a], v[3], -np.inf)))
    moved = min(v[3, b], 0.1 * top)
    v[3, a] += moved
    v[3, b] -= moved
    found = problems(with_u(v), "l2.csv")
    assert _has(found, "L2 norm rises") and not _has(found, "max|u| rises")
    v = u.copy()
    v[0, 0] += 1e-9
    assert _has(problems(with_u(v), "init.csv"), "not the requested Gaussian")


# ---------------------------------------------------------------------------
# sandwich-1d
# ---------------------------------------------------------------------------

def test_sandwich_check(tmp_path):
    eps = [0.1, 0.01, 0.001]
    out = _run_cli(tmp_path, "sandwich", "--set", "flux=burgers", "--set", "u0=signed_gaussian",
                   "--set", "N=100", "--set", "L=10", "--eps-list", "0.1,0.01,0.001",
                   "--t-end", "0.05")
    path = out["sandwich.csv"]
    assert checks.check_sandwich(path, eps, L=10.0, N=100, p0=1.0, alpha=1.0) == []
    _, d = checks.read_csv(path)

    def problems(data, name):
        return checks.check_sandwich(_rewrite_csv(path, tmp_path / name, data), eps,
                                     L=10.0, N=100, p0=1.0, alpha=1.0)

    bad = d.copy()
    bad[1, 1] = -1e-9
    assert _has(problems(bad, "order.csv"), "ordering violated")
    bad = d.copy()
    bad[2, 3] *= 1.0 + 1e-9
    assert _has(problems(bad, "env.csv"), "closed form gives")
    bad = d.copy()
    bad[1, 3] = bad[2, 3]
    assert _has(problems(bad, "mono.csv"), "does not decrease")


# ---------------------------------------------------------------------------
# diffusion-1d
# ---------------------------------------------------------------------------

def test_barenblatt_ladder_check(tmp_path):
    grids = [100, 200, 400]
    out = _run_cli(tmp_path, "barenblatt-validate", "--grids", "100,200,400")
    path = out["barenblatt-validate.csv"]
    profile = barenblatt.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    finals = {}
    for N in grids:
        p = Problem(grid=Grid(n=1, L=20.0, N=N), alpha=1.0, p0=1.0, flux=zero_flux_model(1),
                    u0=lambda x: barenblatt.evaluate(profile, x, 1.0))
        finals[N] = solver.run(p, solver.SchemeConfig(t_end=1.0)).snapshots[-1].values
    errors = checks.barenblatt_errors(finals, L=20.0, t1=2.0, alpha=1.0, C=1.0)
    assert checks.check_barenblatt_ladder(path, errors) == []

    altered = dict(finals)
    altered[400] = finals[400].copy()
    altered[400][200] += 1e-6
    bad = checks.barenblatt_errors(altered, L=20.0, t1=2.0, alpha=1.0, C=1.0)
    assert _has(checks.check_barenblatt_ladder(path, bad), "the benchmark measures")
    flat = {100: errors[100], 200: errors[200], 400: errors[200] * 0.99}
    assert _has(checks.check_barenblatt_ladder(path, flat), "observed order")
    rising = {100: errors[100], 200: errors[200], 400: errors[200] * 1.01}
    assert _has(checks.check_barenblatt_ladder(path, rising), "do not fall with N")


def test_decay_check(tmp_path):
    alphas = [0.5, 1.0]
    out = _run_cli(tmp_path, "decay-study", "--set", "N=400", "--set", "L=40",
                   "--t-end", "50", "--alphas", "0.5,1.0")
    csv_path, json_path = out["decay-study.csv"], out["decay-study.json"]
    assert checks.check_decay(csv_path, json_path, alphas, 50.0) == []

    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def problems(edit, name):
        rows = [ln.split(",") for ln in lines[2:]]
        edit(rows)
        p = tmp_path / name
        p.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
        return checks.check_decay(str(p), json_path, alphas, 50.0)

    def bump_mass(rows):
        r = next(r for r in rows if r[1] == "1.0" and float(r[2]) > 10)
        r[3] = repr(float(r[3]) * (1.0 + 1e-9))

    def tilt_sup(rows):
        for r in rows:
            if r[1] == "inf" and float(r[2]) > 0:
                r[3] = repr(float(r[3]) * float(r[2]) ** -0.05)

    assert _has(problems(bump_mass, "mass.csv"), "q=1 norm is not constant")
    assert _has(problems(tilt_sup, "tilt.csv"), "from -0.4000")

    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["fits"]["alpha=1,q=inf"]["slope"] += 1e-6
    bad_json = tmp_path / "fits.json"
    bad_json.write_text(json.dumps(doc))
    assert _has(checks.check_decay(csv_path, str(bad_json), alphas, 50.0),
                "reported slope")
