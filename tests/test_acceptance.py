"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line directly to the terminal.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from pmelab import barenblatt as bb
from pmelab import cli
from pmelab import exponents as ex
from pmelab import harness as hz
from pmelab import problem as pr
from pmelab import solver as sv

LATTICE = list(itertools.product((1.0, 2.0, 5.0), (1, 2, 3), (0.5, 1.0, 2.0)))


@pytest.fixture
def report(capfd):
    def _report(num, name, passed, detail=""):
        with capfd.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"[criterion {num:2d}] {status}  {name}  {detail}")
        assert passed, f"criterion {num}: {name} {detail}"
    return _report


def gaussian(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def signed_bump(x):
    return x[0] * np.exp(-x[0] ** 2)


def test_criterion_01_moser_oracle_equivalence(report):
    import time
    start = time.perf_counter()
    worst = 0.0
    worst_limit = 0.0
    for q, n, a in LATTICE:
        for m in (1, 2, 5, 13, 40):
            for closed, brute in (
                    (ex.moser_A(m, q, n, a), ex.moser_A_bruteforce(m, q, n, a)),
                    (ex.moser_exponent_sum(m, q, n, a),
                     ex.moser_exponent_sum_bruteforce(m, q, n, a))):
                worst = max(worst, abs(closed - brute) / max(1.0, abs(brute)))
            for j in (0, m // 2, m):
                closed = ex.moser_B(j, m, q, n, a)
                brute = ex.moser_B_bruteforce(j, m, q, n, a)
                worst = max(worst, abs(closed - brute) / max(1.0, abs(brute)))
        A_inf, S_inf = ex.moser_limits(q, n, a)
        worst_limit = max(worst_limit,
                          abs(ex.moser_A(40, q, n, a) - A_inf),
                          abs(ex.moser_exponent_sum(40, q, n, a) - S_inf))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_limit <= 1e-9 and elapsed < 1.0
    report(1, "Moser algebra oracle equivalence", ok,
           f"(oracle gap {worst:.2e}, limit gap {worst_limit:.2e}, {elapsed:.2f}s)")


def test_criterion_02_cross_theorem_consistency(report):
    worst = 0.0
    for q, n, a in LATTICE:
        A_inf, S_inf = ex.moser_limits(q, n, a)
        d0, g0 = ex.smoothing_exponents(n, q, a)
        worst = max(worst, abs(A_inf - d0), abs(-S_inf - g0))
    report(2, "exponent cross-theorem consistency", worst <= 1e-9,
           f"(worst gap {worst:.2e})")


def test_criterion_03_barenblatt_optimal_rate(report):
    worst = 0.0
    for n, a in ((1, 0.5), (1, 1.0), (2, 1.0)):
        prof = bb.BarenblattProfile(n=n, alpha=a, C=1.0)
        ts = np.geomspace(1.0, 100.0, 40)
        series = [(t, bb.sup_value(prof, t)) for t in ts]
        slope, _, _ = hz.fit_decay(series, (1.0, 100.0))
        _, g0 = ex.smoothing_exponents(n, 1.0, a)
        worst = max(worst, abs(slope + g0))
    report(3, "exact-profile sup-norm decay slope", worst <= 1e-10,
           f"(worst slope gap {worst:.2e})")


def test_criterion_04_solver_accuracy(report):
    errs, (order,) = hz.refinement_study(
        {"L": "20", "flux": "zero", "u0": "barenblatt C=1 t=1"}, (400, 800),
        functools.partial(bb.evaluate, bb.BarenblattProfile(n=1, alpha=1.0)), 1.0, 2.0)
    report(4, "refinement order against exact profile", order >= 0.9,
           f"(order {order:.3f}, errors {errs[0]:.3e} -> {errs[1]:.3e})")


def test_criterion_05_numerical_smoothing_decay(report):
    times = (0.0,) + tuple(np.geomspace(5.0, 50.0, 16))
    p = pr.Problem(grid=pr.Grid(n=1, L=40.0, N=800), alpha=1.0, p0=1.0,
                   flux=pr.zero_flux_model(1), u0=gaussian)
    res = sv.run(p, sv.SchemeConfig(t_end=50.0, snapshot_times=times))
    rec = hz.decay_record(res, math.inf, (5.0, 50.0))
    gap = abs(rec.fitted_slope + 1.0 / 3.0)
    report(5, "numerical sup-norm decay slope", gap <= 0.03,
           f"(slope {rec.fitted_slope:.4f} vs -1/3, r2 {rec.r_squared:.5f})")


def test_criterion_06_lq_monotonicity(report):
    data = {"gaussian": gaussian,
            "signed": signed_bump,
            "two_bump": lambda x: (np.exp(-(x[0] - 2.0) ** 2)
                                   + 0.5 * np.exp(-(x[0] + 2.0) ** 2))}
    worst = -math.inf
    times = tuple(np.linspace(0.0, 2.0, 21))
    for flux in (pr.burgers_flux_model(1), pr.zero_flux_model(1)):
        for u0 in data.values():
            p = pr.Problem(grid=pr.Grid(n=1, L=12.0, N=240), alpha=1.0, p0=1.0,
                           flux=flux, u0=u0)
            res = sv.run(p, sv.SchemeConfig(t_end=2.0, snapshot_times=times))
            reports = hz.audit_lq_monotonicity(res, [1, 2, 4, math.inf])
            worst = max(worst, max(r.max_uptick for r in reports.values()))
    report(6, "L^q norm monotonicity", worst <= 1e-8,
           f"(max relative uptick {worst:.2e})")


def test_criterion_07_energy_inequality(report):
    fluxes = [pr.zero_flux_model(1), pr.burgers_flux_model(1),
              pr.linear_flux_model(1.0, 1)]
    times = tuple(np.linspace(0.0, 2.0, 41))
    worst = math.inf
    for flux in fluxes:
        p = pr.Problem(grid=pr.Grid(n=1, L=12.0, N=240), alpha=1.0, p0=1.0,
                       flux=flux, u0=gaussian)
        res = sv.run(p, sv.SchemeConfig(t_end=2.0, snapshot_times=times))
        for gamma in (1.5, 2.0, 3.0):
            for q in (2.0, 4.0):
                audit = hz.audit_energy_inequality(res, q=q, gamma=gamma,
                                                   t0=0.0, alpha=1.0)
                worst = min(worst, audit.margin / audit.rhs_term)
                assert audit.passed, (flux.name, gamma, q, audit)
    report(7, "weighted energy inequality margins", worst >= -0.05,
           f"(worst margin {worst:+.4f} of rhs)")


def test_criterion_08_sign_splitting_sandwich(report):
    p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=400), alpha=1.0, p0=1.0,
                   flux=pr.burgers_flux_model(1), u0=signed_bump)
    psi = gaussian
    cfg = sv.SchemeConfig(t_end=1.0)
    reports = [hz.run_sandwich(p, eps, psi, cfg) for eps in (0.1, 0.01, 0.001)]
    worst = min(min(r.max_lower_violation, r.max_upper_violation) for r in reports)
    envs = [r.envelope for r in reports]
    ok = worst >= -1e-12 and envs[0] > envs[1] > envs[2]
    report(8, "comparison sandwich for signed data", ok,
           f"(worst violation {worst:+.2e}, envelopes {envs[0]:.4f} > "
           f"{envs[1]:.4f} > {envs[2]:.4f})")


def test_criterion_09_figure1_reproduction(report, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.dispatch(["--outdir", str(out), "figure1", "--t-end", "5.0"])
        assert rc == 0
    files = sorted(p.name for p in a.iterdir())
    suffixes = {name.rsplit(".", 1)[1] for name in files}
    stable = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    payload = json.loads(next(a.glob("*.json")).read_text())
    ok = ({"csv", "svg", "json"} <= suffixes
          and payload["l1_nonincreasing_within_half_percent"]
          and payload["solution_moved"] and stable)
    report(9, "advection-growth experiment reproduction", ok,
           f"(l1 uptick {payload['l1_max_relative_uptick']:.2e}, "
           f"byte-stable {stable})")


def test_criterion_10_determinism(report, tmp_path):
    commands = [
        ["run", "--set", "N=120", "--set", "u0=gaussian", "--t-end", "0.5"],
        ["figure1", "--t-end", "1.0", "--N", "200"],
        ["barenblatt-validate", "--grids", "100,200"],
        ["decay-study", "--t-end", "1.0", "--set", "N=100",
         "--set", "u0=gaussian", "--snapshots", "12"],
        ["moser-table", "--m", "20"],
        ["check-flux", "--flux", "burgers"],
        ["sandwich", "--eps-list", "0.1,0.01", "--t-end", "0.2"],
    ]
    unstable = []
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        for out in (a, b):
            rc = cli.dispatch(["--outdir", str(out)] + argv)
            assert rc == 0, (argv, rc)
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b or any(
                (a / f).read_bytes() != (b / f).read_bytes() for f in names_a):
            unstable.append(argv[0])
    report(10, "byte-identical re-runs for every command", not unstable,
           f"(commands checked {len(commands)}, unstable {unstable or 'none'})")
