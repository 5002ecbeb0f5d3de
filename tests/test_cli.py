import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from pmelab import cli, solver, svg
from pmelab import exponents as ex
from pmelab import problem as pr
from pmelab.errors import RunError
from pmelab.problem import Grid, State, problem_from_mapping


def run_cli(tmp_path, *argv):
    # --outdir is a global option, so it precedes the subcommand
    return cli.dispatch(["--outdir", str(tmp_path)] + list(argv))


def outputs(tmp_path, suffix):
    return sorted(tmp_path.glob(f"*.{suffix}"))


class TestSvg:
    def test_basic_document(self):
        x = np.linspace(1.0, 10.0, 20)
        doc = svg.render_svg(
            [svg.Curve(x=x, y=x ** -2, label="decay"),
             svg.Curve(x=x, y=x ** -1, label="slow", dashed=True)],
            title="t", xlabel="time", ylabel="norm", logx=True, logy=True)
        assert doc.startswith("<svg")
        assert doc.rstrip().endswith("</svg>")
        assert doc.count("<polyline") >= 2
        assert "decay" in doc and "slow" in doc
        assert 'stroke-dasharray' in doc

    def test_points_kind(self):
        doc = svg.render_svg(
            [svg.Curve(x=np.array([1.0, 2.0]), y=np.array([3.0, 4.0]),
                       label="pts", kind="points")],
            title="", xlabel="x", ylabel="y")
        assert doc.count("<circle") >= 2

    def test_log_requires_positive(self):
        with pytest.raises(RunError, match="log x axis requires positive values"):
            svg.render_svg([svg.Curve(x=np.array([0.0, 1.0]),
                                      y=np.array([1.0, 2.0]), label="bad")],
                           title="", xlabel="x", ylabel="y", logx=True)

    def test_deterministic_string(self):
        x = np.linspace(0.0, 1.0, 7)
        args = ([svg.Curve(x=x, y=np.sin(x), label="s")],)
        kwargs = dict(title="a", xlabel="b", ylabel="c")
        assert svg.render_svg(*args, **kwargs) == svg.render_svg(*args, **kwargs)


class TestExitCodes:
    def test_unknown_subcommand(self, tmp_path):
        assert cli.dispatch(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert cli.dispatch([]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("wibble = 3\n")
        rc = run_cli(tmp_path, "run", "--config", str(cfg), "--t-end", "0.1")
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = run_cli(tmp_path, "run", "--config", str(tmp_path / "nope.cfg"),
                     "--t-end", "0.1")
        assert rc == 2

    def test_bad_numeric_option(self, tmp_path):
        rc = run_cli(tmp_path, "moser-table", "--q", "0.5")
        assert rc == 2

    def test_check_flux_violation_is_failure(self, tmp_path):
        rc = run_cli(tmp_path, "check-flux", "--flux", "figure1", "--k", "1.5")
        assert rc == 1

    def test_check_flux_pass(self, tmp_path):
        rc = run_cli(tmp_path, "check-flux", "--flux", "burgers")
        assert rc == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["consistency"]["ok"] is True
        # max |u| = 1 on the default range; adjacent u samples keep C_f just below 1
        assert 0.999 < payload["lipschitz"]["C_f"] <= 1.0
        assert payload["passed"] is True

    def test_check_flux_inconsistent_derivative_is_failure(self, tmp_path, monkeypatch):
        def doubled_derivative(n):
            flux = pr.burgers_flux_model(n)
            return dataclasses.replace(flux, df_du=lambda x, t, u: 2.0 * flux.df_du(x, t, u))

        monkeypatch.setitem(pr.FLUX_CATALOG, "burgers", (doubled_derivative, {}))
        assert run_cli(tmp_path, "check-flux", "--flux", "burgers") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["satisfied"] is True
        assert payload["consistency"]["ok"] is False
        assert payload["passed"] is False

    def test_undeclared_flux_parameter(self, tmp_path):
        assert run_cli(tmp_path, "run", "--set", "flux=burgers k=2",
                       "--t-end", "0.1") == 2
        assert run_cli(tmp_path, "check-flux", "--flux", "burgers", "--k", "1.5") == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["run", "--t-end", "nan"], "t_end"),
        (["run", "--t-end", "inf"], "t_end"),
        (["run", "--set", "alpha=nan", "--t-end", "0.1"], "diffusion exponent"),
        (["run", "--set", "L=nan", "--t-end", "0.1"], "half-width"),
        (["run", "--set", "L=inf", "--t-end", "0.1"], "half-width"),
        (["run", "--set", "p0=nan", "--t-end", "0.1"], "initial integrability"),
        (["sandwich", "--set", "p0=inf", "--eps-list", "0.1,0.01", "--t-end", "0.05"],
         "initial integrability"),
        (["sandwich", "--eps-list", "nan,0.1", "--t-end", "0.05"], "perturbation size"),
        (["moser-table", "--m", "0"], "--m"),
        (["barenblatt-validate", "--grids", "100"], "--grids"),
        (["moser-table", "--alpha", "nan"], "diffusion exponent alpha"),
        (["moser-table", "--q", "nan"], "integrability index q"),
        (["figure1", "--k", "nan"], "flux power k"),
        (["check-flux", "--flux", "figure1", "--k", "nan"], "flux power k"),
        (["barenblatt-validate", "--t0", "nan"], "--t0"),
        (["barenblatt-validate", "--C", "nan"], "mass constant C"),
        (["decay-study", "--t-end", "inf"], "t_end"),
        (["barenblatt-validate", "--grids", "100,100"], "--grids"),
        (["barenblatt-validate", "--grids", "200,100"], "--grids"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "nan"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "1,0.5"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,nan"], "--alphas"),
        (["sandwich", "--eps-list", "0.1,nan", "--t-end", "0.05"], "--eps-list"),
        (["run", "--set", "u0=gaussian width=0", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian width=-1", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian amp=inf", "--t-end", "0.1"],
         "'gaussian' parameter amp"),
        (["run", "--set", "flux=linear c=nan", "--t-end", "0.1"], "'linear' parameter c"),
        (["check-flux", "--flux", "linear", "--c", "nan"], "'linear' parameter c"),
        (["check-flux", "--flux", "burgers", "--umin", "0", "--umax", "0"], "u bound M > 0"),
        (["run", "--snapshots", "0", "--t-end", "0.1"], "--snapshots"),
        (["check-flux", "--flux", "burgers", "--samples", "5"], "--samples"),
        (["check-flux", "--flux", "burgers", "--samples", "63"], "--samples"),
        (["sandwich", "--eps-list", "0.1,0.1", "--t-end", "0.05"], "--eps-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "2,2"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "inf,1,oo"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,1.0"], "--alphas"),
    ], ids=["t_end-nan", "t_end-inf", "alpha-nan", "L-nan", "L-inf", "p0-nan",
            "sandwich-p0-inf", "sandwich-eps-nan", "moser-m-0", "one-grid",
            "moser-alpha-nan", "moser-q-nan", "figure1-k-nan", "check-flux-k-nan",
            "barenblatt-t0-nan", "barenblatt-C-nan", "decay-t_end-inf",
            "repeated-grid", "descending-grids", "q-list-nan", "q-list-below-1",
            "alphas-nan", "sandwich-late-eps-nan", "gaussian-width-0",
            "gaussian-width-negative", "gaussian-amp-inf", "linear-c-nan",
            "check-flux-c-nan", "check-flux-zero-range", "run-snapshots-0",
            "check-flux-samples-5", "check-flux-samples-63", "eps-repeated",
            "q-list-repeated", "q-list-inf-repeated", "alphas-repeated"])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                               argv, named):
        calls = []
        monkeypatch.setattr(solver, "advance", lambda *a, **k: calls.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning on the way is a failure
            assert run_cli(tmp_path, *argv) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not any(tmp_path.glob("*.*"))

    def test_plot_failure_is_a_run_error(self, tmp_path, monkeypatch, capsys):
        # a plot that cannot be drawn is a failed run (1), not bad input (2)
        monkeypatch.setattr(svg, "write_svg",
                            lambda path, curves, **kw: svg.render_svg([], **kw))
        rc = run_cli(tmp_path, "run", "--set", "N=40", "--t-end", "0.05",
                     "--snapshots", "2")
        assert rc == 1
        assert "run error: no curves to plot" in capsys.readouterr().err


class TestMoserTable:
    def test_csv_content(self, tmp_path):
        assert run_cli(tmp_path, "moser-table", "--q", "1", "--n", "1",
                       "--alpha", "1", "--m", "10") == 0
        csvs = outputs(tmp_path, "csv")
        assert len(csvs) == 1
        lines = csvs[0].read_text().splitlines()
        assert lines[0].startswith("# pmelab csv v1 schema=moser-table")
        assert lines[1] == "m,A_m,S_m,A_limit_gap,S_limit_gap"
        last = lines[-1].split(",")
        assert int(last[0]) == 10
        assert float(last[1]) == pytest.approx(ex.moser_A(10, 1, 1, 1), rel=1e-15)
        assert float(last[2]) == pytest.approx(
            ex.moser_exponent_sum(10, 1, 1, 1), rel=1e-15)

    def test_json_limits(self, tmp_path):
        assert run_cli(tmp_path, "moser-table", "--q", "2", "--n", "2",
                       "--alpha", "0.5", "--m", "6") == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        A_inf, S_inf = ex.moser_limits(2, 2, 0.5)
        assert payload["A_limit"] == pytest.approx(A_inf, rel=1e-15)
        assert payload["S_limit"] == pytest.approx(S_inf, rel=1e-15)
        assert payload["K_bound"] == ex.moser_trace(2, 2, 0.5, 6).K_bound
        exps = ex.exponent_set(2, 2, 0.5)
        assert payload["exponents"] == {"beta": exps.beta, "theta": exps.theta,
                                        "gamma": exps.gamma}
        assert payload["time_ladder"] == ex.moser_time_grid(6, 1.0)
        assert payload["passed"] is True

    def test_large_m_reaches_the_limit(self, tmp_path):
        assert run_cli(tmp_path, "moser-table", "--m", "1100") == 0
        last = outputs(tmp_path, "csv")[0].read_text().splitlines()[-1].split(",")
        _, S_inf = ex.moser_limits(1, 1, 1)
        assert int(last[0]) == 1100
        assert float(last[2]) == pytest.approx(S_inf, abs=1e-15)

    def test_non_finite_constant_bound_is_failure(self, tmp_path):
        # at alpha = 1e6 the log of the one-step constant bound is about 3.5e5
        assert run_cli(tmp_path, "moser-table", "--m", "1", "--alpha", "1e6") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["K_bound"] is None
        assert payload["passed"] is False


class TestRunCommand:
    def test_outputs_created(self, tmp_path):
        rc = run_cli(tmp_path, "run", "--set", "N=100", "--set", "L=8",
                     "--set", "u0=gaussian", "--t-end", "0.2",
                     "--snapshots", "3")
        assert rc == 0
        for suffix in ("csv", "json", "svg"):
            assert len(outputs(tmp_path, suffix)) == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["passed"] is True
        header = outputs(tmp_path, "csv")[0].read_text().splitlines()[0]
        assert header.startswith("# pmelab csv v1")

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = cli.dispatch(["--outdir", str(out), "run", "--set", "N=80",
                               "--t-end", "0.1", "--set", "u0=gaussian"])
            assert rc == 0
        fa = sorted(p.name for p in a.iterdir())
        fb = sorted(p.name for p in b.iterdir())
        assert fa == fb
        for name in fa:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stamp_depends_on_settings(self, tmp_path):
        run_cli(tmp_path, "run", "--set", "N=80", "--t-end", "0.1")
        run_cli(tmp_path, "run", "--set", "N=90", "--t-end", "0.1")
        assert len(outputs(tmp_path, "json")) == 2

    def test_config_file_with_override(self, tmp_path):
        # the file's settings apply, and --set replaces a file value
        cfg = tmp_path / "p.cfg"
        cfg.write_text("N = 50  # cells\nL = 8\n\nflux = burgers\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(a, "run", "--config", str(cfg), "--set", "N=40",
                       "--t-end", "0.1", "--snapshots", "2") == 0
        assert run_cli(b, "run", "--set", "N=40", "--set", "L=8", "--set", "flux=burgers",
                       "--t-end", "0.1", "--snapshots", "2") == 0
        rows = outputs(a, "csv")[0].read_text().splitlines()[2:]
        assert len(rows) == 2 * 40
        assert rows == outputs(b, "csv")[0].read_text().splitlines()[2:]


def reference_snapshot_csv(result):
    """The run CSV one cell at a time: a (t, x0[, x1], u) tuple per cell, each
    value written by cli._cell."""
    n = result.snapshots[0].grid.n
    lines = ["# pmelab csv v1 schema=run-snapshots",
             ",".join(["t"] + [f"x{a}" for a in range(n)] + ["u"])]
    for snap in result.snapshots:
        flat_x = snap.grid.cell_centers().reshape(n, -1)
        flat_u = snap.values.ravel()
        for i in range(flat_u.size):
            row = (snap.time, *[flat_x[a, i] for a in range(n)], flat_u[i])
            lines.append(",".join(cli._cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


class TestSnapshotCsv:
    @pytest.mark.parametrize("n", [1, 2])
    def test_solver_run_matches_per_cell_reference(self, tmp_path, n):
        problem = problem_from_mapping({"n": str(n), "N": "12", "L": "3.3",
                                        "flux": "burgers", "u0": "signed_gaussian"})
        result = solver.run(problem, solver.SchemeConfig(
            t_end=0.3, snapshot_times=(0.0, 0.1, 0.3)))
        path = tmp_path / "run.csv"
        cli._write_snapshot_csv(path, result)
        assert path.read_bytes() == reference_snapshot_csv(result)

    @pytest.mark.parametrize("n", [1, 2])
    def test_edge_values_match_per_cell_reference(self, tmp_path, n):
        special = [-0.0, 5e-324, 1e-300, 1e300, 3.0, -7.0, -2.5, 0.1, -1e-300,
                   -1e300, 1.0 / 3.0, 2.0 ** 53]
        grid = Grid(n=n, L=1.0 / 3.0, N=4)
        cells = 4 ** n
        snaps = [State(values=np.resize(np.roll(special, k), cells).reshape(grid.shape),
                       time=t, grid=grid)
                 for k, t in enumerate([0.0, 1e-300, 2.0, 0.1 + 0.2])]
        result = solver.RunResult(snapshots=snaps, step_count=0, min_dt=0.0, max_dt=0.0,
                                  boundary_mass_max=0.0, mass_series=[],
                                  boundary_flagged=False)
        path = tmp_path / "run.csv"
        cli._write_snapshot_csv(path, result)
        text = path.read_bytes()
        assert text == reference_snapshot_csv(result)
        for cell in (b",-0\n", b",4.9406564584124654e-324\n",
                     b",1.0000000000000001e+300\n", b",9007199254740992\n"):
            assert cell in text


class TestFigure1Command:
    def test_runs_and_plots(self, tmp_path):
        rc = run_cli(tmp_path, "figure1", "--t-end", "1.0", "--N", "200")
        assert rc == 0
        doc = outputs(tmp_path, "svg")[0].read_text()
        assert doc.count("<polyline") >= 2  # initial and final profiles
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["l1_nonincreasing_within_half_percent"] is True
        assert payload["solution_moved"] is True
        assert payload["passed"] is True


class TestSandwichCommand:
    def test_report(self, tmp_path):
        rc = run_cli(tmp_path, "sandwich", "--eps-list", "0.2,0.1",
                     "--t-end", "0.2")
        assert rc == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["passed"] is True
        for entry in payload["reports"]:
            assert entry["lower_violation"] >= -1e-12
            assert entry["upper_violation"] >= -1e-12

    def test_set_overrides_the_command_problem(self, tmp_path):
        # --set N=400 restates the default grid, so nothing else may change
        argv = ["sandwich", "--eps-list", "0.1,0.01", "--t-end", "0.2"]
        plain, overridden = tmp_path / "plain", tmp_path / "set"
        assert run_cli(plain, *argv) == 0
        assert run_cli(overridden, *argv, "--set", "N=400") == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in overridden.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (overridden / name).read_bytes()


class TestBarenblattValidate:
    def test_refinement_order(self, tmp_path):
        rc = run_cli(tmp_path, "barenblatt-validate", "--alpha", "1",
                     "--grids", "100,200")
        assert rc == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["passed"] is True
        assert payload["orders"][-1] >= 0.9
        assert payload["errors"][0] > payload["errors"][1]


class TestDecayStudy:
    def test_sweep(self, tmp_path):
        rc = run_cli(tmp_path, "decay-study", "--t-end", "1.0",
                     "--q-list", "1,2,inf", "--alphas", "1",
                     "--set", "N=100", "--set", "u0=gaussian",
                     "--snapshots", "12")
        assert rc == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert 0 <= payload["smoothing_last_decade_variation"]["alpha=1"] < 0.5
        assert payload["passed"] is True

    def test_failed_smoothing_audit_is_failure(self, tmp_path):
        # a wide datum over a short time: ||u||_inf t^gamma0 is still rising
        rc = run_cli(tmp_path, "decay-study", "--t-end", "1", "--set", "N=50",
                     "--set", "L=20", "--set", "u0=gaussian width=5")
        assert rc == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["smoothing_last_decade_variation"]["alpha=1"] > 0.5
        assert payload["passed"] is False

    def test_too_few_snapshots_in_fit_window(self, tmp_path, monkeypatch, capsys):
        # checked before any step: 2 snapshots put 1 time in the window (0.1, 1)
        calls = []
        monkeypatch.setattr(solver, "run", lambda *a: calls.append(a))
        rc = run_cli(tmp_path, "decay-study", "--t-end", "1", "--set", "N=50",
                     "--snapshots", "2")
        assert rc == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "--snapshots 2" in err and ">= 5" in err
        assert not any(tmp_path.iterdir())

    def test_fewest_snapshots_that_fit(self, tmp_path):
        # geomspace(t_end/50, t_end, s) puts 4 times in [t_end/10, t_end] at s=7, 5 at s=8
        args = ["decay-study", "--t-end", "1", "--set", "N=50", "--alphas", "1"]
        assert run_cli(tmp_path / "a", *args, "--snapshots", "7") == 2
        assert run_cli(tmp_path / "b", *args, "--snapshots", "8") == 0

    def test_default_snapshots(self, tmp_path):
        rc = run_cli(tmp_path, "decay-study", "--t-end", "1", "--set", "N=50")
        assert rc == 0
