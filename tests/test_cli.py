import argparse
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmelab import cli, harness, solver, svg
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

    def test_bad_curves_are_named(self):
        with pytest.raises(RunError, match="curve 'c' has empty or mismatched data"):
            svg.render_svg([svg.Curve(x=[1.0, 2.0], y=[1.0], label="c")])
        with pytest.raises(RunError, match="unknown curve kind 'bars'"):
            svg.render_svg([svg.Curve(x=[1.0], y=[1.0], kind="bars")])

    @pytest.mark.parametrize("setting, x_ticks, y_ticks", [
        ("N=1", "-0.5 -0.25 0 0.25 0.5", None),  # one cell: flat x, and flat y
        ("u0=zero", None, "-0.55 -0.275 0 0.275 0.55"),  # u = 0: flat y only
    ])
    def test_flat_ranges_are_widened(self, tmp_path, setting, x_ticks, y_ticks):
        # a flat range becomes its value +-0.5, and y is padded by 5% more: the
        # lone cell at x = 0 plots at mid-width, a flat u at mid-height
        assert run_cli(tmp_path, "run", "--set", setting, "--t-end", "0.01") == 0
        doc = outputs(tmp_path, "svg")[0].read_text()
        labels = re.findall(r'font-size="11">([^<]*)<', doc)
        ticks = " ".join(labels[0::2]) if x_ticks else " ".join(labels[1::2])
        assert ticks == (x_ticks or y_ticks)
        points = [p.split(",") for line in re.findall(r'points="([^"]*)"', doc)
                  for p in line.split()]
        assert len(points) == (2 if x_ticks else 800)
        assert all(y == "235.00" for _, y in points)
        if x_ticks:
            assert all(x == "385.00" for x, _ in points)

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
        rc = run_cli(tmp_path, "check-flux", "--flux", "figure1 k=1.5")
        assert rc == 1

    def test_check_flux_pass(self, tmp_path):
        rc = run_cli(tmp_path, "check-flux", "--flux", "burgers")
        assert rc == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert sorted(payload["consistency"]) == ["max_div_error", "max_split_error", "ok"]
        assert payload["consistency"]["ok"] is True
        # max|a| max|g'| = 1 * max|u| on the default range |u| <= 1
        assert payload["lipschitz"]["C_f"] == 1.0
        assert payload["passed"] is True

    def test_check_flux_inconsistent_derivative_is_failure(self, tmp_path, monkeypatch):
        def doubled_derivative(n):
            flux = pr.burgers_flux_model(n)
            return dataclasses.replace(flux, df_du=lambda x, u: 2.0 * flux.df_du(x, u))

        monkeypatch.setitem(pr.FLUX_CATALOG, "burgers", (doubled_derivative, {}))
        assert run_cli(tmp_path, "check-flux", "--flux", "burgers") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["satisfied"] is True
        # |a| |g'| = |u| against |df_du| = 2 |u|
        assert payload["consistency"]["max_split_error"] > 0.1
        assert payload["consistency"]["ok"] is False
        assert payload["passed"] is False

    @pytest.mark.parametrize("broken", ["doubled a", "swapped halves"])
    def test_check_flux_split_that_misstates_the_flux_is_failure(self, tmp_path, monkeypatch,
                                                                  broken):
        # f, df_du and div_a are right; the split the solver steps is not
        def broken_split(n):
            flux = pr.burgers_flux_model(n)

            def swapped(u, out):
                up, down, slope = flux.g(u, out)
                return down, up, slope

            return (dataclasses.replace(flux, a=lambda x: 2.0 * flux.a(x))
                    if broken == "doubled a" else dataclasses.replace(flux, g=swapped))

        monkeypatch.setitem(pr.FLUX_CATALOG, "burgers", (broken_split, {}))
        assert run_cli(tmp_path, "check-flux", "--flux", "burgers") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["satisfied"] is True
        assert payload["consistency"]["max_div_error"] < 1e-5
        assert payload["consistency"]["max_split_error"] > 0.1
        assert payload["consistency"]["ok"] is False
        assert payload["passed"] is False

    def test_undeclared_flux_parameter(self, tmp_path):
        assert run_cli(tmp_path, "run", "--set", "flux=burgers k=2",
                       "--t-end", "0.1") == 2
        assert run_cli(tmp_path, "check-flux", "--flux", "burgers k=1.5") == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["run", "--t-end", "nan"], "t_end"),
        (["run", "--t-end", "inf"], "t_end"),
        (["run", "--set", "alpha=nan", "--t-end", "0.1"], "diffusion exponent"),
        # below the least alpha, where G's ceiling compare cannot resolve
        (["run", "--set", "u0=gaussian amp=1.7e308", "--set", "alpha=1e-17", "--t-end", "0.001"],
         "diffusion exponent must be finite and >= 1e-15, got 1e-17"),
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
        (["check-flux", "--flux", "figure1 k=nan"], "flux power k"),
        (["barenblatt-validate", "--t0", "nan"], "--t0"),
        (["barenblatt-validate", "--C", "nan"], "mass constant C"),
        (["decay-study", "--t-end", "inf"], "t_end"),
        (["barenblatt-validate", "--grids", "100,100"], "--grids"),
        (["barenblatt-validate", "--grids", "200,100"], "--grids"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "nan"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "1,0.5"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,nan"], "--alphas"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,1e-16"],
         "--alphas entries must be diffusion exponents, finite and >= 1e-15, got 1e-16"),
        (["sandwich", "--eps-list", "0.1,nan", "--t-end", "0.05"], "--eps-list"),
        (["run", "--set", "u0=gaussian width=0", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian width=-1", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian amp=inf", "--t-end", "0.1"],
         "'gaussian' parameter amp"),
        (["run", "--set", "u0=gaussian width=1e-300", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian width=1e-160", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "u0=gaussian width=1e200", "--t-end", "0.1"],
         "'gaussian' parameter width"),
        (["run", "--set", "L=1e-170", "--t-end", "0.1"], "got L=1e-170, N="),
        (["run", "--set", "L=1e160", "--t-end", "0.1"], "got L=1e+160, N="),
        (["run", "--set", "flux=linear c=nan", "--t-end", "0.1"], "'linear' parameter c"),
        (["check-flux", "--flux", "linear c=nan"], "'linear' parameter c"),
        (["check-flux", "--flux", "burgers", "--umin", "0", "--umax", "0"], "u bound M > 0"),
        (["run", "--snapshots", "0", "--t-end", "0.1"], "--snapshots"),
        (["check-flux", "--flux", "burgers", "--samples", "5"], "--samples"),
        (["check-flux", "--flux", "burgers", "--samples", "63"], "--samples"),
        (["sandwich", "--eps-list", "0.1,0.1", "--t-end", "0.05"], "--eps-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "2,2"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "inf,1,oo"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,1.0"], "--alphas"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,1.0000001"],
         "--alphas"),
        (["barenblatt-validate", "--grids", "100,abc"], "--grids"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--q-list", "1,x"], "--q-list"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--alphas", "1,x"], "--alphas"),
        (["sandwich", "--eps-list", "0.1,zz", "--t-end", "0.05"], "--eps-list"),
        (["run", "--set", "N=abc", "--t-end", "0.1"], "setting N"),
        (["barenblatt-validate", "--L", "3"], "--t1"),
        (["decay-study", "--set", "N=50", "--t-end", "1", "--snapshots", "-3"], "--snapshots"),
        # the exact datum at t0 is 0 at every cell centre, or one cell of about 1e100
        (["barenblatt-validate", "--grids", "10,20", "--t0", "1e-6"],
         "--t0 1e-06 gives grid N=10"),
        (["barenblatt-validate", "--grids", "11,21", "--t0", "1e-300"],
         "--t0 1e-300 gives grid N=11"),
        # t0/(alpha+1) rounds to 0, where the exact solution is not defined
        (["barenblatt-validate", "--grids", "10,20", "--t0", "5e-324"],
         "t/(alpha+1) > 0, got t=5e-324"),
        # a u range whose width 2M overflows the float range
        (["check-flux", "--flux", "linear c=1", "--umax", "1e308"],
         "--umin -1.0 and --umax 1e+308"),
        (["check-flux", "--flux", "linear c=1", "--umin=-1e308", "--umax", "1e308"],
         "--umin -1e+308 and --umax 1e+308"),
        # exponents whose closed forms' denominators overflow
        (["moser-table", "--q", "1e308"], "q=1e+308, n=1 and alpha=1.0"),
        (["moser-table", "--n", "2", "--alpha", "1e308"], "q=1.0, n=2 and alpha=1e+308"),
        # p0 whose smoothing exponents' denominator 2 p0 + n alpha overflows
        (["sandwich", "--set", "p0=1e308", "--set", "N=50", "--eps-list", "0.1,0.01",
          "--t-end", "0.05"], "p0=1e+308, n=1 and alpha=1.0"),
        (["decay-study", "--set", "p0=1e308", "--set", "N=50", "--t-end", "1"],
         "p0=1e+308, n=1 and alpha=1.0"),
        # a datum of zero L^p0 norm, whose decay no power law fits
        (["decay-study", "--set", "u0=zero", "--set", "N=50", "--t-end", "1"],
         "u0 has zero L^p0 norm (p0=1.0)"),
        (["decay-study", "--set", "u0=gaussian amp=0", "--set", "N=50", "--t-end", "1"],
         "u0 has zero L^p0 norm (p0=1.0)"),
        # --set text and catalog entries that do not parse, and a flux that has no 2-D form
        (["run", "--set", "foo", "--t-end", "0.1"],
         "override 'foo' is not of the form key=value"),
        (["run", "--set", "flux=", "--t-end", "0.1"], "empty catalog entry"),
        (["run", "--set", "flux=linear c", "--t-end", "0.1"],
         "malformed parameter 'c' (expected key=value)"),
        (["run", "--set", "flux=linear c=x", "--t-end", "0.1"], "non-numeric parameter 'c=x'"),
        (["run", "--set", "bogus=1", "--t-end", "0.1"], "unknown key 'bogus'"),
        (["run", "--set", "n=2", "--set", "flux=figure1", "--t-end", "0.1"],
         "figure1 flux is one-dimensional"),
    ], ids=["t_end-nan", "t_end-inf", "alpha-nan", "alpha-below-least", "L-nan", "L-inf", "p0-nan",
            "sandwich-p0-inf", "sandwich-eps-nan", "moser-m-0", "one-grid",
            "moser-alpha-nan", "moser-q-nan", "figure1-k-nan", "check-flux-k-nan",
            "barenblatt-t0-nan", "barenblatt-C-nan", "decay-t_end-inf",
            "repeated-grid", "descending-grids", "q-list-nan", "q-list-below-1",
            "alphas-nan", "alphas-below-least", "sandwich-late-eps-nan", "gaussian-width-0",
            "gaussian-width-negative", "gaussian-amp-inf",
            "gaussian-width-square-0", "gaussian-width-reciprocal-inf",
            "gaussian-width-square-inf", "L-dx-square-0", "L-dx-square-inf", "linear-c-nan",
            "check-flux-c-nan", "check-flux-zero-range", "run-snapshots-0",
            "check-flux-samples-5", "check-flux-samples-63", "eps-repeated",
            "q-list-repeated", "q-list-inf-repeated", "alphas-repeated",
            "alphas-equal-keys", "grids-non-numeric", "q-list-non-numeric",
            "alphas-non-numeric", "eps-non-numeric", "scalar-non-numeric", "support-past-L",
            "decay-snapshots-negative", "barenblatt-datum-vanishes",
            "barenblatt-datum-spike", "barenblatt-t0-rescales-to-0",
            "check-flux-range-overflows", "check-flux-signed-range-overflows",
            "moser-q-overflows", "moser-alpha-overflows", "sandwich-p0-overflows",
            "decay-p0-overflows", "decay-zero-datum", "decay-gaussian-amp-0",
            "set-without-equals", "flux-empty", "flux-parameter-without-value",
            "flux-parameter-non-numeric", "unknown-set-key", "figure1-in-2d"])
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

    @pytest.mark.parametrize("option", ["--config", "--outdir"])
    def test_unusable_path_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                   option):
        # a --config that is a directory, an --outdir that is a file
        calls = []
        monkeypatch.setattr(solver, "advance", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(ex, "moser_trace", lambda *a: calls.append(a))
        a_file = tmp_path / "file"
        a_file.write_text("")
        if option == "--config":
            argv = ["--outdir", str(tmp_path), "run", "--config", str(tmp_path)]
            named = f"--config {str(tmp_path)!r} is unusable: Is a directory"
        else:
            argv = ["--outdir", str(a_file), "moser-table", "--m", "3"]
            named = f"--outdir {str(a_file)!r} is unusable: File exists"
        assert cli.dispatch(argv) == 2
        assert calls == []
        assert f"configuration error: {named}\n" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--cfl", "5e-324", "--t-end", "0.01"],
         "step 1: stable dt underflowed at t=0.0 (dt=0.0)"),
        # |u|^400 u overflows on the u range
        (["check-flux", "--flux", "figure1 k=400", "--umax", "10"],
         "non-finite flux divergence at x=(-9.84375,), u=5.984126984126984"),
        # u^2 overflows, and the divergence check meets 0 * inf
        (["check-flux", "--flux", "burgers", "--umax", "1e200"],
         "non-finite flux divergence at x=(-9.84375,), u=1.5873015873015872e+198"),
        # c u overflows in f and in a(x) g(u), which only the consistency check evaluates
        (["check-flux", "--flux", "linear c=1e300", "--umax", "1e10"],
         "non-finite flux split at x=[-5.45327955], u=-6219908587.242462"),
        # G of the middle branch's max|u| is below the least normal float
        (["sandwich", "--set", "u0=gaussian amp=1e-200", "--set", "N=40", "--eps-list", "0.1",
          "--t-end", "0.05"],
         "step 1, middle branch: G(u) = |u|^1.0 u/2.0 underflows: max|u|^1.0 = "
         "9.394130628134757e-201 is below its floor 2.1095373229726e-154, t=0.0"),
    ], ids=["dt-underflows", "divergence-overflows", "burgers-overflows", "linear-overflows",
            "sandwich-G-underflows"])
    def test_run_error_exits_1_and_writes_nothing(self, tmp_path, capsys, argv, message):
        assert run_cli(tmp_path, *argv) == 1
        assert capsys.readouterr().err == f"pmelab {argv[0]}: run error: {message}\n"
        assert not any(tmp_path.iterdir())

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
        trace = ex.moser_trace(2, 2, 0.5, 6)
        assert payload["K_exponent_of_C"] == trace.K_exponent_of_C
        assert payload["K_log_without_C"] == trace.K_log_without_C
        assert "K_bound" not in payload
        exps = ex.exponent_set(2, 2, 0.5)
        assert payload["exponents"] == {"beta": exps.beta, "theta": exps.theta,
                                        "gamma": exps.gamma}
        assert payload["time_ladder"] == ex.moser_time_grid(6, 1.0)
        assert payload["brute_force_error"] <= 1e-12
        assert payload["halving_error"] <= 1e-9
        assert payload["passed"] is True

    def test_large_m_reaches_the_limit(self, tmp_path):
        assert run_cli(tmp_path, "moser-table", "--m", "1100") == 0
        last = outputs(tmp_path, "csv")[0].read_text().splitlines()[-1].split(",")
        _, S_inf = ex.moser_limits(1, 1, 1)
        assert int(last[0]) == 1100
        assert float(last[2]) == pytest.approx(S_inf, abs=1e-15)

    def test_bound_beyond_the_float_range_is_reported_by_its_parts(self, tmp_path):
        # at alpha = 1e6 the log of the one-step constant bound is about 3.5e5 at
        # C = 2: its exponent of C and its log without C are finite
        assert run_cli(tmp_path, "moser-table", "--m", "1", "--alpha", "1e6") == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["K_exponent_of_C"] == pytest.approx(500000.75, rel=1e-15)
        assert payload["K_log_without_C"] == pytest.approx(6.387895893561, rel=1e-12)
        assert payload["passed"] is True

    @pytest.mark.parametrize("q, n, alpha", [(1, 1, 1), (2, 2, 0.5), (1, 2, 3), (7, 1, 0.1)])
    @pytest.mark.parametrize("m", [3, 20, 40, 60])
    def test_closed_forms_pass_both_halves(self, tmp_path, q, n, alpha, m):
        assert run_cli(tmp_path, "moser-table", "--q", str(q), "--n", str(n),
                       "--alpha", str(alpha), "--m", str(m)) == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["brute_force_error"] <= 2.3e-16
        assert payload["halving_error"] <= 2.3e-16

    @pytest.mark.parametrize("mutant", ["off-by-one", "wrong-limit", "nan-closed-form",
                                        "nan-limit"])
    def test_each_half_fails_on_its_own_mutant(self, tmp_path, monkeypatch, mutant):
        A, S, limits = ex.moser_A, ex.moser_exponent_sum, ex.moser_limits
        if mutant == "off-by-one":  # 2^-m -> 2^-(m+1) throughout both closed forms
            monkeypatch.setattr(ex, "moser_A", lambda m, *rest: A(m + 1, *rest))
            monkeypatch.setattr(ex, "moser_exponent_sum", lambda m, *rest: S(m + 1, *rest))
        elif mutant == "wrong-limit":  # A_inf = 2q/(2q + 2n alpha) in place of 2q/(2q + n alpha)
            monkeypatch.setattr(ex, "moser_limits", lambda q, n, alpha: (
                2 * q / (2 * q + 2 * n * alpha), limits(q, n, alpha)[1]))
        elif mutant == "nan-closed-form":  # a NaN after the first row, which max() skips
            monkeypatch.setattr(ex, "moser_A",
                                lambda m, *rest: A(m, *rest) if m == 1 else math.nan)
        else:  # every A gap NaN, which no floor comparison keeps
            monkeypatch.setattr(ex, "moser_limits",
                                lambda q, n, alpha: (math.nan, limits(q, n, alpha)[1]))
        assert run_cli(tmp_path, "moser-table", "--m", "20") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["passed"] is False
        brute_force, halving = payload["brute_force_error"], payload["halving_error"]
        if mutant == "off-by-one":  # the gaps still halve
            assert brute_force > 1e-3 and halving <= 1e-15
        elif mutant == "wrong-limit":  # the closed forms still equal their twins; the
            # gaps tend to a nonzero constant c, so |gap_m - gap_{m-1}/2| tends to |c|/2
            assert brute_force <= 1e-15 and halving > 1e-3
        elif mutant == "nan-closed-form":
            assert math.isnan(brute_force)
        else:
            assert brute_force <= 1e-15 and math.isnan(halving)


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

    def test_mass_at_the_boundary_fails(self, tmp_path):
        # advection carries about half the datum out through the high
        # dirichlet_zero wall of a short box, and diffusion a trace through the
        # low one; the mass budget still closes
        assert run_cli(tmp_path, "run", "--set", "flux=linear c=1", "--set", "L=3",
                       "--set", "N=60", "--set", "boundary=dirichlet_zero",
                       "--t-end", "3") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        (low, high), = payload["wall_outflow"]
        mass0 = payload["masses"][0][1]  # of a positive datum, its L1 norm
        assert payload["passed"] is False
        assert high / mass0 == pytest.approx(0.5475, rel=1e-3)
        assert low / mass0 == pytest.approx(4.0e-9, rel=1e-2)
        assert abs(payload["budget_residual"]) <= 1e-13 * mass0

    @pytest.mark.parametrize("boundary", ["zero_flux", "dirichlet_zero"])
    def test_symmetric_leak_fails(self, tmp_path, boundary):
        # Burgers from the odd datum x exp(-x^2): the two walls let out the same
        # mass with opposite signs, so the signed mass barely moves, and the
        # wall outflow alone fails the run
        settings = {"flux": "burgers", "u0": "signed_gaussian", "L": "3", "N": "120",
                    "boundary": boundary}
        assert run_cli(tmp_path, "run", *[f"--set={k}={v}" for k, v in settings.items()],
                       "--t-end", "1") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        norm = harness.lq_norm(pr.sample_initial(problem_from_mapping(settings)), 1)
        (low, high), = payload["wall_outflow"]
        share = {"zero_flux": 9.70e-8, "dirichlet_zero": 1.88e-6}[boundary]
        assert -low / norm == pytest.approx(share, rel=1e-2)
        assert high / norm == pytest.approx(share, rel=1e-2)
        masses = [m for _, m in payload["masses"]]
        assert abs(masses[-1] - masses[0]) < 1e-15 < 1e-12 * norm < high

    def test_2d_zero_flux_run_passes(self, tmp_path):
        # no advection and edge-copy ghosts: no wall is summed, however much
        # of the signed datum lies in the wall cells
        assert run_cli(tmp_path, "run", "--set", "n=2", "--set", "flux=zero",
                       "--set", "u0=signed_gaussian", "--set", "L=2", "--set", "N=40",
                       "--t-end", "0.5") == 0
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["wall_outflow"] == [[0.0, 0.0], [0.0, 0.0]]
        assert payload["passed"] is True


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


def snapshot_result(grid, snapshots):
    """A RunResult that holds one State per (time, flat u values) pair."""
    return solver.RunResult(
        snapshots=[State(values=np.reshape(u, grid.shape), time=t, grid=grid)
                   for t, u in snapshots],
        step_count=0, min_dt=0.0, max_dt=0.0, wall_outflow=[])


def snapshot_csv(result) -> bytes:
    """The bytes that _emit writes of the run CSV's pieces."""
    return "".join(cli._snapshot_csv(result)).encode("utf-8")


def cell0_changes(firsts, rest):
    """cells -> one snapshot's u values per value of `firsts`: that value in cell
    0, and the same `rest` (resized) in every other cell."""
    return lambda cells: [np.concatenate(([v], np.resize(rest, cells - 1))) for v in firsts]


class TestSnapshotCsv:
    @pytest.mark.parametrize("n", [1, 2])
    def test_solver_run_matches_per_cell_reference(self, n):
        problem = problem_from_mapping({"n": str(n), "N": "12", "L": "3.3",
                                        "flux": "burgers", "u0": "signed_gaussian"})
        result = solver.run(problem, solver.SchemeConfig(
            t_end=0.3, snapshot_times=(0.0, 0.1, 0.3)))
        assert snapshot_csv(result) == reference_snapshot_csv(result)

    @pytest.mark.parametrize("n", [1, 2])
    def test_edge_values_match_per_cell_reference(self, n):
        special = [-0.0, 5e-324, 1e-300, 1e300, 3.0, -7.0, -2.5, 0.1, -1e-300,
                   -1e300, 1.0 / 3.0, 2.0 ** 53]
        grid = Grid(n=n, L=1.0 / 3.0, N=4)
        cells = 4 ** n
        snaps = [State(values=np.resize(np.roll(special, k), cells).reshape(grid.shape),
                       time=t, grid=grid)
                 for k, t in enumerate([0.0, 1e-300, 2.0, 0.1 + 0.2])]
        result = solver.RunResult(snapshots=snaps, step_count=0, min_dt=0.0, max_dt=0.0,
                                  wall_outflow=[])
        text = snapshot_csv(result)
        assert text == reference_snapshot_csv(result)
        for cell in (b",-0\n", b",4.9406564584124654e-324\n",
                     b",1.0000000000000001e+300\n", b",9007199254740992\n"):
            assert cell in text

    # each case: cells -> the u values of each snapshot
    CASES = {
        "signed-zeros": lambda cells: [np.resize([0.0, -0.0, 1.5, -0.0], cells)],
        "repeats-within-and-across": lambda cells: [
            np.resize([1e-86, 0.25, 1e-86, -3.0], cells),
            np.resize([0.25, 7.0, 1e-86], cells),
            np.resize([-3.0, 1e-86], cells)],
        "one-value": lambda cells: [np.full(cells, 1.0 / 3.0), np.full(cells, -0.0)],
        "all-distinct": lambda cells: [(np.arange(cells) - 2.5) ** 3 / 7.0,
                                       np.exp(-np.arange(cells) * 20.0)],
        # the cases below change cell 0 alone, so only its text is made again;
        # 0.0 and -0.0 compare equal as floats, but not as bits
        "zero-sign-flips": cell0_changes((0.0, -0.0, 0.0, -0.0), [1.5, 0.0]),
        # 2.5 leaves cell 0 and returns two snapshots later, kept by other cells
        "value-leaves-and-returns": cell0_changes((2.5, 7.0, 1e-300, 2.5), [2.5, -1.0]),
        # no cell changes, so no value is formatted
        "snapshot-repeats": cell0_changes((0.25, 0.25, 0.25), [0.25, -3.0]),
        "first-all-negative-zero": cell0_changes((-0.0, 1.0, -0.0), [-0.0]),
    }

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dedupe_cases_match_per_cell_reference(self, case, n):
        grid = Grid(n=n, L=2.0, N=5)
        snaps = self.CASES[case](5 ** n)
        if case == "all-distinct":
            assert all(np.unique(u).size == u.size for u in snaps)
        result = snapshot_result(grid, [(0.1 * k, u) for k, u in enumerate(snaps)])
        text = snapshot_csv(result)
        assert text == reference_snapshot_csv(result)
        if case == "signed-zeros":
            assert b",0\n" in text and b",-0\n" in text

    # ROW_BLOCK at each edge of a snapshot of `cells` rows: one row a piece, a
    # piece that ends inside it, and one piece a snapshot, whole or one row short
    BLOCKS = {"1": lambda cells: 1, "3": lambda cells: 3,
              "cells-1": lambda cells: max(cells - 1, 1), "cells": lambda cells: cells,
              "cells+1": lambda cells: cells + 1}

    @pytest.mark.parametrize("block", list(BLOCKS))
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_blocks_match_per_cell_reference(self, case, n, block, monkeypatch):
        grid = Grid(n=n, L=2.0, N=5)
        snaps = self.CASES[case](5 ** n)
        monkeypatch.setattr(cli, "ROW_BLOCK", self.BLOCKS[block](5 ** n))
        result = snapshot_result(grid, [(0.1 * k, u) for k, u in enumerate(snaps)])
        assert snapshot_csv(result) == reference_snapshot_csv(result)

    @staticmethod
    def draw_result(data):
        """A RunResult of 1 to 3 snapshots on a 1-D or 2-D grid of 1 to 5 cells an
        axis: finite floats mixed with a small pool, so that values repeat."""
        n = data.draw(st.sampled_from((1, 2)), label="n")
        grid = Grid(n=n, L=1.0, N=data.draw(st.integers(1, 5), label="N"))
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0]))
        cells = grid.N ** n
        snaps = data.draw(st.lists(
            st.tuples(st.floats(0.0, 1e6), st.lists(value, min_size=cells, max_size=cells)),
            min_size=1, max_size=3), label="snapshots")
        return snapshot_result(grid, snaps)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_values_match_per_cell_reference(self, data):
        result = self.draw_result(data)
        assert snapshot_csv(result) == reference_snapshot_csv(result)

    @pytest.mark.parametrize("block", list(BLOCKS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_any_values_in_row_blocks_match_per_cell_reference(self, block, data):
        result = self.draw_result(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "ROW_BLOCK", self.BLOCKS[block](result.snapshots[0].values.size))
            assert snapshot_csv(result) == reference_snapshot_csv(result)

    def test_no_piece_holds_more_than_a_row_block(self):
        # 70 x 70 = 4900 cells: each snapshot is one full piece and one of 804 rows
        problem = problem_from_mapping({"n": "2", "N": "70", "L": "3", "flux": "burgers",
                                        "u0": "signed_gaussian"})
        result = solver.run(problem, solver.SchemeConfig(
            t_end=0.01, snapshot_times=(0.0, 0.005, 0.01)))
        cells = result.snapshots[0].values.size
        assert cells > cli.ROW_BLOCK
        header, *pieces = cli._snapshot_csv(result)
        assert header.count("\n") == 2
        rows = [piece.count("\n") for piece in pieces]
        assert rows == [cli.ROW_BLOCK, cells - cli.ROW_BLOCK] * len(result.snapshots)
        assert (header + "".join(pieces)).encode() == reference_snapshot_csv(result)


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

    def test_a_solution_that_has_not_moved_fails(self, tmp_path):
        # five steps to t = 1e-3 leave the L1 series flat at every snapshot
        assert run_cli(tmp_path, "figure1", "--t-end", "1e-3", "--N", "100") == 1
        payload = json.loads(outputs(tmp_path, "json")[0].read_text())
        assert payload["solution_moved"] is False
        assert payload["passed"] is False


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


# A small invocation of each subcommand, and for each of its options but
# --config and --set a changed value, given on top of a base that admits it
STAMP_CASES = [
    (["run", "--set", "N=20", "--t-end", "0.01"],
     [["--t-end", "0.02"], ["--snapshots", "3"], ["--cfl", "0.5"]]),
    (["figure1", "--N", "20", "--t-end", "0.01"],
     [["--k", "1.2"], ["--alpha", "0.7"], ["--t-end", "0.02"], ["--L", "8"], ["--N", "30"]]),
    (["barenblatt-validate", "--grids", "20,40", "--t1", "1.1"],
     [["--alpha", "0.5"], ["--C", "2"], ["--t0", "0.5"], ["--t1", "1.2"], ["--L", "15"],
      ["--grids", "20,50"]]),
    (["decay-study", "--set", "N=20", "--t-end", "0.1", "--snapshots", "8"],
     [["--t-end", "0.2"], ["--q-list", "1,2"], ["--snapshots", "9"], ["--alphas", "0.5"]]),
    (["moser-table", "--m", "3"],
     [["--q", "2"], ["--n", "2"], ["--alpha", "0.5"], ["--m", "4"]]),
    (["check-flux", "--flux", "linear", "--N", "16"],
     [["--flux", "burgers"], ["--flux", "linear c=2"], ["--umin", "-2"], ["--umax", "2"],
      ["--samples", "65"], ["--L", "5"], ["--N", "32"]]),
    (["check-flux", "--flux", "figure1", "--N", "16"], [["--flux", "figure1 k=1.2"]]),
    (["sandwich", "--set", "N=20", "--eps-list", "0.1,0.01", "--t-end", "0.01"],
     [["--eps-list", "0.2,0.01"], ["--t-end", "0.02"]]),
]


class TestStamp:
    @staticmethod
    def stem(tmp_path, capsys, argv):
        """The output stem of one invocation, checked to write one file set and
        to print one line ending in the JSON verdict."""
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert cli.dispatch(["--outdir", str(out)] + argv) in (0, 1)
        (stem,) = {p.stem for p in out.iterdir()}
        passed = json.loads((out / f"{stem}.json").read_text())["passed"]
        assert capsys.readouterr().out.endswith(f" passed={passed}\n")
        return stem

    def test_cases_cover_every_option(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            options = {a.option_strings[0] for a in parser._actions if a.option_strings}
            tested = {change[0] for base, changes in STAMP_CASES if base[0] == command
                      for change in changes}
            assert tested == options - {"-h", "--config", "--set"}, command

    @pytest.mark.parametrize("base, changes", STAMP_CASES,
                             ids=[" ".join(base[:3]) for base, _ in STAMP_CASES])
    def test_every_changed_option_changes_the_stem(self, tmp_path, capsys, base, changes):
        stems = [self.stem(tmp_path, capsys, base)]
        stems += [self.stem(tmp_path, capsys, base + change) for change in changes]
        assert len(set(stems)) == len(stems)

    @pytest.mark.parametrize("argv", [
        ["run", "--t-end", "0.01"],
        ["decay-study", "--t-end", "0.1", "--snapshots", "8"],
        ["sandwich", "--eps-list", "0.1,0.01", "--t-end", "0.01"]])
    def test_config_file_and_set_give_one_stem(self, tmp_path, capsys, argv):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("N = 20\nL = 8\n")
        runs = tmp_path / "runs"
        runs.mkdir()
        assert (self.stem(runs, capsys, argv + ["--config", str(cfg)])
                == self.stem(runs, capsys, argv + ["--set", "N=20", "--set", "L=8"]))
