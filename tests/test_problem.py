import dataclasses
import math
import re

import numpy as np
import pytest

from pmelab import problem as pr
from pmelab import solver
from pmelab.errors import ConfigError, RunError


def gauss(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


class TestGrid:
    def test_basic_geometry(self):
        g = pr.Grid(n=1, L=20.0, N=8)
        assert g.dx == pytest.approx(5.0)
        assert g.axis_centers()[0] == pytest.approx(-17.5)
        assert g.axis_centers()[-1] == pytest.approx(17.5)
        assert g.cell_volume * g.N == pytest.approx(40.0, rel=1e-14)

    def test_total_measure_2d(self):
        g = pr.Grid(n=2, L=3.0, N=7)
        assert g.cell_volume * g.N ** 2 == pytest.approx(36.0, rel=1e-14)
        assert g.cell_centers().shape == (2, 7, 7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            pr.Grid(n=3, L=1.0, N=4)
        with pytest.raises(ConfigError):
            pr.Grid(n=1, L=0.0, N=4)
        with pytest.raises(ConfigError):
            pr.Grid(n=1, L=1.0, N=0)

    def test_cell_width_must_have_a_positive_finite_square(self):
        # the solver divides by dx ** 2: a square that underflows to 0 or
        # overflows is a ConfigError that names L and N
        for L, N in [(1e-170, 4), (1e-160, 10 ** 6), (1e160, 4)]:
            with pytest.raises(ConfigError, match=re.escape(f"got L={L}, N={N}")):
                pr.Grid(n=1, L=L, N=N)
        for L in (1e-160, 1e150):  # a subnormal square, a large one
            assert 0 < pr.Grid(n=2, L=L, N=4).cell_volume < math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_settings_are_config_errors(bad):
    # NaN passes a test like `x <= 0`, so each check asks for a finite value
    grid = pr.Grid(n=1, L=1.0, N=4)

    def problem(alpha=1.0, p0=1.0):
        return pr.Problem(grid=grid, alpha=alpha, p0=p0, flux=pr.zero_flux_model(1), u0=gauss)

    with pytest.raises(ConfigError, match="half-width"):
        pr.Grid(n=1, L=bad, N=4)
    with pytest.raises(ConfigError, match="diffusion exponent"):
        problem(alpha=bad)
    with pytest.raises(ConfigError, match="initial integrability"):
        problem(p0=bad)
    with pytest.raises(ConfigError, match="time must be finite"):
        pr.State(values=np.zeros(4), time=bad, grid=grid)
    with pytest.raises(ConfigError, match="t_end"):
        solver.SchemeConfig(t_end=bad)
    with pytest.raises(ConfigError, match="snapshot times"):
        solver.SchemeConfig(t_end=1.0, snapshot_times=(0.5, bad))


def test_problem_takes_alpha_down_to_its_least_value():
    # below ALPHA_MIN the step's compare of max|u|^alpha with G's ceiling cannot
    # tell data that overflow G; ALPHA_MIN itself is accepted
    def problem(alpha):
        return pr.Problem(grid=pr.Grid(n=1, L=1.0, N=4), alpha=alpha, p0=1.0,
                          flux=pr.zero_flux_model(1), u0=gauss)

    assert problem(pr.ALPHA_MIN).alpha == 1e-15
    for alpha in (math.nextafter(pr.ALPHA_MIN, 0.0), 1e-17, 5e-324, 0.0, -1.0):
        with pytest.raises(ConfigError, match=f"finite and >= 1e-15, got {alpha}$"):
            problem(alpha)


def test_problem_rejects_an_overflowing_smoothing_denominator():
    # 2 p0 + n alpha divides both smoothing exponents; inf would make 2 p0/inf NaN
    def problem(n, alpha, p0):
        return pr.Problem(grid=pr.Grid(n=n, L=1.0, N=4), alpha=alpha, p0=p0,
                          flux=pr.zero_flux_model(n), u0=gauss)

    for n, alpha, p0 in ((1, 1.0, 1e308), (2, 1e308, 1.0)):
        with pytest.raises(ConfigError, match=r"overflow .* 2 p0 \+ n alpha"):
            problem(n, alpha, p0)
    problem(2, 1e307, 1e307)


class TestStateShape:
    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("B", (1, 3))
    def test_stack_of_branches_is_accepted(self, n, B):
        grid = pr.Grid(n=n, L=1.0, N=4)
        s = pr.State(values=np.zeros((B,) + grid.shape), time=0.0, grid=grid)
        assert s.values.shape == (B,) + grid.shape and not s.values.flags.writeable

    @pytest.mark.parametrize("n, shape", [
        (1, (5,)), (1, (3, 5)), (1, (2, 3, 4)), (1, (0, 4)), (1, ()),
        (2, (4,)), (2, (4, 5)), (2, (3, 4, 5)), (2, (2, 3, 4, 4)), (2, (0, 4, 4)),
    ], ids=["1d-cells", "1d-stack-cells", "1d-extra-axis", "1d-empty-stack", "1d-scalar",
            "2d-one-axis", "2d-cells", "2d-stack-cells", "2d-extra-axis", "2d-empty-stack"])
    def test_other_shapes_are_config_errors(self, n, shape):
        with pytest.raises(ConfigError, match="state shape"):
            pr.State(values=np.zeros(shape), time=0.0, grid=pr.Grid(n=n, L=1.0, N=4))

    def test_non_finite_check_covers_the_stack(self):
        grid = pr.Grid(n=2, L=1.0, N=4)
        values = np.zeros((3,) + grid.shape)
        values[2, 1, 3] = np.nan
        with pytest.raises(RunError, match=r"cell \(1, 3\)") as exc:
            pr.State(values=values, time=0.0, grid=grid)
        assert exc.value.branch == 2
        values[2, 1, 3] = 0.0
        values = values[0]
        values[0, 1] = np.inf
        with pytest.raises(RunError, match=r"cell \(0, 1\)") as exc:
            pr.State(values=values, time=0.0, grid=grid)
        assert exc.value.branch is None


class TestFluxConsistency:
    # every shipped flux model must pass the finite-difference cross-check
    @pytest.mark.parametrize("flux", [
        pr.zero_flux_model(1),
        pr.linear_flux_model(3.0, 1),
        pr.burgers_flux_model(1),
        pr.figure1_flux_model(1.5),
    ], ids=lambda f: f.name)
    def test_catalog_1d(self, flux):
        grid = pr.Grid(n=1, L=10.0, N=32)
        rep = pr.check_flux_consistency(flux, grid)
        assert rep.ok, rep

    @pytest.mark.parametrize("flux", [
        pr.zero_flux_model(2),
        pr.linear_flux_model(2.0, 2),
        pr.burgers_flux_model(2),
    ], ids=lambda f: f.name)
    def test_catalog_2d(self, flux):
        grid = pr.Grid(n=2, L=5.0, N=16)
        rep = pr.check_flux_consistency(flux, grid)
        assert rep.ok, rep

    @pytest.mark.parametrize("flux, grid", [
        (pr.linear_flux_model(3.0, 1), pr.Grid(n=1, L=10.0, N=32)),
        (pr.figure1_flux_model(1.5), pr.Grid(n=1, L=10.0, N=32)),
        (pr.burgers_flux_model(2), pr.Grid(n=2, L=5.0, N=16)),
    ], ids=lambda v: getattr(v, "name", None) or f"n{v.n}")
    def test_matches_per_sample_loop(self, flux, grid):
        # the same arithmetic sample by sample, so the errors agree exactly
        rep = pr.check_flux_consistency(flux, grid)
        assert (rep.max_div_error, rep.max_split_error) == per_sample_errors(flux, grid)

    @pytest.mark.parametrize("n", [1, 2])
    def test_catalog_splits_match(self, n):
        names = [name for name in pr.FLUX_CATALOG if n == 1 or name != "figure1"]
        for name in names:
            rep = pr.check_flux_consistency(pr.flux_from_config(name, None, n),
                                            pr.Grid(n=n, L=5.0, N=16), (-2.0, 2.0))
            assert rep.ok and rep.max_split_error <= 1e-8, (name, rep)  # FD rounding

    @pytest.mark.parametrize("broken", ["doubled a", "swapped halves", "halved slope"])
    def test_split_that_misstates_the_flux_fails(self, broken):
        flux = pr.burgers_flux_model(1)
        bad = broken_splits(flux)[broken]
        grid = pr.Grid(n=1, L=5.0, N=16)
        rep, good = pr.check_flux_consistency(bad, grid), pr.check_flux_consistency(flux, grid)
        assert not rep.ok and rep.max_split_error > 0.1
        assert rep.max_div_error == good.max_div_error

    def test_misstated_divergence_fails(self):
        # figure1's split with div a = +sech^2 x, the sign of the sign condition flipped
        flux = pr.figure1_flux_model(1.5)
        bad = dataclasses.replace(flux, div_a=lambda x: 1.0 / np.cosh(x[0]) ** 2)
        rep = pr.check_flux_consistency(bad, pr.Grid(n=1, L=10.0, N=32))
        assert not rep.ok and rep.max_div_error > 0.1
        assert pr.check_divergence_condition(bad, pr.Grid(n=1, L=10.0, N=64),
                                             (-1.0, 1.0)).satisfied

    def test_nonfinite_names_first_sample(self, nan_below_flux):
        grid = pr.Grid(n=1, L=10.0, N=32)
        with pytest.raises(RunError) as loop:
            per_sample_errors(nan_below_flux, grid)
        # g is NaN where f is: the split's row names the sample
        with pytest.raises(RunError, match="non-finite flux split") as vec:
            pr.check_flux_consistency(nan_below_flux, grid)
        assert str(vec.value) == str(loop.value)


class TestCatalogSplits:
    @pytest.mark.parametrize("name, n", [("zero", 1), ("zero", 2), ("linear", 1),
                                         ("linear", 2), ("burgers", 1), ("burgers", 2),
                                         ("figure1", 1)])
    def test_split_states_the_flux(self, name, n):
        # a (g_up + g_down) = f and |a| |g'| = |df_du| on a lattice of x and u,
        # with g_up nondecreasing and g_down nonincreasing in u
        params = {"c": -1.5} if name == "linear" else {}
        flux = pr.flux_from_config(name, params, n)
        grid = pr.Grid(n=n, L=3.0, N=8)
        x = pr._x_lattice(grid, per_axis=8)[:, :, None]  # (n, P, 1)
        u = np.linspace(-2.0, 2.0, 41)[None, :] + 0.0 * x[0]  # (P, 41)
        a = np.asarray(flux.a(x), dtype=float)
        up, down, slope = flux.g(u.copy(), tuple(np.empty_like(u) for _ in range(3)))
        g = up if down is None else up + down
        assert np.allclose(a * g, flux.f(x, u), rtol=1e-14, atol=1e-15)
        assert np.allclose(np.abs(a) * slope, np.abs(flux.df_du(x, u)),
                           rtol=1e-14, atol=1e-15)
        assert np.all(np.diff(up, axis=-1) >= 0)
        assert down is None or np.all(np.diff(down, axis=-1) <= 0)


def stacked_burgers(n):
    """Burgers flux with every component built as its own array, and the
    catalog's split."""
    def f(x, u):
        u = np.asarray(u, dtype=float)
        return np.stack([0.5 * u * u] * n)

    def df_du(x, u):
        u = np.asarray(u, dtype=float)
        return np.stack([u] * n)

    return dataclasses.replace(pr.burgers_flux_model(n), f=f, df_du=df_du)


def broken_splits(flux):
    """`flux` with splits that the solver would step wrongly: a doubled, g_up
    and g_down swapped (neither is monotone), and |g'| halved."""
    def swapped(u, out):
        up, down, slope = flux.g(u, out)
        return down, up, slope

    def flat(u, out):
        up, down, slope = flux.g(u, out)
        return up, down, 0.5 * slope

    return {"doubled a": dataclasses.replace(flux, a=lambda x: 2.0 * flux.a(x)),
            "swapped halves": dataclasses.replace(flux, g=swapped),
            "halved slope": dataclasses.replace(flux, g=flat)}


class TestBurgersFluxViews:
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_stacked_components(self, n):
        u = np.linspace(-2.0, 2.0, 12).reshape((12,) if n == 1 else (3, 4))
        x = np.zeros((n,) + u.shape)
        flux, ref = pr.burgers_flux_model(n), stacked_burgers(n)
        for got, want in ((flux.f(x, u), ref.f(x, u)), (flux.df_du(x, u), ref.df_du(x, u))):
            assert got.shape == want.shape == (n,) + u.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_consistency_errors_unchanged(self, n):
        grid = pr.Grid(n=n, L=5.0, N=16)
        assert (pr.check_flux_consistency(pr.burgers_flux_model(n), grid)
                == pr.check_flux_consistency(stacked_burgers(n), grid))

    @pytest.mark.parametrize("n, N", [(1, 120), (2, 24)])
    def test_steps_equal_writable_copies(self, n, N):
        # the split's g hands back u, its scratch or new arrays: the step gives
        # the same bits from fresh writable copies of them
        flux = pr.burgers_flux_model(n)

        def g(u, out):
            return tuple(None if v is None else np.array(v) for v in flux.g(u, out))

        copied = dataclasses.replace(flux, f=lambda x, u: np.array(flux.f(x, u)),
                                     df_du=lambda x, u: np.array(flux.df_du(x, u)), g=g)
        base = pr.problem_from_mapping({"n": str(n), "N": str(N), "L": "4",
                                        "flux": "burgers", "u0": "signed_gaussian"})
        config = solver.SchemeConfig(t_end=1.0)
        states = []
        for fl in (flux, copied):
            p = pr.Problem(grid=base.grid, alpha=base.alpha, p0=base.p0, flux=fl,
                           u0=base.u0)
            s = pr.sample_initial(p)
            plan = solver.plan(s, p)
            for _ in range(50):
                s = solver.step(s, p, solver.stable_dt(s, p, config, plan), plan)
            states.append(s)
        assert states[0].time == states[1].time
        assert np.array_equal(states[0].values, states[1].values)


def per_sample_errors(flux, grid, samples=1000, seed=12345):
    """Reference for check_flux_consistency (1000 samples from seed 12345): one
    sample at a time."""
    rng = np.random.default_rng(seed)
    n = grid.n
    xs = rng.uniform(-grid.L, grid.L, size=(n, samples))
    us = rng.uniform(-1.0, 1.0, size=samples)
    worst_div = worst_split = 0.0
    for i in range(samples):
        x, u = xs[:, i:i + 1], us[i:i + 1]
        h = 1e-6 * max(1.0, abs(float(u[0])))
        stated_du = np.asarray(flux.df_du(x, u))
        if not np.all(np.isfinite(stated_du)):
            raise RunError(f"non-finite flux derivative at x={x.ravel()}, u={u[0]}")
        hx = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        fd_div = 0.0
        for j in range(n):
            e = np.zeros_like(x)
            e[j, 0] = hx
            fd_div += (float(np.asarray(flux.a(x + e))[j, 0])
                       - float(np.asarray(flux.a(x - e))[j, 0])) / (2 * hx)
        stated_div = float(np.asarray(flux.div_a(x)).ravel()[0])
        if not (np.isfinite(fd_div) and np.isfinite(stated_div)):
            raise RunError(f"non-finite flux divergence at x={x.ravel()}, u={u[0]}")
        split = float(pr._split_errors(flux, x, u, np.array([h]), stated_du)[0])
        if not np.isfinite(split):
            raise RunError(f"non-finite flux split at x={x.ravel()}, u={u[0]}")
        worst_div = max(worst_div, abs(fd_div - stated_div) / max(1.0, abs(stated_div)))
        worst_split = max(worst_split, split)
    return worst_div, worst_split


class TestDivergenceCondition:
    def test_burgers_satisfies(self):
        grid = pr.Grid(n=1, L=10.0, N=64)
        rep = pr.check_divergence_condition(pr.burgers_flux_model(1), grid, (-1.0, 1.0))
        assert rep.satisfied
        assert rep.worst_violation == pytest.approx(0.0, abs=1e-12)

    def test_zero_flux_satisfies(self):
        grid = pr.Grid(n=1, L=10.0, N=64)
        rep = pr.check_divergence_condition(pr.zero_flux_model(1), grid, (-2.0, 2.0))
        assert rep.satisfied
        assert rep.worst_violation == 0.0

    def test_figure1_violates(self):
        # d/dx[-tanh(x)] = -sech^2(x) < 0, so the sign condition fails off u=0
        grid = pr.Grid(n=1, L=10.0, N=64)
        rep = pr.check_divergence_condition(pr.figure1_flux_model(1.5), grid, (-1.0, 1.0))
        assert not rep.satisfied
        # div a g(u) u = -sech^2(x) |u|^(k+2), most negative at |u| = 1 and the
        # lattice x nearest 0; the first of u = -1 and u = 1
        assert rep.worst_violation == -1.0 / np.cosh(0.15625) ** 2
        assert rep.witness == ((0.15625,), -1.0)

    def test_x_independent_always_satisfies(self):
        grid = pr.Grid(n=1, L=5.0, N=32)
        for flux in (pr.linear_flux_model(-4.0, 1), pr.burgers_flux_model(1)):
            rep = pr.check_divergence_condition(flux, grid, (-3.0, 3.0))
            assert rep.satisfied
            assert rep.worst_violation >= -1e-12

    def test_validation(self):
        grid = pr.Grid(n=1, L=5.0, N=32)
        with pytest.raises(ConfigError):
            pr.check_divergence_condition(pr.zero_flux_model(1), grid, (-1.0, 1.0), samples=0)
        with pytest.raises(ConfigError, match="at least 64"):
            pr.check_divergence_condition(pr.zero_flux_model(1), grid, (-1.0, 1.0), samples=63)
        with pytest.raises(ConfigError):
            pr.check_divergence_condition(pr.zero_flux_model(1), grid, (-math.inf, 1.0))


def per_point_lipschitz(flux, grid, M):
    """Reference for check_lipschitz_in_u: |a| |g'| at one x point and one u
    point at a time."""
    X = pr._x_lattice(grid, per_axis=9)
    slopes = np.array([pr._halves(flux, np.array([u]))[2][0]
                       for u in np.linspace(-M, M, 10001)])
    return max(float(np.max(np.max(np.abs(flux.a(X[:, p:p + 1]))) * slopes))
               for p in range(X.shape[1]))


class TestLipschitz:
    def test_linear(self):
        grid = pr.Grid(n=1, L=5.0, N=8)
        C_f = pr.check_lipschitz_in_u(pr.linear_flux_model(3.0, 1), grid, M=1.0)
        assert C_f == 3.0

    def test_burgers_dense_sampling(self):
        # |df/du| = |u| reaches M = 2 at the ends of the u grid
        grid = pr.Grid(n=1, L=5.0, N=2)
        assert pr.check_lipschitz_in_u(pr.burgers_flux_model(1), grid, M=2.0) == 2.0

    def test_zero(self):
        grid = pr.Grid(n=1, L=5.0, N=8)
        assert pr.check_lipschitz_in_u(pr.zero_flux_model(1), grid, M=1.0) == 0.0

    @pytest.mark.parametrize("n, name", [(1, "zero"), (1, "linear"), (1, "burgers"),
                                         (1, "figure1"), (2, "zero"), (2, "linear"),
                                         (2, "burgers")])
    def test_matches_per_point_loop(self, n, name):
        # the same arithmetic on the same values, so the constants agree bitwise
        flux = pr.flux_from_config(name, {"c": -2.5} if name == "linear" else {}, n)
        grid = pr.Grid(n=n, L=3.0, N=16)
        for M in (0.7, 2.0):
            assert pr.check_lipschitz_in_u(flux, grid, M) == per_point_lipschitz(flux, grid, M)

    def test_nonfinite_derivative_names_u(self, nan_below_derivative):
        with pytest.raises(RunError, match=r"\|g'\| at u=-1\.0$"):
            pr.check_lipschitz_in_u(nan_below_derivative, pr.Grid(n=1, L=5.0, N=8), M=1.0)

    def test_nonfinite_split_a_names_x(self):
        # a is inf right of 0: the first such lattice point is the cell centre 0.625
        flux = pr.linear_flux_model(1.0, 1)
        bad = dataclasses.replace(flux, a=lambda x: np.where(x > 0, np.inf, 1.0))
        with pytest.raises(RunError, match=r"non-finite split a at x=\(0\.625,\)$"):
            pr.check_lipschitz_in_u(bad, pr.Grid(n=1, L=5.0, N=8), M=1.0)

    def test_validation(self):
        grid = pr.Grid(n=1, L=5.0, N=8)
        for M in (0.0, math.inf):
            with pytest.raises(ConfigError, match="u bound M > 0"):
                pr.check_lipschitz_in_u(pr.zero_flux_model(1), grid, M=M)


class TestSampling:
    def test_zero_datum(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=16), alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=lambda x: np.zeros(x.shape[1:]))
        s = pr.sample_initial(p)
        assert s.time == 0.0
        assert np.all(s.values == 0)

    def test_gaussian_at_centers(self):
        grid = pr.Grid(n=1, L=20.0, N=8)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=gauss)
        s = pr.sample_initial(p)
        assert s.values == pytest.approx(np.exp(-grid.axis_centers() ** 2))

    def test_barenblatt_datum(self):
        u0 = pr.u0_from_config("barenblatt", {"C": 1.0, "t": 1.0, "alpha": 1.0}, n=1)
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=u0)
        s = pr.sample_initial(p)
        assert np.all(s.values >= 0)
        assert np.any(s.values > 0)
        assert np.all(s.values[np.abs(pr.Grid(n=1, L=10.0, N=200).axis_centers()) > 5] == 0)

    def test_sign_preserved(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=5.0, N=64), alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=lambda x: gauss(x) + 0.1)
        assert np.all(pr.sample_initial(p).values > 0)

    def test_nonfinite_datum_reported(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=5.0, N=8), alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=lambda x: 1.0 / x[0])
        p2 = pr.Problem(grid=pr.Grid(n=1, L=5.0, N=9), alpha=1.0, p0=1.0,
                        flux=pr.zero_flux_model(1),
                        u0=lambda x: np.where(x[0] == 0, np.nan, x[0]))
        # N=9 puts a center exactly at x=0
        with pytest.raises(RunError, match="initial datum is non-finite"):
            pr.sample_initial(p2)

    def test_problem_validation(self):
        grid = pr.Grid(n=1, L=5.0, N=8)
        with pytest.raises(ConfigError):
            pr.Problem(grid=grid, alpha=0.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=gauss)
        with pytest.raises(ConfigError):
            pr.Problem(grid=grid, alpha=1.0, p0=0.5,
                       flux=pr.zero_flux_model(1), u0=gauss)
        with pytest.raises(ConfigError):
            pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=gauss,
                       boundary_policy="reflecting")


class TestConfig:
    def test_full_roundtrip(self):
        text = """
        # sample configuration
        n = 1
        L = 15
        N = 300
        alpha = 0.5
        p0 = 1
        flux = figure1 k=1.5
        u0 = gaussian amp=2 width=0.5
        boundary = zero_flux
        """
        p = pr.problem_from_mapping(pr.read_config(text))
        assert p.grid.N == 300
        assert p.alpha == 0.5
        assert p.flux.name == "figure1"
        u = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(pr._halves(p.flux, u)[0], np.abs(u) ** 1.5 * u)
        vals = pr.sample_initial(p).values
        assert float(np.max(vals)) == pytest.approx(2.0, rel=1e-2)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frob"):
            pr.problem_from_mapping(pr.read_config("frob = 1"))

    def test_unknown_flux(self):
        with pytest.raises(ConfigError, match="warp"):
            pr.problem_from_mapping(pr.read_config("flux = warp"))

    @pytest.mark.parametrize("key, value, bad", [("flux", "linear cc=3", "cc"),
                                                 ("u0", "gaussian wdith=0.1", "wdith")])
    def test_undeclared_catalog_parameter(self, key, value, bad):
        with pytest.raises(ConfigError, match=bad) as info:
            pr.problem_from_mapping({key: value})
        # the message also names what the entry does declare
        assert ("'c'" if key == "flux" else "'width'") in str(info.value)

    def test_unknown_u0_lists_catalog(self):
        with pytest.raises(ConfigError, match="warp") as info:
            pr.problem_from_mapping({"u0": "warp"})
        for name in ("barenblatt", "gaussian", "signed_gaussian", "zero"):
            assert repr(name) in str(info.value)

    def test_catalog_defaults_apply(self):
        p = pr.problem_from_mapping({"flux": "linear", "u0": "barenblatt",
                                     "alpha": "2"})
        x = p.grid.cell_centers()
        assert np.all(p.flux.a(x) == 1.0)
        expected = pr.u0_from_config("barenblatt", {"alpha": 2.0})
        assert np.array_equal(p.u0(x), expected(x))

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            pr.problem_from_mapping(pr.read_config("just some words"))

    def test_defaults(self):
        p = pr.problem_from_mapping(pr.read_config(""))
        assert p.grid.n == 1
        assert p.flux.name == "zero"
        assert p.boundary_policy == "zero_flux"
