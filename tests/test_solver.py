import math

import numpy as np
import pytest

from pmelab import barenblatt as bb
from pmelab import problem as pr
from pmelab import solver as sv
from pmelab.errors import RunError


def gaussian(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def diffusion_problem(N=200, L=10.0, alpha=1.0, n=1, u0=gaussian):
    return pr.Problem(grid=pr.Grid(n=n, L=L, N=N), alpha=alpha, p0=1.0,
                      flux=pr.zero_flux_model(n), u0=u0)


class TestKirchhoff:
    def test_frozen_values(self):
        assert sv.kirchhoff(2.0, 1.0) == pytest.approx(2.0)
        assert sv.kirchhoff(-2.0, 1.0) == pytest.approx(-2.0)
        assert sv.kirchhoff(2.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0) / 1.5,
                                                       rel=1e-14)
        assert sv.kirchhoff(0.0, 3.0) == 0.0

    def test_odd_and_increasing(self):
        u = np.linspace(-3, 3, 101)
        g = sv.kirchhoff(u, 0.7)
        assert np.allclose(g, -sv.kirchhoff(-u, 0.7), atol=1e-15)
        assert np.all(np.diff(g) > 0)

    def test_scalar_returns_float(self):
        assert isinstance(sv.kirchhoff(1.5, 1.0), float)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            sv.kirchhoff(1.0, 0.0)


def nan_below_flux(u_min=-0.45):
    """Linear flux f = u whose value is NaN below u_min; df_du stays 1."""
    def f(x, t, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < u_min, np.nan, u)[None]

    return pr.FluxModel(name="nan-below", f=f,
                        df_du=lambda x, t, u: np.ones((1,) + np.shape(u)),
                        div_x_f=lambda x, t, u: np.zeros(np.shape(u)))


class TestStableDt:
    def test_pure_diffusion_formula(self):
        # dx = 0.1, alpha = 1, max|u| = 2  ->  dt = cfl * dx^2 / (2*1*2)
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = diffusion_problem(N=200)
        u = np.full(grid.shape, 2.0)
        state = pr.State(values=u, time=0.0, grid=grid)
        dt = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
        assert dt == pytest.approx(0.9 * 0.1 ** 2 / 4.0, rel=1e-9)

    def test_advection_dominates(self):
        # linear flux c=5 with tiny u: dx/(2*5) beats the diffusive bound
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.linear_flux_model(5.0, 1),
                       u0=lambda x: 1e-6 * gaussian(x))
        state = pr.sample_initial(p)
        dt = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        assert dt == pytest.approx(0.1 / 10.0, rel=1e-6)

    def test_2d_halves_diffusive_bound(self):
        grid = pr.Grid(n=2, L=10.0, N=200)
        p = diffusion_problem(N=200, n=2, u0=lambda x: np.ones(x.shape[1:]))
        state = pr.sample_initial(p)
        dt = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        assert dt == pytest.approx(0.1 ** 2 / 4.0, rel=1e-9)

    def test_zero_state_finite(self):
        p = diffusion_problem(u0=lambda x: np.zeros(x.shape[1:]))
        state = pr.sample_initial(p)
        dt = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0))
        assert math.isfinite(dt) and dt > 0


class TestStep:
    def test_zero_state_fixed_point(self):
        p = diffusion_problem(N=64, u0=lambda x: np.zeros(x.shape[1:]))
        s = pr.sample_initial(p)
        s1 = sv.step(s, p, 1e-4)
        assert np.all(s1.values == 0)
        assert s1.time == pytest.approx(1e-4)

    def test_constant_state_zero_flux_fixed_point(self):
        p = diffusion_problem(N=64, u0=lambda x: np.full(x.shape[1:], 0.7))
        s = pr.sample_initial(p)
        s1 = sv.step(s, p, 1e-4)
        assert s1.values == pytest.approx(np.full(64, 0.7), abs=1e-15)

    def test_mass_conservation(self):
        p = diffusion_problem(N=200)
        res = sv.run(p, sv.SchemeConfig(t_end=1.0))
        masses = [m for _, m in res.mass_series]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]

    def test_mass_conservation_with_advection(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=gaussian)
        res = sv.run(p, sv.SchemeConfig(t_end=0.5))
        masses = [m for _, m in res.mass_series]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]

    def test_nonnegativity_preserved(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=150), alpha=0.5, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=gaussian)
        res = sv.run(p, sv.SchemeConfig(t_end=1.0))
        assert np.all(res.snapshots[-1].values >= 0)

    def test_discrete_comparison(self):
        # monotone scheme: ordered data stay ordered step by step
        grid = pr.Grid(n=1, L=10.0, N=120)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=gaussian)
        lo = pr.State(values=pr.sample_initial(p).values * 0.5, time=0.0, grid=grid)
        hi = pr.sample_initial(p)
        cfg = sv.SchemeConfig(t_end=1.0)
        for _ in range(200):
            dt = min(sv.stable_dt(lo, p, cfg), sv.stable_dt(hi, p, cfg))
            lo = sv.step(lo, p, dt)
            hi = sv.step(hi, p, dt)
            assert np.all(hi.values - lo.values >= -1e-12)

    def test_signed_data_comparison(self):
        grid = pr.Grid(n=1, L=10.0, N=120)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1),
                       u0=lambda x: x[0] * np.exp(-x[0] ** 2))
        mid = pr.sample_initial(p)
        hi = pr.State(values=mid.values + 0.05, time=0.0, grid=grid)
        cfg = sv.SchemeConfig(t_end=1.0)
        for _ in range(200):
            dt = min(sv.stable_dt(mid, p, cfg), sv.stable_dt(hi, p, cfg))
            mid = sv.step(mid, p, dt)
            hi = sv.step(hi, p, dt)
            assert np.all(hi.values - mid.values >= -1e-12)


    @pytest.mark.parametrize("flux2, flux1, vary", [
        (pr.burgers_flux_model(2), pr.burgers_flux_model(1), 0),
        (pr.burgers_flux_model(2), pr.burgers_flux_model(1), 1),
        (pr.linear_flux_model((1.0, -2.0), 2), pr.linear_flux_model(1.0, 1), 0),
        (pr.linear_flux_model((1.0, -2.0), 2), pr.linear_flux_model(-2.0, 1), 1),
    ])
    def test_2d_state_constant_along_one_axis_steps_as_1d(self, flux2, flux1, vary):
        # u varies only along axis `vary`; the other axis must contribute nothing
        N, dt = 80, 0.005
        grid1, grid2 = pr.Grid(n=1, L=10.0, N=N), pr.Grid(n=2, L=10.0, N=N)
        p1 = pr.Problem(grid=grid1, alpha=1.0, p0=1.0, flux=flux1, u0=gaussian)
        p2 = pr.Problem(grid=grid2, alpha=1.0, p0=1.0, flux=flux2, u0=gaussian)
        s1 = pr.sample_initial(p1)
        spread = (slice(None), None) if vary == 0 else (None, slice(None))
        s2 = pr.State(values=np.broadcast_to(s1.values[spread], grid2.shape),
                      time=0.0, grid=grid2)
        for _ in range(50):
            s1, s2 = sv.step(s1, p1, dt), sv.step(s2, p2, dt)
            assert np.max(np.abs(s2.values - s1.values[spread])) <= 1e-14
        assert s2.time == s1.time


class TestRun:
    def test_snapshots_at_exact_times(self):
        p = diffusion_problem(N=100)
        times = (0.0, 0.25, 0.5, 1.0)
        res = sv.run(p, sv.SchemeConfig(t_end=1.0, snapshot_times=times))
        assert [s.time for s in res.snapshots] == list(times)

    def test_t_end_always_included(self):
        p = diffusion_problem(N=100)
        res = sv.run(p, sv.SchemeConfig(t_end=0.3))
        assert res.snapshots[-1].time == 0.3

    def test_step_budget(self):
        p = diffusion_problem(N=200)
        with pytest.raises(RunError, match="exceeded 3 steps"):
            sv.run(p, sv.SchemeConfig(t_end=10.0, max_steps=3))

    def test_blowup_names_the_step(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=100), alpha=1.0, p0=1.0,
                       flux=nan_below_flux(), u0=lambda x: -0.5 * gaussian(x))
        with pytest.raises(RunError, match=r"step 1\b.*non-finite value"):
            sv.run(p, sv.SchemeConfig(t_end=1.0))

    def test_sup_norm_decreases(self):
        p = diffusion_problem(N=200)
        res = sv.run(p, sv.SchemeConfig(t_end=2.0, snapshot_times=(0.0, 1.0, 2.0)))
        sups = [float(np.max(np.abs(s.values))) for s in res.snapshots]
        assert sups[0] > sups[1] > sups[2]

    def test_compact_support_no_boundary_flag(self):
        p = diffusion_problem(N=200, L=10.0)
        res = sv.run(p, sv.SchemeConfig(t_end=1.0))
        assert not res.boundary_flagged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=1.0, cfl_safety=0.0)
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=1.0, snapshot_times=(2.0,))


class TestBarenblattConvergence:
    def test_first_order_on_refinement(self):
        # advance the exact self-similar profile from t=1 to t=2 and compare
        prof = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
        u0 = pr.u0_from_config("barenblatt", {"C": 1.0, "t": 1.0, "alpha": 1.0}, n=1)
        errs = []
        for N in (100, 200, 400):
            grid = pr.Grid(n=1, L=10.0, N=N)
            p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                           flux=pr.zero_flux_model(1), u0=u0)
            res = sv.run(p, sv.SchemeConfig(t_end=1.0))
            exact = bb.evaluate(prof, grid.axis_centers(), 2.0)
            errs.append(float(np.sum(np.abs(res.snapshots[-1].values - exact)) * grid.dx))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_2d_smoke(self):
        p = diffusion_problem(N=60, L=6.0, n=2)
        res = sv.run(p, sv.SchemeConfig(t_end=0.5))
        masses = [m for _, m in res.mass_series]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]
        assert float(np.max(res.snapshots[-1].values)) < 1.0
        assert np.all(res.snapshots[-1].values >= 0)
