import math
import re

import numpy as np
import pytest

from pmelab import exponents as ex
from pmelab import harness as hz
from pmelab import problem as pr
from pmelab import solver as sv
from pmelab.errors import ConfigError, RunError


def gaussian(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def diffusion_run(t_end=2.0, N=200, L=10.0, alpha=1.0, snapshots=()):
    p = pr.Problem(grid=pr.Grid(n=1, L=L, N=N), alpha=alpha, p0=1.0,
                   flux=pr.zero_flux_model(1), u0=gaussian)
    return sv.run(p, sv.SchemeConfig(t_end=t_end, snapshot_times=snapshots))


class TestLqNorm:
    def test_single_cell_example(self):
        # one value 2 on a cell of width 0.5: ||u||_2 = (4 * 0.5)^(1/2) = sqrt(2)
        grid = pr.Grid(n=1, L=0.25, N=1)
        s = pr.State(values=np.array([2.0]), time=0.0, grid=grid)
        assert hz.lq_norm(s, 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert hz.lq_norm(s, 1) == pytest.approx(1.0, rel=1e-14)
        assert hz.lq_norm(s, math.inf) == 2.0

    def test_sign_invariance(self):
        grid = pr.Grid(n=1, L=5.0, N=10)
        v = np.linspace(-1, 1, 10)
        a = pr.State(values=v, time=0.0, grid=grid)
        b = pr.State(values=-v, time=0.0, grid=grid)
        for q in (1, 2, 3.5, math.inf):
            assert hz.lq_norm(a, q) == hz.lq_norm(b, q)

    def test_holder_ordering_on_probability_scale(self):
        # on a domain of measure 1, q -> ||u||_q is nondecreasing
        grid = pr.Grid(n=1, L=0.5, N=50)
        s = pr.State(values=np.abs(np.sin(np.arange(50.0))), time=0.0, grid=grid)
        norms = [hz.lq_norm(s, q) for q in (1, 2, 4, 8, math.inf)]
        assert all(b >= a - 1e-14 for a, b in zip(norms, norms[1:]))

    def test_invalid_index(self):
        grid = pr.Grid(n=1, L=1.0, N=2)
        s = pr.State(values=np.ones(2), time=0.0, grid=grid)
        with pytest.raises(ConfigError):
            hz.lq_norm(s, 0.5)


class TestFitDecay:
    def test_exact_power_law(self):
        ts = np.linspace(1.0, 10.0, 40)
        series = [(t, 3.0 * t ** -0.75) for t in ts]
        slope, intercept, r2 = hz.fit_decay(series, (1.0, 10.0))
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_random_power_laws(self):
        rng = np.random.default_rng(20240817)
        ts = np.geomspace(0.5, 50.0, 25)
        for _ in range(100):
            a = float(rng.uniform(-3.0, 3.0))
            c = float(rng.uniform(0.1, 10.0))
            series = [(t, c * t ** a) for t in ts]
            slope, intercept, _ = hz.fit_decay(series, (0.5, 50.0))
            assert slope == pytest.approx(a, abs=1e-12)
            assert intercept == pytest.approx(math.log(c), abs=1e-12)

    def test_window_restricts_points(self):
        series = [(t, t ** -1.0) for t in np.linspace(1, 10, 20)]
        series[:0] = [(0.5, 99.0)]  # junk outside the window
        slope, _, _ = hz.fit_decay(series, (1.0, 10.0))
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(RunError, match="fit needs >= 5 points"):
            hz.fit_decay([(1.0, 1.0), (2.0, 0.5)], (1.0, 2.0))

    def test_nonpositive_rejected(self):
        series = [(t, 1.0 - 0.2 * t) for t in np.linspace(1, 10, 10)]
        with pytest.raises(RunError, match="fit requires positive times and norms"):
            hz.fit_decay(series, (1.0, 10.0))

    def test_decay_record_from_run(self):
        times = tuple(np.linspace(0.0, 2.0, 21))
        res = diffusion_run(t_end=2.0, snapshots=times)
        rec = hz.decay_record(res, math.inf, (0.5, 2.0))
        assert len(rec.series) == 21
        assert rec.fitted_slope < 0


class TestMonotonicity:
    def test_diffusion_all_q(self):
        times = tuple(np.linspace(0.0, 2.0, 21))
        res = diffusion_run(t_end=2.0, snapshots=times)
        reports = hz.audit_lq_monotonicity(res, [1, 2, 4, math.inf])
        for q, rep in reports.items():
            assert rep.passed, (q, rep.max_uptick)
            assert rep.max_uptick <= 1e-8

    def test_needs_two_snapshots(self):
        res = diffusion_run(t_end=0.1)
        only_end = sv.RunResult(snapshots=res.snapshots[-1:], step_count=1,
                                min_dt=0.1, max_dt=0.1, wall_outflow=[])
        with pytest.raises(RunError, match="needs at least two snapshots"):
            hz.audit_lq_monotonicity(only_end, [2])


class TestEnergyInequality:
    def test_diffusion_passes(self):
        times = tuple(np.linspace(0.0, 2.0, 41))
        res = diffusion_run(t_end=2.0, snapshots=times)
        audit = hz.audit_energy_inequality(res, q=2.0, gamma=2.0, t0=0.0, alpha=1.0)
        assert audit.passed, audit
        assert audit.margin >= -0.05 * audit.rhs_term
        assert audit.lhs_dissipation_term > 0

    def test_advection_passes(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=gaussian)
        times = tuple(np.linspace(0.0, 1.0, 31))
        res = sv.run(p, sv.SchemeConfig(t_end=1.0, snapshot_times=times))
        audit = hz.audit_energy_inequality(res, q=4.0, gamma=3.0, t0=0.0, alpha=1.0)
        assert audit.passed, audit

    def test_frozen_solution_fails(self):
        # a datum that never decays: the norm terms cancel, so the margin is
        # minus the dissipation term, -0.36 of the rhs, beyond the 5% slack
        grid = pr.Grid(n=1, L=10.0, N=200)
        u = gaussian(grid.cell_centers())
        snaps = [pr.State(values=u, time=t, grid=grid) for t in np.linspace(0.0, 1.0, 21)]
        res = sv.RunResult(snapshots=snaps, step_count=20, min_dt=0.05, max_dt=0.05,
                           wall_outflow=[])
        audit = hz.audit_energy_inequality(res, q=2.0, gamma=2.0, t0=0.0, alpha=1.0)
        assert audit.margin / audit.rhs_term == pytest.approx(-0.36, abs=0.005)
        assert not audit.passed

    def test_validation(self):
        res = diffusion_run(t_end=0.5, snapshots=tuple(np.linspace(0, 0.5, 25)))
        with pytest.raises(ConfigError):
            hz.audit_energy_inequality(res, q=2.0, gamma=1.0, t0=0.0, alpha=1.0)
        with pytest.raises(ConfigError):
            hz.audit_energy_inequality(res, q=1.5, gamma=2.0, t0=0.0, alpha=1.0)
        with pytest.raises(RunError, match="needs >= 20 snapshots"):
            hz.audit_energy_inequality(res, q=2.0, gamma=2.0, t0=0.49, alpha=1.0)


class TestSmoothing:
    def test_ratio_settles(self):
        times = tuple(np.geomspace(0.5, 40.0, 30))
        p = pr.Problem(grid=pr.Grid(n=1, L=40.0, N=600), alpha=1.0, p0=1.0,
                       flux=pr.zero_flux_model(1), u0=gaussian)
        res = sv.run(p, sv.SchemeConfig(t_end=40.0, snapshot_times=times))
        rep = hz.audit_smoothing(res, p0=1.0, alpha=1.0)
        assert rep.passed, rep
        assert rep.gamma0 == ex.smoothing_exponents(1, 1.0, 1.0)[1]

    def test_runs_it_cannot_audit_are_named(self):
        grid = pr.Grid(n=1, L=1.0, N=4)

        def result(*snaps):
            return sv.RunResult(
                snapshots=[pr.State(values=np.full(4, u), time=t, grid=grid) for t, u in snaps],
                step_count=0, min_dt=0.0, max_dt=0.0, wall_outflow=[])

        for res, named in ((result(), "empty run result"),
                           (result((0.0, 0.0), (1.0, 0.0)), "initial datum has zero L^p0 norm"),
                           (result((0.0, 1.0)), "no snapshots with t > 0")):
            with pytest.raises(RunError, match=re.escape(f"smoothing audit: {named}")):
                hz.audit_smoothing(res, p0=1.0, alpha=1.0)


class TestSandwich:
    def make_problem(self, N=200):
        return pr.Problem(grid=pr.Grid(n=1, L=10.0, N=N), alpha=1.0, p0=1.0,
                          flux=pr.burgers_flux_model(1),
                          u0=lambda x: x[0] * np.exp(-x[0] ** 2))

    def test_ordering_holds(self):
        p = self.make_problem()
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / 8.0)
        rep = hz.run_sandwich(p, 0.1, psi, sv.SchemeConfig(t_end=0.5))
        assert rep.max_lower_violation >= -1e-12
        assert rep.max_upper_violation >= -1e-12
        assert rep.step_count > 0

    @staticmethod
    def outer_data(p, eps, psi):
        """The sandwich's outer data -u0^- - eps psi and u0^+ + eps psi."""
        base = pr.sample_initial(p).values
        w = np.broadcast_to(psi(p.grid.cell_centers()), p.grid.shape)
        return (pr.State(values=-np.maximum(-base, 0.0) - eps * w, time=0.0, grid=p.grid),
                pr.State(values=np.maximum(base, 0.0) + eps * w, time=0.0, grid=p.grid))

    def test_envelope_decreases_with_eps(self):
        p = self.make_problem()
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / 8.0)
        envs = [hz.sandwich_envelope(p, *self.outer_data(p, e, psi))
                for e in (0.4, 0.2, 0.1)]
        assert envs[0] > envs[1] > envs[2]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p0", [1.0, 2.0, 3.5])
    def test_envelope_equals_two_sampling_formula(self, n, p0):
        # the reference samples u0 and psi again and rebuilds the positive
        # parts; |-a - b| is a + b exactly, so the two agree bit for bit
        p = pr.Problem(grid=pr.Grid(n=n, L=5.0, N=40), alpha=1.0, p0=p0,
                       flux=pr.zero_flux_model(n),
                       u0=lambda x: x[0] * np.exp(-np.sum(np.asarray(x) ** 2, axis=0)))
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / 8.0)
        eps = 0.1
        base = pr.sample_initial(p).values
        w = np.broadcast_to(np.asarray(psi(p.grid.cell_centers()), float), p.grid.shape)
        delta0, _ = ex.smoothing_exponents(n, p0, 1.0)

        def norm(v):
            return hz.lq_norm(pr.State(values=v, time=0.0, grid=p.grid), p0)

        reference = max(norm(np.maximum(-base, 0.0) + eps * w),
                        norm(np.maximum(base, 0.0) + eps * w)) ** delta0
        assert hz.sandwich_envelope(p, *self.outer_data(p, eps, psi)) == reference

    def test_lands_on_snapshot_times(self, monkeypatch):
        # a landing sets the time exactly, so the next step starts at it
        starts, step = [], sv.step

        def recording_step(state, *rest):
            starts.append(state.time)
            return step(state, *rest)

        monkeypatch.setattr(sv, "step", recording_step)
        times = (0.013, 0.05, 0.1)
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))
        rep = hz.run_sandwich(self.make_problem(N=50), 0.1, psi,
                              sv.SchemeConfig(t_end=0.2, snapshot_times=times))
        assert set(times) <= set(starts)
        assert rep.step_count == len(starts)

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    def test_block_minima_equal_the_per_state_minima(self, monkeypatch, boundary):
        # blocks of 1, 2 and 3 rows, of all states but one, of exactly all of
        # them, and the default block give the minima of u - lower and
        # upper - u that a per-state audit gives, bit for bit; the smallest
        # value is the initial state's alone under zero_flux and the last
        # stepped state's alone under dirichlet_zero
        p = pr.Problem(grid=pr.Grid(n=1, L=3.0, N=30), alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=lambda x: x[0] * np.exp(-x[0] ** 2),
                       boundary_policy=boundary)
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0) / 8.0)
        cfg = sv.SchemeConfig(t_end=0.3, snapshot_times=(0.1,))
        lower, upper = self.outer_data(p, 0.1, psi)
        stack = pr.State(values=np.stack((lower.values, pr.sample_initial(p).values,
                                          upper.values)), time=0.0, grid=p.grid)
        stacks = [stack.values] + [s.values for s, dt in sv.advance(stack, p, cfg,
                                                                    sv.plan(stack, p))
                                   if dt is not None]
        lows = [float((u - lo).min()) for lo, u, _ in stacks]
        highs = [float((hi - u).min()) for _, u, hi in stacks]
        states, at = len(stacks), 0 if boundary == "zero_flux" else -1
        assert states > 4
        for worst in (lows, highs):
            assert worst[at] == min(worst) < min(worst[1:] if at == 0 else worst[:-1])
        for rows in (1, 2, 3, states - 1, states, None):
            if rows is not None:
                monkeypatch.setattr(hz, "AUDIT_BLOCK", rows * stack.values.size)
            rep = hz.run_sandwich(p, 0.1, psi, cfg)
            assert rep.step_count == states - 1
            assert (rep.max_lower_violation.hex(), rep.max_upper_violation.hex()) == (
                min(lows).hex(), min(highs).hex()), rows

    def test_psi_must_be_positive(self):
        p = self.make_problem(N=50)
        with pytest.raises(ConfigError):
            hz.run_sandwich(p, 0.1, lambda x: np.zeros(x.shape[1:]),
                            sv.SchemeConfig(t_end=0.1))
        with pytest.raises(ConfigError):
            hz.run_sandwich(p, -0.1, lambda x: np.ones(x.shape[1:]),
                            sv.SchemeConfig(t_end=0.1))

    def test_blowup_names_the_branch(self, nan_below_flux):
        # f = u is NaN below -0.45, which only the lower branch
        # -u0^- - eps psi reaches
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=nan_below_flux, u0=lambda x: x[0] * np.exp(-x[0] ** 2))
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))
        with pytest.raises(RunError, match="lower branch.*non-finite value"):
            hz.run_sandwich(p, 0.1, psi, sv.SchemeConfig(t_end=0.5))

    def test_bad_derivative_names_the_branch(self, nan_below_derivative):
        # df_du is NaN below -0.45, which only the lower branch reaches
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=nan_below_derivative, u0=lambda x: x[0] * np.exp(-x[0] ** 2))
        psi = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=0))
        with pytest.raises(RunError,
                           match=r"step 1\b, lower branch.*non-finite flux derivative"):
            hz.run_sandwich(p, 0.1, psi, sv.SchemeConfig(t_end=0.5))


class TestFigure1:
    def test_experiment_shape(self):
        # the problem and snapshot times of `pmelab figure1 --t-end 1 --N 300`
        p = pr.problem_from_mapping({"flux": "figure1 k=1.5", "u0": "gaussian",
                                     "alpha": "0.5", "L": "10.0", "N": "300"})
        res = sv.run(p, sv.SchemeConfig(t_end=1.0,
                                        snapshot_times=tuple(j / 5.0 for j in range(6))))
        assert p.flux.name == "figure1"
        assert len(res.snapshots) >= 5
        # L^1 of |u| is conserved by the scheme; norm ordering still audited
        reports = hz.audit_lq_monotonicity(res, [1])
        assert reports[1].max_uptick <= 1e-8
        assert reports[1].series == [(s.time, hz.lq_norm(s, 1)) for s in res.snapshots]
