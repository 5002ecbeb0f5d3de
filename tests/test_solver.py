import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmelab import barenblatt as bb
from pmelab import harness as hz
from pmelab import problem as pr
from pmelab import solver as sv
from pmelab.errors import RunError


def gaussian(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def diffusion_problem(N=200, L=10.0, alpha=1.0, n=1, u0=gaussian):
    return pr.Problem(grid=pr.Grid(n=n, L=L, N=N), alpha=alpha, p0=1.0,
                      flux=pr.zero_flux_model(n), u0=u0)


def nan_below_flux(u_min=-0.45):
    """Linear flux f = u whose value is NaN below u_min; df_du stays 1."""
    def f(x, t, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < u_min, np.nan, u)[None]

    return pr.FluxModel(name="nan-below", f=f,
                        df_du=lambda x, t, u: np.ones((1,) + np.shape(u)),
                        div_x_f=lambda x, t, u: np.zeros(np.shape(u)))


def nan_below_derivative(u_min=-0.45):
    """Linear flux f = u whose df_du is NaN below u_min."""
    def df_du(x, t, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < u_min, np.nan, 1.0)[None]

    return pr.FluxModel(name="nan-df-below", f=lambda x, t, u: np.asarray(u, float)[None],
                        df_du=df_du, div_x_f=lambda x, t, u: np.zeros(np.shape(u)))


class TestStableDt:
    def test_pure_diffusion_formula(self):
        # dx = 0.1, alpha = 1, max|u| = 2  ->  dt = cfl * dx^2 / (2*1*2)
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = diffusion_problem(N=200)
        u = np.full(grid.shape, 2.0)
        state = pr.State(values=u, time=0.0, grid=grid)
        dt, _ = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
        assert dt == pytest.approx(0.9 * 0.1 ** 2 / 4.0, rel=1e-9)

    def test_advection_dominates(self):
        # linear flux c=5 with tiny u: the monotone rule 1/(c/dx + 2 max|u|/dx^2)
        # is set almost wholly by advection
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.linear_flux_model(5.0, 1),
                       u0=lambda x: 1e-6 * gaussian(x))
        state = pr.sample_initial(p)
        dt, _ = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        umax = float(np.max(np.abs(state.values)))
        assert dt == pytest.approx(1.0 / (5.0 / 0.1 + 2.0 * umax / 0.01), rel=1e-12)

    def test_2d_halves_diffusive_bound(self):
        grid = pr.Grid(n=2, L=10.0, N=200)
        p = diffusion_problem(N=200, n=2, u0=lambda x: np.ones(x.shape[1:]))
        state = pr.sample_initial(p)
        dt, _ = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        assert dt == pytest.approx(0.1 ** 2 / 4.0, rel=1e-9)

    def test_zero_state_finite(self):
        p = diffusion_problem(u0=lambda x: np.zeros(x.shape[1:]))
        state = pr.sample_initial(p)
        dt, _ = sv.stable_dt(state, p, sv.SchemeConfig(t_end=1.0))
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
            dt = min(sv.stable_dt(lo, p, cfg)[0], sv.stable_dt(hi, p, cfg)[0])
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
            dt = min(sv.stable_dt(mid, p, cfg)[0], sv.stable_dt(hi, p, cfg)[0])
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


def reference_step(u, t, dt, problem):
    """The update as it was written before the interface states were joined:
    a padded copy per axis and separate f and df_du calls on the left and the
    right states (four flux calls per axis)."""
    def cut(a, ax, start, stop):
        idx = [slice(None)] * a.ndim
        idx[ax] = slice(start, stop)
        return a[tuple(idx)]

    def pad1(a, ax):
        lo, hi = cut(a, ax, None, 1), cut(a, ax, -1, None)
        if problem.boundary_policy != "zero_flux":
            lo = hi = np.zeros_like(lo)
        return np.concatenate((lo, a, hi), axis=ax)

    grid, flux = problem.grid, problem.flux
    G = np.abs(u) ** problem.alpha * u / (problem.alpha + 1.0)  # Kirchhoff transform
    new = u
    for ax in range(grid.n):
        axes = [grid.axis_interfaces() if b == ax else grid.axis_centers()
                for b in range(grid.n)]
        xi = np.stack(np.meshgrid(*axes, indexing="ij"))
        up = pad1(u, ax)
        ul, ur = cut(up, ax, None, -1), cut(up, ax, 1, None)
        fl = np.asarray(flux.f(xi, t, ul))[ax]
        fr = np.asarray(flux.f(xi, t, ur))[ax]
        lam = np.maximum(np.abs(np.asarray(flux.df_du(xi, t, ul))[ax]),
                         np.abs(np.asarray(flux.df_du(xi, t, ur))[ax]))
        fhat = 0.5 * (fl + fr) - 0.5 * lam * (ur - ul)
        Gp = pad1(G, ax)
        new = (new - (dt / grid.dx) * np.diff(fhat, axis=ax)
               + (dt / grid.dx ** 2) * (cut(Gp, ax, 2, None) - 2.0 * cut(Gp, ax, 1, -1)
                                        + cut(Gp, ax, None, -2)))
    return new


def counting(flux, calls):
    """`flux` with f and df_du counting their calls into calls[0]."""
    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    return dataclasses.replace(flux, f=counted(flux.f), df_du=counted(flux.df_du))


# u0 reaches the walls of [-3, 3], so the two boundary policies differ
STEP_IDS = ["figure1-1d", "burgers-1d", "linear-1d", "burgers-2d", "linear-2d",
            "zero-1d", "zero-2d"]
STEP_CASES = [
    (1, pr.figure1_flux_model(1.5), lambda x: np.exp(-x[0] ** 2 / 4.0)),
    (1, pr.burgers_flux_model(1), lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0)),
    (1, pr.linear_flux_model(3.0, 1), lambda x: np.exp(-(x[0] - 1.0) ** 2 / 4.0)),
    (2, pr.burgers_flux_model(2), lambda x: x[0] * np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (2, pr.linear_flux_model((1.0, -2.0), 2),
     lambda x: np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (1, pr.zero_flux_model(1), lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0)),
    (2, pr.zero_flux_model(2), lambda x: x[1] * np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
]


class TestStepKernel:
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_equals_four_call_reference(self, n, flux, u0, boundary):
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
        s = pr.sample_initial(p)
        u = s.values
        cfg = sv.SchemeConfig(t_end=1.0)
        for _ in range(50):
            dt, terms = sv.stable_dt(s, p, cfg)
            u = reference_step(u, s.time, dt, p)
            s = sv.step(s, p, dt, terms)
            assert np.array_equal(s.values, u)

    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_flux_calls_per_step(self, n, flux, u0):
        # stable_dt calls f and df_du once per axis and step reuses them
        calls = [0]
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16), alpha=0.5,
                       p0=1.0, flux=counting(flux, calls), u0=u0)
        res = sv.run(p, sv.SchemeConfig(t_end=0.2))
        assert res.step_count > 0
        assert calls[0] == 2 * n * res.step_count


def zeros_of(x, t, u):
    return np.zeros((len(x),) + np.shape(u))


class TestZeroFluxSkip:
    """The catalog's zero flux skips the advective half of the step; the skip
    is taken by evaluator identity, so any other flux object is evaluated."""

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n", (1, 2))
    def test_evaluated_zero_flux_gives_the_same_bits(self, n, boundary):
        # -0.0 cells too: v - (dt/dx) * (+0.0) keeps the sign of v
        def u0(x):
            return np.where(x[0] > 1.0, -0.0, x[0] * np.exp(-np.sum(x ** 2, axis=0) / 4.0))

        calls = [0]
        zero = pr.zero_flux_model(n)
        lookalike = dataclasses.replace(zero, f=zeros_of, df_du=zeros_of)
        cfg = sv.SchemeConfig(t_end=0.5, snapshot_times=(0.1, 0.25))
        skipped, wrapped, alike = (
            sv.run(pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                              p0=1.0, flux=flux, u0=u0, boundary_policy=boundary), cfg)
            for flux in (zero, counting(zero, calls), lookalike))
        assert skipped.step_count > 0
        assert calls[0] == 2 * n * wrapped.step_count
        for other in (wrapped, alike):
            assert other.step_count == skipped.step_count
            assert other.mass_series == skipped.mass_series
            assert other.boundary_mass_max == skipped.boundary_mass_max
            for a, b in zip(skipped.snapshots, other.snapshots):
                assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("n", (1, 2))
    def test_skip_is_by_identity_not_name(self, n):
        burgers = pr.burgers_flux_model(n)
        cases = {
            "catalog zero": (pr.zero_flux_model(n), True),
            "look-alike zero": (dataclasses.replace(pr.zero_flux_model(n), f=zeros_of), False),
            "named zero": (dataclasses.replace(burgers, name="zero"), False),
            "zero f only": (dataclasses.replace(burgers, name="zero", f=pr.zero_evaluator),
                            False),
        }
        grid = pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16)
        for label, (flux, skipped) in cases.items():
            p = pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=flux, u0=gaussian)
            s = pr.sample_initial(p)
            _, terms = sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0))
            assert [dF is None for dF, _ in terms] == [skipped] * n, label
        # a nonzero flux named "zero" steps exactly as the flux it is
        cfg = sv.SchemeConfig(t_end=0.2)
        named, real, zero = (
            sv.run(pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=flux, u0=gaussian), cfg)
            for flux in (cases["named zero"][0], burgers, pr.zero_flux_model(n)))
        assert np.array_equal(named.snapshots[-1].values, real.snapshots[-1].values)
        assert not np.array_equal(named.snapshots[-1].values, zero.snapshots[-1].values)


class TestHandoff:
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_prepared_step_equals_unprepared(self, n, flux, u0, boundary):
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
        s = pr.sample_initial(p)
        cfg = sv.SchemeConfig(t_end=1.0)
        for _ in range(20):
            dt, terms = sv.stable_dt(s, p, cfg)
            cold = sv.step(s, p, dt)
            s = sv.step(s, p, dt, terms)
            assert s.values.tobytes() == cold.values.tobytes() and s.time == cold.time

    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_interleaved_preparations_stay_apart(self, n, flux, u0):
        # as in the sandwich: every state is prepared before any is stepped
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0)
        base = pr.sample_initial(p)
        states = [pr.State(values=c * base.values, time=0.0, grid=base.grid)
                  for c in (-0.5, 1.0, 2.0)]
        prepared = [sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0)) for s in states]
        dt = min(d for d, _ in prepared)
        for s, (_, terms) in zip(states, prepared):
            handed, cold = sv.step(s, p, dt, terms), sv.step(s, p, dt)
            assert handed.values.tobytes() == cold.values.tobytes()


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_stacked_advance_steps_each_branch_as_alone(data):
    # a stacked state (the sandwich's branches) must give every branch, at
    # every step, the bits of its own stable_dt and step with the shared dt
    n = data.draw(st.sampled_from((1, 2)), label="n")
    name = data.draw(st.sampled_from(
        [k for k in sorted(pr.FLUX_CATALOG) if n == 1 or k != "figure1"]), label="flux")
    params = {"c": data.draw(st.floats(-3.0, 3.0), label="c")} if name == "linear" else {}
    boundary = data.draw(st.sampled_from(pr.BOUNDARY_POLICIES), label="boundary")
    alpha = data.draw(st.floats(0.25, 2.0), label="alpha")
    B = data.draw(st.integers(1, 3), label="B")
    amps = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
                              min_size=B, max_size=B), label="amplitudes")
    grid = pr.Grid(n=n, L=3.0, N=24 if n == 1 else 10)
    p = pr.Problem(grid=grid, alpha=alpha, p0=1.0, flux=pr.flux_from_config(name, params, n),
                   u0=gaussian, boundary_policy=boundary)
    x = grid.cell_centers()
    r2 = np.sum(x ** 2, axis=0)
    branches = [pr.State(values=a * x[0] * np.exp(-r2) + c * np.exp(-r2 / 4.0),
                         time=0.0, grid=grid) for a, c in amps]
    stacked = pr.State(values=np.stack([s.values for s in branches]), time=0.0, grid=grid)
    cfg = sv.SchemeConfig(t_end=0.06, snapshot_times=(0.02,))
    pending = [0.02, cfg.t_end]  # the landing times not yet reached
    steps = 0
    for stacked, dt in sv.advance(stacked, p, cfg):
        if dt is None:
            target = pending.pop(0)
            branches = [pr.State(values=s.values, time=target, grid=grid) for s in branches]
        else:
            steps += 1
            prepared = [sv.stable_dt(s, p, cfg) for s in branches]
            ref_dt = min(min(d for d, _ in prepared), pending[0] - branches[0].time)
            branches = [sv.step(s, p, ref_dt, terms) for s, (_, terms) in zip(branches, prepared)]
            assert dt == ref_dt
        assert [stacked.time] * B == [s.time for s in branches]
        for k, s in enumerate(branches):
            assert stacked.values[k].tobytes() == s.values.tobytes(), (steps, k)
    assert steps > 0 and stacked.time == cfg.t_end


def test_threads_keep_their_own_scratch():
    # runs on one grid shape in more threads than cores, switching often
    def problem(amp):
        return pr.Problem(grid=pr.Grid(n=2, L=3.0, N=24), alpha=0.5, p0=1.0,
                          flux=pr.burgers_flux_model(2),
                          u0=lambda x: amp * np.exp(-np.sum(x ** 2, axis=0)))

    amps = (0.5, 1.0, 1.5, 2.0)
    cfg = sv.SchemeConfig(t_end=0.3)
    alone = [sv.run(problem(a), cfg).snapshots[-1].values for a in amps]
    together = [None] * len(amps)

    def work(k):
        together[k] = sv.run(problem(amps[k]), cfg).snapshots[-1].values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(amps))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for a, b in zip(alone, together):
        assert b is not None and np.array_equal(a, b)


@pytest.mark.parametrize("n, N, t_end", [(1, 200, 0.3), (2, 120, 0.1)], ids=["1d", "2d"])
def test_monotone_step_size_keeps_sup_norm_from_rising(n, N, t_end):
    # advective and diffusive bounds close together: taking their minimum
    # instead of the combined rule let max|u| rise by a few percent
    p = pr.Problem(grid=pr.Grid(n=n, L=5.0, N=N), alpha=1.0, p0=1.0,
                   flux=pr.linear_flux_model(20.0, n),
                   u0=lambda x: np.exp(-np.sum(x ** 2, axis=0) / 0.5))
    times = tuple(np.linspace(0.0, t_end, 31))
    res = sv.run(p, sv.SchemeConfig(t_end=t_end, snapshot_times=times))
    sups = [float(np.max(np.abs(s.values))) for s in res.snapshots]
    assert len(sups) == 31
    rises = [(k, b / a - 1.0) for k, (a, b) in enumerate(zip(sups, sups[1:]))
             if b > a * (1.0 + 1e-14)]
    assert rises == []


def test_run_and_sandwich_call_step_and_stable_dt_once_per_step(monkeypatch):
    # bench/run.py --trace wraps these two module functions as below: it counts
    # cells through them and hands each call a copy of the problem with traced
    # f and df_du; here every call gets a fresh copy, so no step may lean on
    # the identity of the problem its stable_dt saw. The sandwich steps its
    # three branches as one stacked state: one call each per lockstep step.
    calls = {"step": 0, "stable_dt": 0}
    flux_calls = [0]
    cells = [0]

    def counted(name, fn):
        def wrapper(state, p, *rest):
            calls[name] += 1
            cells[0] += state.values.size if name == "step" else 0
            return fn(state, dataclasses.replace(p, flux=counting(p.flux, flux_calls)), *rest)
        return wrapper

    p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=80), alpha=1.0, p0=1.0,
                   flux=pr.burgers_flux_model(1),
                   u0=lambda x: x[0] * np.exp(-x[0] ** 2))
    n = p.grid.n
    cfg = sv.SchemeConfig(t_end=0.5, snapshot_times=(0.1, 0.25))
    sandwich = (p, 0.1, lambda x: np.ones(x.shape[1:]), sv.SchemeConfig(t_end=0.5))
    plain, plain_rep = sv.run(p, cfg), hz.run_sandwich(*sandwich)

    monkeypatch.setattr(sv, "step", counted("step", sv.step))
    monkeypatch.setattr(sv, "stable_dt", counted("stable_dt", sv.stable_dt))
    res = sv.run(p, cfg)
    assert calls == {"step": res.step_count, "stable_dt": res.step_count}
    assert flux_calls[0] == 2 * n * res.step_count
    assert res.step_count == plain.step_count and len(res.snapshots) == 3
    for a, b in zip(res.snapshots, plain.snapshots):
        assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    calls.update(step=0, stable_dt=0)
    flux_calls[0] = cells[0] = 0
    rep = hz.run_sandwich(*sandwich)
    assert rep.step_count > 0
    assert calls == {"step": rep.step_count, "stable_dt": rep.step_count}
    assert flux_calls[0] == 2 * n * rep.step_count
    assert cells[0] == 3 * p.grid.N * rep.step_count
    assert rep == plain_rep


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

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(sv, "MAX_STEPS", 3)
        p = diffusion_problem(N=200)
        with pytest.raises(RunError, match="exceeded 3 steps"):
            sv.run(p, sv.SchemeConfig(t_end=10.0))

    def test_blowup_names_the_step(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=100), alpha=1.0, p0=1.0,
                       flux=nan_below_flux(), u0=lambda x: -0.5 * gaussian(x))
        with pytest.raises(RunError, match=r"step 1\b.*non-finite value"):
            sv.run(p, sv.SchemeConfig(t_end=1.0))

    def test_bad_derivative_names_the_step(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=100), alpha=1.0, p0=1.0,
                       flux=nan_below_derivative(), u0=lambda x: -0.5 * gaussian(x))
        with pytest.raises(RunError, match=r"step 1\b.*non-finite flux derivative"):
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

    def test_2d_refinement_order(self):
        prof = bb.BarenblattProfile(n=2, alpha=1.0, C=1.0)
        u0 = pr.u0_from_config("barenblatt", {"C": 1.0, "t": 1.0, "alpha": 1.0}, n=2)
        errs = []
        for N in (40, 80):
            grid = pr.Grid(n=2, L=6.0, N=N)
            p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                           flux=pr.zero_flux_model(2), u0=u0)
            res = sv.run(p, sv.SchemeConfig(t_end=1.0))
            exact = bb.evaluate(prof, grid.cell_centers(), 2.0)
            errs.append(float(np.sum(np.abs(res.snapshots[-1].values - exact)))
                        * grid.cell_volume)
        assert math.log2(errs[0] / errs[1]) >= 1.5

    def test_2d_smoke(self):
        p = diffusion_problem(N=60, L=6.0, n=2)
        res = sv.run(p, sv.SchemeConfig(t_end=0.5))
        masses = [m for _, m in res.mass_series]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]
        assert float(np.max(res.snapshots[-1].values)) < 1.0
        assert np.all(res.snapshots[-1].values >= 0)
