import dataclasses
import functools
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
from pmelab.errors import ConfigError, RunError


def gaussian(x):
    return np.exp(-np.sum(np.asarray(x) ** 2, axis=0))


def diffusion_problem(N=200, L=10.0, alpha=1.0, n=1, u0=gaussian):
    return pr.Problem(grid=pr.Grid(n=n, L=L, N=N), alpha=alpha, p0=1.0,
                      flux=pr.zero_flux_model(n), u0=u0)


def poison_step(monkeypatch, at: int, bad: float, cell) -> list[int]:
    """Make call number `at` of sv.step, on a 1-D grid, write `bad` into `cell` of
    its new values through the diffusion term, as a blow-up in that step would;
    returns the running count of calls. Further arguments (the run's scratch)
    pass through as they came."""
    real, calls = sv.step, [0]

    def step(state, p, dt, terms, *rest):
        calls[0] += 1
        if calls[0] == at:
            (dF, lapG), = terms
            lapG = lapG.copy()
            lapG[cell] = bad
            terms = [(dF, lapG)]
        return real(state, p, dt, terms, *rest)

    monkeypatch.setattr(sv, "step", step)
    return calls


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


def reference_step(u, t, dt, problem, halves):
    """The Engquist-Osher update written out longhand: a padded copy per axis
    and, at each interface, f+(u_l) + f-(u_r) from the closed-form halves
    (x, u) -> (n,) + shape(u) of the flux, called on the left and on the right
    states."""
    def cut(a, ax, start, stop):
        idx = [slice(None)] * a.ndim
        idx[ax] = slice(start, stop)
        return a[tuple(idx)]

    def pad1(a, ax):
        lo, hi = cut(a, ax, None, 1), cut(a, ax, -1, None)
        if problem.boundary_policy != "zero_flux":
            lo = hi = np.zeros_like(lo)
        return np.concatenate((lo, a, hi), axis=ax)

    grid = problem.grid
    fplus, fminus = halves
    G = np.abs(u) ** problem.alpha * u / (problem.alpha + 1.0)  # Kirchhoff transform
    new = u
    for ax in range(grid.n):
        axes = [grid.axis_interfaces() if b == ax else grid.axis_centers()
                for b in range(grid.n)]
        xi = np.stack(np.meshgrid(*axes, indexing="ij"))
        up = pad1(u, ax)
        ul, ur = cut(up, ax, None, -1), cut(up, ax, 1, None)
        fhat = fplus(xi, ul)[ax] + fminus(xi, ur)[ax]
        Gp = pad1(G, ax)
        new = (new - (dt / grid.dx) * np.diff(fhat, axis=ax)
               + (dt / grid.dx ** 2) * (cut(Gp, ax, 2, None) - 2.0 * cut(Gp, ax, 1, -1)
                                        + cut(Gp, ax, None, -2)))
    return new


def upwind_halves(c):
    return (lambda x, u: np.stack([max(cj, 0.0) * u for cj in c]),
            lambda x, u: np.stack([min(cj, 0.0) * u for cj in c]))


def burgers_halves(n):
    return (lambda x, u: np.stack([0.5 * np.maximum(u, 0.0) ** 2] * n),
            lambda x, u: np.stack([0.5 * np.minimum(u, 0.0) ** 2] * n))


def figure1_halves(k):
    def half(clip):
        return lambda x, u: (clip(-np.tanh(x[0]), 0.0) * (np.abs(u) ** k * u))[None]
    return half(np.maximum), half(np.minimum)


def zero_halves(n):
    zero = lambda x, u: np.zeros((n,) + np.shape(u))  # noqa: E731
    return zero, zero


def counting(flux, calls):
    """`flux` with its split's g counting its calls into calls["g"], and its
    split's a into calls["a"]."""
    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    split = flux.split
    return dataclasses.replace(flux, split=dataclasses.replace(
        split, a=counted("a", split.a), g=counted("g", split.g)))


def traced(flux, calls):
    """`flux` wrapped as bench/worker.py --trace 1 wraps it: f and df_du
    counting their calls into calls["f"], the split as it was."""
    def counted(fn):
        def wrapper(*args):
            calls["f"] = calls.get("f", 0) + 1
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
EO_HALVES = dict(zip(STEP_IDS, [
    figure1_halves(1.5), burgers_halves(1), upwind_halves((3.0,)), burgers_halves(2),
    upwind_halves((1.0, -2.0)), zero_halves(1), zero_halves(2)]))


class TestStepKernel:
    # the name is that of the LLF reference this one replaced, which made four
    # flux calls per axis; the reference is now the Engquist-Osher update.
    # alpha = 1 is the case whose |u|^alpha pass the step leaves out.
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("case", range(len(STEP_CASES)), ids=STEP_IDS)
    def test_equals_four_call_reference(self, case, boundary):
        n, flux, u0 = STEP_CASES[case]
        for alpha in (0.5, 1.0):
            p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=alpha,
                           p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
            s = pr.sample_initial(p)
            u = s.values
            cfg = sv.SchemeConfig(t_end=1.0)
            for _ in range(50):
                dt, terms = sv.stable_dt(s, p, cfg)
                u = reference_step(u, s.time, dt, p, EO_HALVES[STEP_IDS[case]])
                s = sv.step(s, p, dt, terms)
                assert np.array_equal(s.values, u), alpha

    @pytest.mark.parametrize("stacked", (False, True), ids=("unstacked", "stacked"))
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("case", range(len(STEP_CASES)), ids=STEP_IDS)
    def test_advance_equals_the_reference(self, case, boundary, stacked):
        # through advance: one plan for the whole run, its terms written in place
        # at every prepare, a landing on the way, and each branch of a stacked
        # state stepped as the reference steps it alone with the shared dt
        n, flux, u0 = STEP_CASES[case]
        amps = (-0.5, 1.0, 2.0) if stacked else (1.0,)
        for alpha in (0.5, 1.0):
            p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=alpha,
                           p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
            branches = [c * pr.sample_initial(p).values for c in amps]
            s = pr.State(values=np.stack(branches) if stacked else branches[0], time=0.0,
                         grid=p.grid)
            steps = 0
            for s, dt in sv.advance(s, p, sv.SchemeConfig(t_end=0.1, snapshot_times=(0.05,))):
                if dt is None:
                    continue
                branches = [reference_step(u, s.time, dt, p, EO_HALVES[STEP_IDS[case]])
                            for u in branches]
                steps += 1
                assert np.array_equal(s.values, np.stack(branches) if stacked else branches[0])
            assert steps > 5 and s.time == 0.1

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("case", range(len(STEP_CASES)), ids=STEP_IDS)
    def test_rate_is_the_largest_flux_slope(self, case, boundary):
        # lam_ax = max |df_du| over the left and right states of the interfaces,
        # from the sampled-check evaluator; bit for bit where a is constant (the
        # rate is taken per cell, which gives the same maximum)
        n, flux, u0 = STEP_CASES[case]
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
        s = pr.sample_initial(p)
        u, grid = s.values, p.grid
        lam = 0.0
        for ax in range(n):
            axes = [grid.axis_interfaces() if b == ax else grid.axis_centers()
                    for b in range(n)]
            xi = np.stack(np.meshgrid(*axes, indexing="ij"))
            lo, hi = np.take(u, [0], axis=ax), np.take(u, [-1], axis=ax)
            if boundary != "zero_flux":
                lo = hi = np.zeros_like(lo)
            up = np.concatenate((lo, u, hi), axis=ax)
            ul, ur = np.delete(up, -1, axis=ax), np.delete(up, 0, axis=ax)
            lam += float(np.max(np.maximum(np.abs(flux.df_du(xi, ul)[ax]),
                                           np.abs(flux.df_du(xi, ur)[ax])))) / grid.dx
        rate = lam + 2.0 * n * float(np.max(np.abs(u) ** 0.5)) / grid.dx ** 2
        dt, _ = sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        if flux.name == "figure1":
            assert dt == pytest.approx(1.0 / rate, rel=1e-14)
        else:
            assert dt == 1.0 / (rate + 1e-300)

    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_flux_calls_per_step(self, n, flux, u0):
        # stable_dt calls the split's g once per axis and step reuses what it
        # prepared; a is evaluated once per axis in the whole run
        calls = {}
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16), alpha=0.5,
                       p0=1.0, flux=counting(flux, calls), u0=u0)
        res = sv.run(p, sv.SchemeConfig(t_end=0.2))
        assert res.step_count > 0
        assert calls["g"] == n * res.step_count
        assert calls["a"] == n


def test_flux_without_split_cannot_be_stepped():
    # the split is a required field, so a flux without one cannot even be built
    burgers = pr.burgers_flux_model(1)
    with pytest.raises(TypeError, match="split"):
        pr.FluxModel(name="bare", f=burgers.f, df_du=burgers.df_du)


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("n", (1, 2))
def test_traced_evaluators_step_as_the_plain_model(n, boundary):
    # bench/worker.py --trace 1 replaces f and df_du by timed wrappers; the step
    # never calls them, so every catalog flux, the zero flux too, steps to the
    # same bits with the same steps, and the zero flux still skips advection
    grid = pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16)
    cfg = sv.SchemeConfig(t_end=0.2, snapshot_times=(0.1,))
    for name in sorted(pr.FLUX_CATALOG):
        if n == 2 and name == "figure1":
            continue
        plain, calls = pr.flux_from_config(name, None, n), {}
        runs = [sv.run(pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=flux,
                                  u0=lambda x: x[0] * np.exp(-np.sum(x ** 2, axis=0)),
                                  boundary_policy=boundary), cfg)
                for flux in (plain, traced(plain, calls))]
        assert calls == {}, name
        assert runs[0].step_count == runs[1].step_count > 0, name
        for a, b in zip(runs[0].snapshots, runs[1].snapshots):
            assert a.time == b.time and a.values.tobytes() == b.values.tobytes(), name
        p = pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=traced(plain, calls), u0=gaussian)
        _, terms = sv.stable_dt(pr.sample_initial(p), p, cfg)
        assert [dF is None for dF, _ in terms] == [name == "zero"] * n, name


def zeros_g(u, out):
    return np.zeros_like(u), None, np.zeros_like(u)


class TestZeroFluxSkip:
    """The catalog's zero flux skips the advective half of the step; the skip
    is taken by the identity of its split, so a flux with any other split is
    evaluated, and one whose evaluators alone are replaced is still skipped."""

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n", (1, 2))
    def test_evaluated_zero_flux_gives_the_same_bits(self, n, boundary):
        # -0.0 cells too: v - (dt/dx) * (+0.0) keeps the sign of v
        def u0(x):
            return np.where(x[0] > 1.0, -0.0, x[0] * np.exp(-np.sum(x ** 2, axis=0) / 4.0))

        calls = {}
        zero = pr.zero_flux_model(n)
        lookalike = dataclasses.replace(zero, split=pr.FluxSplit(
            a=lambda x: np.zeros(np.shape(x)), div_a=pr.ZERO_SPLIT.div_a, g=zeros_g))
        cfg = sv.SchemeConfig(t_end=0.5, snapshot_times=(0.1, 0.25))
        skipped, wrapped, alike, traced_zero = (
            sv.run(pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                              p0=1.0, flux=flux, u0=u0, boundary_policy=boundary), cfg)
            for flux in (zero, counting(zero, calls), lookalike, traced(zero, calls)))
        assert skipped.step_count > 0
        assert calls == {"a": n, "g": n * wrapped.step_count}
        for other in (wrapped, alike, traced_zero):
            assert other.step_count == skipped.step_count
            assert other.mass_series == skipped.mass_series
            assert other.boundary_mass_max == skipped.boundary_mass_max
            for a, b in zip(skipped.snapshots, other.snapshots):
                assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("n", (1, 2))
    def test_skip_is_by_identity_not_name(self, n):
        burgers, zero = pr.burgers_flux_model(n), pr.zero_flux_model(n)
        cases = {
            "catalog zero": (zero, True),
            "traced evaluators": (traced(zero, {}), True),
            "look-alike split": (dataclasses.replace(zero, split=pr.FluxSplit(
                a=pr.ZERO_SPLIT.a, div_a=pr.ZERO_SPLIT.div_a, g=pr.ZERO_SPLIT.g)), False),
            "named zero": (dataclasses.replace(burgers, name="zero"), False),
            "zero evaluators": (dataclasses.replace(burgers, name="zero",
                                                    f=pr.zero_evaluator,
                                                    df_du=pr.zero_evaluator), False),
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
            for flux in (cases["zero evaluators"][0], burgers, pr.zero_flux_model(n)))
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


def term_bytes(terms):
    return [tuple(None if a is None else a.tobytes() for a in term) for term in terms]


def assert_step_leaves_inputs(s, p):
    """step writes neither state.values nor the terms, so the same terms step
    the same state twice to the same bits."""
    cfg = sv.SchemeConfig(t_end=1.0)
    for _ in range(3):
        dt, terms = sv.stable_dt(s, p, cfg)
        values, before = s.values.tobytes(), term_bytes(terms)
        first = sv.step(s, p, dt, terms)
        assert s.values.tobytes() == values
        assert term_bytes(terms) == before
        assert sv.step(s, p, dt, terms).values.tobytes() == first.values.tobytes()
        s = first


class TestStepLeavesInputs:
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_unstacked(self, n, flux, u0, boundary):
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
        assert_step_leaves_inputs(pr.sample_initial(p), p)

    @pytest.mark.parametrize("case", (0, 3), ids=[STEP_IDS[0], STEP_IDS[3]])
    def test_stacked(self, case):
        n, flux, u0 = STEP_CASES[case]
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0)
        base = pr.sample_initial(p)
        stacked = np.stack([c * base.values for c in (-0.5, 1.0, 2.0)])
        assert_step_leaves_inputs(pr.State(values=stacked, time=0.0, grid=base.grid), p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("flux", [pr.zero_flux_model(1), pr.burgers_flux_model(1)],
                         ids=["zero", "burgers"])
@pytest.mark.parametrize("stacked", [False, True], ids=["unstacked", "stacked"])
def test_stable_dt_reports_a_non_finite_value(monkeypatch, bad, flux, stacked):
    # found in max|u|^a before any other arithmetic: not as an underflowed dt,
    # and without a numpy RuntimeWarning (an error under this suite's filters)
    p = pr.Problem(grid=pr.Grid(n=1, L=3.0, N=60), alpha=0.5, p0=1.0, flux=flux,
                   u0=lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0))
    s = pr.sample_initial(p)
    if stacked:
        s = pr.State(values=np.stack([s.values, 2.0 * s.values]), time=0.0, grid=p.grid)
    cfg = sv.SchemeConfig(t_end=1.0)
    poison_step(monkeypatch, 1, bad, (1, 7) if stacked else 7)
    s = sv.step(s, p, *sv.stable_dt(s, p, cfg))
    with pytest.raises(RunError, match=r"^non-finite value at cell \(7,\), t=") as exc:
        sv.stable_dt(s, p, cfg)
    assert exc.value.branch == (1 if stacked else None)


@pytest.mark.parametrize("case", range(len(STEP_CASES)), ids=STEP_IDS)
def test_states_own_their_values(case):
    # a State copies a caller's array; a stepped state is the step's own new
    # array, read-only, sharing memory with neither its input nor the terms
    n, flux, u0 = STEP_CASES[case]
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                   p0=1.0, flux=flux, u0=u0)
    mine = pr.sample_initial(p).values.copy()
    s = pr.State(values=mine, time=0.0, grid=p.grid)
    before = s.values.tobytes()
    mine += 1.0
    assert s.values.tobytes() == before and not s.values.flags.writeable
    dt, terms = sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0))
    new = sv.step(s, p, dt, terms).values
    assert not new.flags.writeable
    assert not np.shares_memory(new, s.values)
    for term in terms:
        assert not any(np.shares_memory(new, t) for t in term if t is not None)


def same_view(v, w):
    return v.__array_interface__ == w.__array_interface__


def test_axis_layout_follows_the_value_shape():
    # unstacked: every array C-contiguous with its axis first, axis 1 of 2-D too;
    # stacked: scratch as swapaxes views of arrays laid out as the values, and
    # coefficients with a singleton axis for the branches. The plan keeps the
    # slices each step takes, and sets dirichlet_zero ghost cells once.
    grid, N = pr.Grid(n=2, L=3.0, N=12), 12
    a = lambda x: np.tanh(x)  # noqa: E731
    for ax in (0, 1):
        k, Gp, Gmid, Ghi, Glo, lapG, adv = sv._axis(grid, ax, grid.shape, a, True)
        Up, Umid, gbuf, halves, reach, F, Fhi, Flo, tmp, tmp_lo, dF = adv
        (plus, left_up), (minus, left_down) = halves
        arrays = [Gp, Up, *gbuf, F, tmp, lapG, dF]
        assert k == ax
        assert all(v.flags.c_contiguous for v in arrays + [plus, minus, reach])
        assert [v.shape[0] for v in arrays] == [N + 2] * 5 + [N + 1] * 2 + [N] * 2
        assert all(same_view(v, w) for v, w in [
            (Gmid, Gp[1:-1]), (Ghi, Gp[2:]), (Glo, Gp[:-2]), (Umid, Up[1:-1]),
            (Fhi, F[1:]), (Flo, F[:-1]), (tmp_lo, tmp[:-1])])
        assert (left_up, left_down) == (False, True)
        assert all(not v.flags.writeable for v in (plus, minus, reach))
        assert [v.shape for v in (plus, minus, reach)] == [(N + 1, N), (N + 1, N), (N, N)]
        # component ax of a at the interfaces normal to ax, first along them; it
        # keeps its sign in every cell, so the reach is the larger |a| of the two faces
        want = np.broadcast_to(np.tanh(grid.axis_interfaces())[:, None], (N + 1, N))
        assert np.array_equal(plus + minus, want)
        assert np.array_equal(reach, np.maximum(abs(want[:-1]), abs(want[1:])))
        zero = sv._axis(grid, ax, grid.shape, None, False)
        assert zero[1].flags.c_contiguous and zero[-1] is None
        assert not zero[1][[0, -1]].any()  # dirichlet_zero ghosts, set once
        # a uniform coefficient is a float, and a half that a zeroes is left out
        uniform = sv._axis(grid, ax, grid.shape, lambda x: -2.0 * np.ones(np.shape(x)), True)
        assert uniform[-1][3:5] == ([(-2.0, True)], 2.0)
        k, Gp, *_, lapG, adv = sv._axis(grid, ax, (3,) + grid.shape, a, True)
        Up, _, gbuf, halves, reach, F, _, _, tmp, _, dF = adv
        assert k == ax + 1
        assert all(v.swapaxes(0, k).flags.c_contiguous for v in [Gp, Up, *gbuf, F, tmp, lapG, dF])
        (plus, _), (minus, _) = halves
        assert all(v.shape[k] == 1 and v.ndim == 3 for v in (plus, minus, reach))
    # the plan: G(u) in the middle of axis 0's padded G, and terms laid out as
    # the values, for a flux that advects and for the zero flux; alpha = 1 takes
    # no power
    for flux, shape in [(pr.burgers_flux_model(2), grid.shape),
                        (pr.zero_flux_model(2), (3,) + grid.shape)]:
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0, flux=flux, u0=gaussian)
        s = pr.State(values=np.ones(shape), time=0.0, grid=grid)
        (dx, dx2, buf), (b, two_n, power, alpha1, edge, G, axes, terms) = sv._scratch(s, p)
        assert (dx, dx2, b, two_n, power, alpha1, edge) == (
            grid.dx, grid.dx ** 2, len(shape) - 2, 4.0, None, 2.0, True)
        assert buf.shape == G.shape == shape and same_view(G, sv._first(axes[0][2], b))
        for (dF, lap), (k, *_, lapG, adv) in zip(terms, axes):
            assert lap.shape == shape and same_view(lap, sv._first(lapG, k))
            assert (dF is None) == (adv is None) == (flux.name == "zero")
            assert dF is None or dF.shape == shape and same_view(dF, sv._first(adv[-1], k))


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
    # f and df_du; here every call gets a fresh copy with a counted split g
    # and a, so no step may lean on the identity of the problem its stable_dt
    # saw. The run's scratch is built once from the problem that advance
    # received, so its split's a is called n times per run (own_calls) and
    # never on a copy (flux_calls). The sandwich steps its three branches as
    # one stacked state: one call each per lockstep step.
    calls = {"step": 0, "stable_dt": 0}
    flux_calls, own_calls = {}, {}
    cells = [0]

    def counted(name, fn):
        def wrapper(state, p, *rest):
            calls[name] += 1
            cells[0] += state.values.size if name == "step" else 0
            return fn(state, dataclasses.replace(p, flux=counting(p.flux, flux_calls)), *rest)
        return wrapper

    p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=80), alpha=1.0, p0=1.0,
                   flux=counting(pr.burgers_flux_model(1), own_calls),
                   u0=lambda x: x[0] * np.exp(-x[0] ** 2))
    n = p.grid.n
    cfg = sv.SchemeConfig(t_end=0.5, snapshot_times=(0.1, 0.25))
    sandwich = (p, 0.1, lambda x: np.ones(x.shape[1:]), sv.SchemeConfig(t_end=0.5))
    plain, plain_rep = sv.run(p, cfg), hz.run_sandwich(*sandwich)
    own_calls.clear()

    monkeypatch.setattr(sv, "step", counted("step", sv.step))
    monkeypatch.setattr(sv, "stable_dt", counted("stable_dt", sv.stable_dt))
    res = sv.run(p, cfg)
    assert calls == {"step": res.step_count, "stable_dt": res.step_count}
    assert flux_calls == {"g": n * res.step_count}
    assert own_calls == {"a": n, "g": n * res.step_count}
    assert res.step_count == plain.step_count and len(res.snapshots) == 3
    for a, b in zip(res.snapshots, plain.snapshots):
        assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    calls.update(step=0, stable_dt=0)
    flux_calls.clear()
    own_calls.clear()
    cells[0] = 0
    rep = hz.run_sandwich(*sandwich)
    assert rep.step_count > 0
    assert calls == {"step": rep.step_count, "stable_dt": rep.step_count}
    assert flux_calls == {"g": n * rep.step_count}
    assert own_calls == {"a": n, "g": n * rep.step_count}
    assert cells[0] == 3 * p.grid.N * rep.step_count
    assert rep == plain_rep


def test_burgers_jump_step_keeps_order():
    # u0 = 10 | -10 and v0 = u0 + 0.01 in cell 9, one shared step at cfl 0.9:
    # an interface flux whose dF/du_l can exceed lam (LLF's can reach 2 lam at
    # a jump) gave (v - u)[9] = -1.69e-4, so ordered data crossed
    grid = pr.Grid(n=1, L=3.0, N=20)
    p = pr.Problem(grid=grid, alpha=1.0, p0=1.0, flux=pr.burgers_flux_model(1),
                   u0=lambda x: np.where(x[0] < 0.0, 10.0, -10.0))
    u = pr.sample_initial(p).values
    v = u.copy()
    v[9] += 0.01
    s = pr.State(values=np.stack([u, v]), time=0.0, grid=grid)
    dt, terms = sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
    new = sv.step(s, p, dt, terms).values
    assert dt == pytest.approx(3.518e-3, rel=1e-3)
    assert float(np.min(new[1] - new[0])) >= 0.0


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_step_jacobian_is_nonnegative(data):
    # monotone means d(step u)_i/du_j >= 0 for all i, j (Crandall & Majda,
    # Math. Comp. 34, 1980): u and its one-cell perturbations by h step as one
    # stacked state, under one shared dt, and every difference quotient is >= 0
    n = data.draw(st.sampled_from((1, 2)), label="n")
    name = data.draw(st.sampled_from(
        [k for k in sorted(pr.FLUX_CATALOG) if n == 1 or k != "figure1"]), label="flux")
    params = ({"c": data.draw(st.floats(-5.0, 5.0), label="c")} if name == "linear" else
              {"k": data.draw(st.floats(0.5, 2.5), label="k")} if name == "figure1" else {})
    boundary = data.draw(st.sampled_from(pr.BOUNDARY_POLICIES), label="boundary")
    alpha = data.draw(st.floats(0.3, 3.0), label="alpha")
    grid = pr.Grid(n=n, L=3.0, N=20 if n == 1 else 6)
    x = grid.cell_centers()
    if data.draw(st.booleans(), label="jumps"):
        # piecewise constant along x0 (2-D: along x0 + x1) with two jumps
        levels = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
                           label="levels")
        cuts = sorted(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
                                label="cuts"))
        u = np.asarray(levels)[np.digitize(np.sum(x, axis=0) / n, cuts)]
    else:
        amp = data.draw(st.floats(-10.0, 10.0), label="amp")
        width = data.draw(st.floats(0.3, 2.0), label="width")
        u = amp * np.exp(-np.sum(x ** 2, axis=0) / width ** 2)
    p = pr.Problem(grid=grid, alpha=alpha, p0=1.0, flux=pr.flux_from_config(name, params, n),
                   u0=gaussian, boundary_policy=boundary)
    assert_monotone_step(p, u)


def assert_monotone_step(p, u, h=1e-3):
    """u and its one-cell perturbations by h step as one stacked state, under
    one shared dt at cfl 0.9, and every difference quotient is >= 0."""
    grid, cells = p.grid, u.size
    stacked = np.repeat(u[None], cells + 1, axis=0).reshape(cells + 1, cells)
    stacked[1:] += h * np.eye(cells)
    s = pr.State(values=stacked.reshape((cells + 1,) + grid.shape), time=0.0, grid=grid)
    dt, terms = sv.stable_dt(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
    new = sv.step(s, p, dt, terms).values.reshape(cells + 1, cells)
    jac = (new[1:] - new[0]) / h  # row j: the response to a bump in cell j
    j, i = np.unravel_index(int(jac.argmin()), jac.shape)
    assert jac[j, i] >= -1e-9, (jac[j, i], int(i), int(j), u.ravel()[[i, j]].tolist())


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
def test_a_turning_sign_inside_a_cell_keeps_the_step_monotone(boundary):
    # a = tanh(20 x) on an odd grid turns from -1 to +1 inside the middle cell,
    # which then loses g = u through both faces: its diagonal entry is
    # 1 - dt/dx (|a_l| + |a_r|), below 0 if the rate took only the larger |a|
    linear = pr.linear_flux_model(1.0, 1)
    flux = dataclasses.replace(linear, split=dataclasses.replace(
        linear.split, a=lambda x: np.tanh(20.0 * x)))
    p = pr.Problem(grid=pr.Grid(n=1, L=3.0, N=21), alpha=1.0, p0=1.0, flux=flux,
                   u0=gaussian, boundary_policy=boundary)
    assert_monotone_step(p, pr.sample_initial(p).values)


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

    def test_blowup_names_the_step(self, nan_below_flux):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=100), alpha=1.0, p0=1.0,
                       flux=nan_below_flux, u0=lambda x: -0.5 * gaussian(x))
        with pytest.raises(RunError, match=r"step 1\b.*non-finite value"):
            sv.run(p, sv.SchemeConfig(t_end=1.0))

    def test_bad_derivative_names_the_step(self, nan_below_derivative):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=100), alpha=1.0, p0=1.0,
                       flux=nan_below_derivative, u0=lambda x: -0.5 * gaussian(x))
        with pytest.raises(RunError, match=r"step 1\b.*non-finite flux derivative"):
            sv.run(p, sv.SchemeConfig(t_end=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("last", [False, True], ids=["mid-run", "last-step"])
    def test_blowup_is_named_by_the_step_that_made_it(self, monkeypatch, bad, last):
        # a stepped state is not scanned: the next prepare finds the value in
        # max|u|^a, or the State built at the landing after the last step does
        p = diffusion_problem(N=100)
        cfg = sv.SchemeConfig(t_end=0.2)
        total = sv.run(p, cfg).step_count
        assert total >= 3
        at = total if last else total // 2
        calls = poison_step(monkeypatch, at, bad, 7)
        with pytest.raises(RunError, match=rf"^step {at}: non-finite value at cell \(7,\)") as exc:
            sv.run(p, cfg)
        assert calls == [at]
        assert str(exc.value).endswith("t=0.2") == last

    def test_stacked_blowup_names_its_branch_at_the_landing(self, monkeypatch):
        p = diffusion_problem(N=100)
        base = pr.sample_initial(p).values
        stack = pr.State(values=np.stack([0.5 * base, base, 2.0 * base]), time=0.0, grid=p.grid)
        cfg = sv.SchemeConfig(t_end=0.2)
        total = sum(dt is not None for _, dt in sv.advance(stack, p, cfg))
        poison_step(monkeypatch, total, np.inf, (1, 7))
        with pytest.raises(RunError, match=rf"^step {total}, middle branch: "
                                           rf"non-finite value at cell \(7,\), t=0.2$") as exc:
            for _ in sv.advance(stack, p, cfg, names=("lower", "middle", "upper")):
                pass
        assert exc.value.__cause__.branch == 1

    @pytest.mark.parametrize("last", [False, True], ids=["mid-run", "last-step"])
    def test_advance_yields_no_unchecked_state(self, monkeypatch, last):
        # the state a poisoned step makes is never yielded: advance raises at the
        # next prepare or at the landing, having yielded only finite states
        p = diffusion_problem(N=100)
        cfg = sv.SchemeConfig(t_end=0.2, snapshot_times=(0.1,))
        total = sv.run(p, cfg).step_count
        at = total if last else total // 2
        poison_step(monkeypatch, at, np.inf, 7)
        seen = []
        with pytest.raises(RunError, match=rf"^step {at}: non-finite value at cell \(7,\)"):
            for s, dt in sv.advance(pr.sample_initial(p), p, cfg):
                seen.append((dt is not None, bool(np.isfinite(s.values).all())))
        assert all(finite for _, finite in seen)
        assert sum(stepped for stepped, _ in seen) == at - 1

    @pytest.mark.parametrize("last", [False, True], ids=["mid-run", "last-step"])
    def test_sandwich_blowup_is_named_before_any_audit(self, monkeypatch, last):
        # a step that makes the lower and middle branches +inf at one cell: the
        # sandwich's ordering audit never sees inf - inf (a RuntimeWarning,
        # an error under this suite's filters) and the run raises the labelled error
        p = diffusion_problem(N=100)
        sandwich = (p, 0.1, lambda x: np.ones(x.shape[1:]), sv.SchemeConfig(t_end=0.2))
        total = hz.run_sandwich(*sandwich).step_count
        at = total if last else total // 2
        poison_step(monkeypatch, at, np.inf, (slice(0, 2), 7))
        with pytest.raises(RunError, match=rf"^step {at}, lower branch: "
                                           rf"non-finite value at cell \(7,\)"):
            hz.run_sandwich(*sandwich)

    def test_landing_shares_the_stepped_array(self):
        p = diffusion_problem(N=100)
        last = landings = 0
        for s, dt in sv.advance(pr.sample_initial(p), p,
                                sv.SchemeConfig(t_end=0.2, snapshot_times=(0.1,))):
            if dt is None:
                assert s.values is last.values and not s.values.flags.writeable
                landings += 1
            last = s
        assert landings == 2

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


def per_state_audit(p, cfg):
    """`run`'s audit taken state by state over `advance`, as before it was
    reduced per block: the mass series and each state's boundary-mass share."""
    state = pr.sample_initial(p)
    volume = state.grid.cell_volume
    edge = np.ones(state.grid.shape, dtype=bool)
    edge[(slice(1, -1),) * state.grid.n] = False
    edge = np.flatnonzero(edge)

    def audit(values):
        a = np.abs(values)
        return float(a.sum()) * volume, float(a.take(edge).sum()) * volume

    mass0, boundary0 = audit(state.values)
    series = [(0.0, mass0)]
    scale = mass0 if mass0 > 0 else 1.0
    shares = [boundary0 / scale]
    for state, dt in sv.advance(state, p, cfg):
        if dt is not None:
            mass, boundary = audit(state.values)
            series.append((state.time, mass))
            shares.append(boundary / scale)
    return series, shares


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("n, N, t_end", [(1, 40, 0.5), (2, 12, 0.5), (2, 100, 0.01)],
                         ids=["1d", "2d", "2d-rows-past-8192"])
def test_block_audit_equals_the_per_state_audit(monkeypatch, n, N, t_end, boundary):
    # blocks of 1, 2 and 3 rows, of all states but one, of exactly all of
    # them, and the default block: every mass, the boundary maximum and the
    # flag as a per-state audit gives them, bit for bit; advection towards
    # the walls from data that reach them. Rows of 10,000 values are longer
    # than numpy's ufunc buffer (np.getbufsize(), 8192 by default).
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=N), alpha=1.0, p0=1.0,
                   flux=pr.linear_flux_model(1.0, n),
                   u0=lambda x: np.exp(-np.sum(x ** 2, axis=0) / 4.0),
                   boundary_policy=boundary)
    cfg = sv.SchemeConfig(t_end=t_end, snapshot_times=(t_end / 2,))
    series, shares = per_state_audit(p, cfg)
    states, worst = len(series), max(shares)
    assert states > 4 and worst > sv.BOUNDARY_MASS_THRESHOLD
    if boundary == "zero_flux":  # the largest share is the last state's alone
        assert shares[-1] == worst > max(shares[:-1])
    size = p.grid.N ** n
    for rows in (1, 2, 3, states - 1, states, None):
        if rows is not None:
            monkeypatch.setattr(sv, "AUDIT_BLOCK", rows * size)
        res = sv.run(p, cfg)
        assert res.step_count == states - 1
        assert [(t.hex(), m.hex()) for t, m in res.mass_series] == [
            (t.hex(), m.hex()) for t, m in series], rows
        assert res.boundary_mass_max.hex() == worst.hex() and res.boundary_flagged


class TestBarenblattConvergence:
    def test_first_order_on_refinement(self):
        _, orders = hz.refinement_study(
            {"L": "10", "flux": "zero", "u0": "barenblatt C=1 t=1"}, (100, 200, 400),
            functools.partial(bb.evaluate, bb.BarenblattProfile(n=1, alpha=1.0)), 1.0, 2.0)
        assert min(orders) >= 0.9

    def test_2d_refinement_order(self):
        _, (order,) = hz.refinement_study(
            {"n": "2", "L": "6", "flux": "zero", "u0": "barenblatt C=1 t=1"}, (40, 80),
            functools.partial(bb.evaluate, bb.BarenblattProfile(n=2, alpha=1.0)), 1.0, 2.0)
        assert order >= 1.5

    def test_2d_smoke(self):
        p = diffusion_problem(N=60, L=6.0, n=2)
        res = sv.run(p, sv.SchemeConfig(t_end=0.5))
        masses = [m for _, m in res.mass_series]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]
        assert float(np.max(res.snapshots[-1].values)) < 1.0
        assert np.all(res.snapshots[-1].values >= 0)
