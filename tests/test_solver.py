import dataclasses
import functools
import math
import re
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


def prepared(state, p, cfg=None):
    """(dt, plan): a fresh plan for `state`, prepared by its stable_dt under cfg
    (t_end 1 by default); the plan's terms are plan[-1]."""
    plan = sv.plan(state, p)
    return sv.stable_dt(state, p, cfg or sv.SchemeConfig(t_end=1.0), plan), plan


def stepped_masses(p, cfg):
    """The signed mass of the initial state and of each stepped one of a run,
    state by state."""
    s = pr.sample_initial(p)
    states = [s] + [s for s, dt in sv.advance(s, p, cfg, sv.plan(s, p)) if dt is not None]
    return [float(np.sum(s.values)) * s.grid.cell_volume for s in states]


def poison_step(monkeypatch, at: int, bad: float, cell) -> list[int]:
    """Make call number `at` of sv.step, on a 1-D grid, write `bad` into `cell` of
    its new values through the diffusion term, as a blow-up in that step would,
    by writing `bad` into the plan's own lapG in place, which the plan's next
    prepare rewrites; returns the running count of calls."""
    real, calls = sv.step, [0]

    def step(state, p, dt, plan):
        calls[0] += 1
        if calls[0] == at:
            (_, lapG), = plan[-1]
            lapG[cell] = bad
        return real(state, p, dt, plan)

    monkeypatch.setattr(sv, "step", step)
    return calls


def burgers_along(a):
    """Burgers' g carried by a divergence-free coefficient a(x) of shape (2,) +
    cells: f_j = a_j(x) u^2/2."""
    return pr.FluxModel(
        name="burgers-along", f=lambda x, u: a(x) * (0.5 * np.asarray(u, dtype=float) ** 2),
        df_du=lambda x, u: a(x) * np.asarray(u, dtype=float),
        a=a, div_a=lambda x: np.zeros(np.shape(x)[1:]), g=pr.burgers_flux_model(2).g)


def along(c0, c1):
    """The constant coefficient a(x) = (c0, c1) of shape (2,) + cells."""
    return lambda x: np.stack([np.full(np.shape(x)[1:], c0), np.full(np.shape(x)[1:], c1)])


class TestStableDt:
    def test_pure_diffusion_formula(self):
        # dx = 0.1, alpha = 1, max|u| = 2  ->  dt = cfl * dx^2 / (2*1*2)
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = diffusion_problem(N=200)
        u = np.full(grid.shape, 2.0)
        state = pr.State(values=u, time=0.0, grid=grid)
        dt, _ = prepared(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
        assert dt == pytest.approx(0.9 * 0.1 ** 2 / 4.0, rel=1e-9)

    def test_advection_dominates(self):
        # linear flux c=5 with tiny u: the monotone rule 1/(c/dx + 2 max|u|/dx^2)
        # is set almost wholly by advection
        grid = pr.Grid(n=1, L=10.0, N=200)
        p = pr.Problem(grid=grid, alpha=1.0, p0=1.0,
                       flux=pr.linear_flux_model(5.0, 1),
                       u0=lambda x: 1e-6 * gaussian(x))
        state = pr.sample_initial(p)
        dt, _ = prepared(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        umax = float(np.max(np.abs(state.values)))
        assert dt == pytest.approx(1.0 / (5.0 / 0.1 + 2.0 * umax / 0.01), rel=1e-12)

    def test_2d_halves_diffusive_bound(self):
        grid = pr.Grid(n=2, L=10.0, N=200)
        p = diffusion_problem(N=200, n=2, u0=lambda x: np.ones(x.shape[1:]))
        state = pr.sample_initial(p)
        dt, _ = prepared(state, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        assert dt == pytest.approx(0.1 ** 2 / 4.0, rel=1e-9)

    def test_zero_state_finite(self):
        p = diffusion_problem(u0=lambda x: np.zeros(x.shape[1:]))
        state = pr.sample_initial(p)
        dt, _ = prepared(state, p)
        assert math.isfinite(dt) and dt > 0


class TestStep:
    def test_zero_state_fixed_point(self):
        p = diffusion_problem(N=64, u0=lambda x: np.zeros(x.shape[1:]))
        s = pr.sample_initial(p)
        s1 = sv.step(s, p, 1e-4, prepared(s, p)[1])
        assert np.all(s1.values == 0)
        assert s1.time == pytest.approx(1e-4)

    def test_constant_state_zero_flux_fixed_point(self):
        p = diffusion_problem(N=64, u0=lambda x: np.full(x.shape[1:], 0.7))
        s = pr.sample_initial(p)
        s1 = sv.step(s, p, 1e-4, prepared(s, p)[1])
        assert s1.values == pytest.approx(np.full(64, 0.7), abs=1e-15)

    def test_mass_conservation(self):
        p = diffusion_problem(N=200)
        masses = stepped_masses(p, sv.SchemeConfig(t_end=1.0))
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]

    def test_mass_conservation_with_advection(self):
        p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=200), alpha=1.0, p0=1.0,
                       flux=pr.burgers_flux_model(1), u0=gaussian)
        masses = stepped_masses(p, sv.SchemeConfig(t_end=0.5))
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
            (dt_lo, lo_plan), (dt_hi, hi_plan) = prepared(lo, p, cfg), prepared(hi, p, cfg)
            dt = min(dt_lo, dt_hi)
            lo = sv.step(lo, p, dt, lo_plan)
            hi = sv.step(hi, p, dt, hi_plan)
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
            (dt_mid, mid_plan), (dt_hi, hi_plan) = prepared(mid, p, cfg), prepared(hi, p, cfg)
            dt = min(dt_mid, dt_hi)
            mid = sv.step(mid, p, dt, mid_plan)
            hi = sv.step(hi, p, dt, hi_plan)
            assert np.all(hi.values - mid.values >= -1e-12)


    @pytest.mark.parametrize("flux2, flux1, vary", [
        (burgers_along(along(1.0, 0.0)), pr.burgers_flux_model(1), 0),
        (burgers_along(along(0.0, 1.0)), pr.burgers_flux_model(1), 1),
        (pr.linear_flux_model((1.0, 0.0), 2), pr.linear_flux_model(1.0, 1), 0),
        (pr.linear_flux_model((0.0, -2.0), 2), pr.linear_flux_model(-2.0, 1), 1),
    ])
    def test_2d_state_constant_along_one_axis_steps_as_1d(self, flux2, flux1, vary):
        # u varies only along axis `vary`, and the flux has no component across
        # it, so the other axis contributes nothing: no flux carries mass to
        # the walls across it, whatever the wall does with it
        N, dt = 80, 0.005
        grid1, grid2 = pr.Grid(n=1, L=10.0, N=N), pr.Grid(n=2, L=10.0, N=N)
        p1 = pr.Problem(grid=grid1, alpha=1.0, p0=1.0, flux=flux1, u0=gaussian)
        p2 = pr.Problem(grid=grid2, alpha=1.0, p0=1.0, flux=flux2, u0=gaussian)
        s1 = pr.sample_initial(p1)
        spread = (slice(None), None) if vary == 0 else (None, slice(None))
        s2 = pr.State(values=np.broadcast_to(s1.values[spread], grid2.shape),
                      time=0.0, grid=grid2)
        for _ in range(50):
            s1, s2 = sv.step(s1, p1, dt, prepared(s1, p1)[1]), sv.step(s2, p2, dt, prepared(s2, p2)[1])
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
    """`flux` with its g counting its calls into calls["g"], and its a into
    calls["a"]."""
    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    return dataclasses.replace(flux, a=counted("a", flux.a), g=counted("g", flux.g))


def traced(flux, calls):
    """`flux` wrapped as bench/worker.py --trace 1 wraps it: f and df_du
    counting their calls into calls["f"], a, div_a and g as they were."""
    def counted(fn):
        def wrapper(*args):
            calls["f"] = calls.get("f", 0) + 1
            return fn(*args)
        return wrapper

    return dataclasses.replace(flux, f=counted(flux.f), df_du=counted(flux.df_du))


def burgers_along_halves(a):
    """f+ = a+ g_up + a- g_down and f- = a- g_up + a+ g_down of burgers_along(a).
    They sum to the step's flux bit for bit where no interface has u of both
    signs on its two sides, as for single-signed data."""
    def half(c_up, c_down):
        return lambda x, u: c_up(a(x), 0.0) * up(x, u)[0] + c_down(a(x), 0.0) * down(x, u)[0]

    up, down = burgers_halves(1)
    return half(np.maximum, np.minimum), half(np.minimum, np.maximum)


# a changes sign along both axes: an array reach on both, both halves of a kept
def swirl(x):
    return np.stack([np.tanh(x[1]), -np.tanh(x[0])])


# an array reach along axis 0 and the uniform reach 1 along axis 1
def shear(x):
    return np.stack([np.tanh(x[1]), np.ones(np.shape(x)[1:])])


# u0 reaches the walls of [-3, 3], so the two boundary policies differ
STEP_IDS = ["figure1-1d", "burgers-1d", "linear-1d", "burgers-2d", "linear-2d",
            "zero-1d", "zero-2d", "swirl-2d", "shear-2d", "linear-unit-1d", "linear-c0-1d",
            "linear-axis0-2d"]
STEP_CASES = [
    (1, pr.figure1_flux_model(1.5), lambda x: np.exp(-x[0] ** 2 / 4.0)),
    (1, pr.burgers_flux_model(1), lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0)),
    (1, pr.linear_flux_model(3.0, 1), lambda x: np.exp(-(x[0] - 1.0) ** 2 / 4.0)),
    (2, pr.burgers_flux_model(2), lambda x: x[0] * np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (2, pr.linear_flux_model((1.0, -2.0), 2),
     lambda x: np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (1, pr.zero_flux_model(1), lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0)),
    (2, pr.zero_flux_model(2), lambda x: x[1] * np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (2, burgers_along(swirl), lambda x: np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    (2, burgers_along(shear), lambda x: np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
    # the coefficient 1.0 with g_down None: F is a copy of g_up, with no product
    (1, pr.linear_flux_model(1.0, 1), lambda x: np.exp(-(x[0] - 1.0) ** 2 / 4.0)),
    # a is 0 on every interface of an axis, which then does not advect: on the
    # one axis of 1-D, and on axis 1 of 2-D while axis 0 advects
    (1, pr.linear_flux_model(0.0, 1), lambda x: x[0] * np.exp(-x[0] ** 2 / 4.0)),
    (2, pr.linear_flux_model((-1.5, 0.0), 2),
     lambda x: x[1] * np.exp(-np.sum(x ** 2, axis=0) / 4.0)),
]
EO_HALVES = dict(zip(STEP_IDS, [
    figure1_halves(1.5), burgers_halves(1), upwind_halves((3.0,)), burgers_halves(2),
    upwind_halves((1.0, -2.0)), zero_halves(1), zero_halves(2), burgers_along_halves(swirl),
    burgers_along_halves(shear), upwind_halves((1.0,)), upwind_halves((0.0,)),
    upwind_halves((-1.5, 0.0))]))
# the STEP_CASES whose a is 0 on the grid: they advect along no axis
STILL_IDS = ("zero-1d", "zero-2d", "linear-c0-1d")


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
                dt, plan = prepared(s, p, cfg)
                u = reference_step(u, s.time, dt, p, EO_HALVES[STEP_IDS[case]])
                s = sv.step(s, p, dt, plan)
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
        # alpha = 1 and 3 take G's division by alpha + 1 (2, 4) as a product by
        # its reciprocal; alpha = 0.5 and 2 divide
        for alpha in (0.5, 1.0, 2.0, 3.0):
            p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=alpha,
                           p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
            branches = [c * pr.sample_initial(p).values for c in amps]
            s = pr.State(values=np.stack(branches) if stacked else branches[0], time=0.0,
                         grid=p.grid)
            steps = 0
            # at alpha > 1 a smaller CFL factor keeps more than 5 steps where |u| < 1
            cfg = sv.SchemeConfig(t_end=0.1, snapshot_times=(0.05,),
                                  cfl_safety=0.9 if alpha <= 1 else 0.5)
            for s, dt in sv.advance(s, p, cfg, sv.plan(s, p)):
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
        dt, _ = prepared(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=1.0))
        if flux.name == "figure1":
            assert dt == pytest.approx(1.0 / rate, rel=1e-14)
        else:
            assert dt == 1.0 / (rate + 1e-300)

    @pytest.mark.parametrize("case", range(len(STEP_CASES)), ids=STEP_IDS)
    def test_flux_calls_per_step(self, case):
        # stable_dt calls g once, on the whole padded state, for every axis, and
        # step reuses what it prepared; a flux whose a is 0 on the grid advects
        # along no axis and calls no g; a is evaluated once per axis in the whole run
        n, flux, u0 = STEP_CASES[case]
        calls = {}
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16), alpha=0.5,
                       p0=1.0, flux=counting(flux, calls), u0=u0)
        res = sv.run(p, sv.SchemeConfig(t_end=0.2))
        assert res.step_count > 0
        assert calls.get("g", 0) == (0 if STEP_IDS[case] in STILL_IDS else res.step_count)
        assert calls["a"] == n


# compact 1-D data on [-2, 2], N = 40, whose cells that are exactly +0.0 the
# zero-flux step leaves out until the support reaches them
def _spike(x):
    return np.where(np.arange(x.shape[1]) == 17, 1.0, 0.0)


def _signed_zeros(x):
    # a negative bump with +0.0 on both sides, then a stretch of -0.0 cells
    bump = -np.maximum(1.0 - (2.0 * (x[0] + 0.5)) ** 2, 0.0)
    return np.where(x[0] > 1.0, -0.0, np.where(np.abs(x[0] + 0.5) < 0.5, bump, 0.0))


COMPACT = {
    "barenblatt": lambda alpha: lambda x: bb.evaluate(
        bb.BarenblattProfile(n=1, alpha=alpha, C=0.5), x[0], 0.05),
    "spike": lambda alpha: _spike,
    "signed-zeros": lambda alpha: _signed_zeros,
    "all-zero": lambda alpha: lambda x: np.zeros(x.shape[1:]),
}


def reference_dt(u, p, cfg):
    """cfl / (2 max|u|^alpha / dx^2), the 1-D zero-flux stable dt written out."""
    return cfg.cfl_safety / (2.0 * float(np.max(np.abs(u) ** p.alpha)) / p.grid.dx ** 2
                             + 1e-300)


def reference_outflow(u, p, dt, outflow):
    """Adds dt times the diffusive flux out through each wall: 0 for an edge
    copy, G at the edge cell over dx for a dirichlet_zero ghost."""
    if p.boundary_policy == "zero_flux":
        return
    G = np.abs(u) ** p.alpha * u / (p.alpha + 1.0)
    outflow[0] += dt * (1.0 * ((G[0] - 0.0) / p.grid.dx - 0.0))
    outflow[1] += dt * (1.0 * (0.0 + (G[-1] - 0.0) / p.grid.dx))


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, 3.0))
@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("data", COMPACT)
def test_compact_data_step_as_the_reference(data, boundary, alpha):
    # the zero-flux step of 1-D compact data, through advance and a landing:
    # every state (signed zeros too), every dt and the wall outflow bit for bit
    p = pr.Problem(grid=pr.Grid(n=1, L=2.0, N=40), alpha=alpha, p0=1.0,
                   flux=pr.zero_flux_model(1), u0=COMPACT[data](alpha), boundary_policy=boundary)
    cfg = sv.SchemeConfig(t_end=1.0, snapshot_times=(0.1,), cfl_safety=0.9 if alpha <= 1 else 0.5)
    s = pr.sample_initial(p)
    u, t, pending, outflow, steps = s.values, 0.0, [0.1, 1.0], [0.0, 0.0], 0
    work = sv.plan(s, p)
    for s, dt in sv.advance(s, p, cfg, work):
        if dt is None:
            t = pending.pop(0)
            continue
        ref_dt = reference_dt(u, p, cfg)
        assert dt == (ref_dt if ref_dt <= pending[0] - t else pending[0] - t), steps
        reference_outflow(u, p, dt, outflow)
        u, t, steps = reference_step(u, t, dt, p, zero_halves(1)), t + dt, steps + 1
        assert s.values.tobytes() == u.tobytes(), steps
    # all zero: a dt of about cfl/1e-300 reaches each landing in one step
    assert steps == 2 if data == "all-zero" else steps > 5
    assert s.time == 1.0 and [list(map(float.hex, o)) for o in work[2]] == [
        list(map(float.hex, outflow))]
    if data == "barenblatt":  # the support grew from inside the box to both walls
        first = pr.sample_initial(p).values
        assert first[0] == first[-1] == 0.0 and u[0] != 0.0 and u[-1] != 0.0


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
def test_a_state_the_plan_did_not_make_steps_as_the_reference(boundary):
    # in the middle of a chain the plan is handed a state with a wider support
    # than the cells it has stepped so far; it must find that support again
    p = pr.Problem(grid=pr.Grid(n=1, L=2.0, N=40), alpha=1.0, p0=1.0,
                   flux=pr.zero_flux_model(1), u0=_spike, boundary_policy=boundary)
    cfg = sv.SchemeConfig(t_end=1.0)
    s = pr.sample_initial(p)
    work = sv.plan(s, p)
    for _ in range(3):
        s = sv.step(s, p, sv.stable_dt(s, p, cfg, work), work)
    x = p.grid.cell_centers()[0]
    s = pr.State(values=np.maximum(1.0 - x ** 2, 0.0), time=s.time, grid=p.grid)
    u = s.values
    for k in range(10):
        dt = sv.stable_dt(s, p, cfg, work)
        assert dt == reference_dt(u, p, cfg), k
        u, s = reference_step(u, s.time, dt, p, zero_halves(1)), sv.step(s, p, dt, work)
        assert s.values.tobytes() == u.tobytes(), k


def test_flux_without_split_cannot_be_stepped():
    # a, div_a and g, the split the solver steps, are required fields, so a flux
    # without any one of them cannot even be built, and the error names it
    burgers = pr.burgers_flux_model(1)
    fields = dict(name="bare", a=burgers.a, div_a=burgers.div_a, g=burgers.g, f=burgers.f,
                  df_du=burgers.df_du)
    for missing in ("a", "div_a", "g"):
        with pytest.raises(TypeError, match=f"'{missing}'"):
            pr.FluxModel(**{k: v for k, v in fields.items() if k != missing})


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
        terms = prepared(pr.sample_initial(p), p, cfg)[1][-1]
        assert [dF is None for dF, _ in terms] == [name == "zero"] * n, name


def zeros_g(u, out):
    return np.zeros_like(u), None, np.zeros_like(u)


class TestZeroFluxSkip:
    """An axis whose a is 0 on every interface does not advect, and a flux that
    advects along no axis calls no g. The skip is decided by a's values on the
    grid, never by the flux's name or identity."""

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n", (1, 2))
    def test_evaluated_zero_flux_gives_the_same_bits(self, n, boundary):
        # every flux that is 0 on the grid steps to the same bits, step count and
        # outflow, and calls no g: the catalog zero flux, a counted copy, a
        # look-alike with its own g and a traced copy. -0.0 cells too:
        # v - (dt/dx) * (+0.0) keeps the sign of v
        def u0(x):
            return np.where(x[0] > 1.0, -0.0, x[0] * np.exp(-np.sum(x ** 2, axis=0) / 4.0))

        calls = {}
        zero = pr.zero_flux_model(n)
        lookalike = dataclasses.replace(zero, a=lambda x: np.zeros(np.shape(x)), g=zeros_g)
        cfg = sv.SchemeConfig(t_end=0.5, snapshot_times=(0.1, 0.25))
        skipped, *others = (
            sv.run(pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                              p0=1.0, flux=flux, u0=u0, boundary_policy=boundary), cfg)
            for flux in (zero, counting(zero, calls), counting(lookalike, calls),
                         traced(zero, calls)))
        assert skipped.step_count > 0
        assert calls == {"a": 2 * n}  # a once per axis of each counted copy, g never
        for other in others:
            assert other.step_count == skipped.step_count
            assert other.wall_outflow == skipped.wall_outflow
            for a, b in zip(skipped.snapshots, other.snapshots):
                assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("n", (1, 2))
    def test_skip_is_by_a_on_the_grid_not_name_or_identity(self, n):
        burgers, zero = pr.burgers_flux_model(n), pr.zero_flux_model(n)
        # a is 0 on [-4, 4], which holds the grid, and nonzero outside it
        off_grid = dataclasses.replace(burgers, a=lambda x: np.maximum(np.abs(x) - 4.0, 0.0))
        cases = {  # whether each axis skips advection
            "catalog zero": (zero, [True] * n),
            "traced evaluators": (traced(zero, {}), [True] * n),
            "look-alike": (dataclasses.replace(zero, name="look-alike"), [True] * n),
            "linear c=0": (pr.linear_flux_model(0.0, n), [True] * n),
            "a 0 on the grid only": (off_grid, [True] * n),
            "named zero": (dataclasses.replace(burgers, name="zero"), [False] * n),
            "zero evaluators": (dataclasses.replace(burgers, name="zero",
                                                    f=pr.zero_evaluator,
                                                    df_du=pr.zero_evaluator), [False] * n),
        }
        if n == 2:
            cases["linear (1, 0)"] = (pr.linear_flux_model((1.0, 0.0), 2), [False, True])
        grid = pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16)
        for label, (flux, skipped) in cases.items():
            p = pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=flux, u0=gaussian)
            s = pr.sample_initial(p)
            terms = prepared(s, p)[1][-1]
            assert [dF is None for dF, _ in terms] == skipped, label
        # a nonzero flux named "zero" steps exactly as the flux it is
        cfg = sv.SchemeConfig(t_end=0.2)
        named, real, zero = (
            sv.run(pr.Problem(grid=grid, alpha=0.5, p0=1.0, flux=flux, u0=gaussian), cfg)
            for flux in (cases["zero evaluators"][0], burgers, pr.zero_flux_model(n)))
        assert np.array_equal(named.snapshots[-1].values, real.snapshots[-1].values)
        assert not np.array_equal(named.snapshots[-1].values, zero.snapshots[-1].values)

    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n", (1, 2))
    def test_a_flux_zero_on_the_grid_never_calls_its_g(self, n, boundary):
        # a flux 0 on the grid whose g raises steps as the zero flux, and never
        # reaches g (a flux that was not the catalog's zero flux had its F and
        # dF evaluated, and its g called, on every step)
        def g(u, out):
            raise AssertionError("g called")

        flux = dataclasses.replace(pr.burgers_flux_model(n), g=g,
                                   a=lambda x: np.maximum(np.abs(x) - 4.0, 0.0))
        cfg = sv.SchemeConfig(t_end=0.3, snapshot_times=(0.1,))
        plain, never = (
            sv.run(pr.Problem(grid=pr.Grid(n=n, L=3.0, N=40 if n == 1 else 16), alpha=1.0,
                              p0=1.0, flux=fl, u0=gaussian, boundary_policy=boundary), cfg)
            for fl in (pr.zero_flux_model(n), flux))
        assert never.step_count == plain.step_count > 0
        assert never.wall_outflow == plain.wall_outflow
        for a, b in zip(plain.snapshots, never.snapshots):
            assert a.time == b.time and a.values.tobytes() == b.values.tobytes()


class TestHandoff:
    @pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_prepared_step_equals_unprepared(self, n, flux, u0, boundary):
        # a fresh plan steps like the run's plan, reused and prepared again at every step
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0, boundary_policy=boundary)
        s = pr.sample_initial(p)
        cfg = sv.SchemeConfig(t_end=1.0)
        reused = sv.plan(s, p)
        for _ in range(20):
            dt = sv.stable_dt(s, p, cfg, reused)
            fresh_dt, fresh = prepared(s, p, cfg)
            cold = sv.step(s, p, dt, fresh)
            s = sv.step(s, p, dt, reused)
            assert fresh_dt == dt
            assert s.values.tobytes() == cold.values.tobytes() and s.time == cold.time

    @pytest.mark.parametrize("n, flux, u0", STEP_CASES, ids=STEP_IDS)
    def test_interleaved_preparations_stay_apart(self, n, flux, u0):
        # as in the sandwich: every state is prepared before any is stepped
        p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=60 if n == 1 else 24), alpha=0.5,
                       p0=1.0, flux=flux, u0=u0)
        base = pr.sample_initial(p)
        states = [pr.State(values=c * base.values, time=0.0, grid=base.grid)
                  for c in (-0.5, 1.0, 2.0)]
        plans = [prepared(s, p) for s in states]
        dt = min(d for d, _ in plans)
        for s, (_, plan) in zip(states, plans):
            handed, cold = sv.step(s, p, dt, plan), sv.step(s, p, dt, prepared(s, p)[1])
            assert handed.values.tobytes() == cold.values.tobytes()


def term_bytes(terms):
    return [tuple(None if a is None else a.tobytes() for a in term) for term in terms]


def assert_step_leaves_inputs(s, p):
    """step writes neither state.values nor the plan's terms, so the same plan
    steps the same state twice to the same bits."""
    for _ in range(3):
        dt, plan = prepared(s, p)
        values, before = s.values.tobytes(), term_bytes(plan[-1])
        first = sv.step(s, p, dt, plan)
        assert s.values.tobytes() == values
        assert term_bytes(plan[-1]) == before
        assert sv.step(s, p, dt, plan).values.tobytes() == first.values.tobytes()
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
    s = sv.step(s, p, *prepared(s, p, cfg))
    with pytest.raises(RunError, match=r"^non-finite value at cell \(7,\), t=") as exc:
        prepared(s, p, cfg)
    assert exc.value.branch == (1 if stacked else None)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("n, flux, stacked", [
    (1, pr.zero_flux_model(1), False), (1, pr.burgers_flux_model(1), False),
    (2, pr.burgers_flux_model(2), False), (1, pr.burgers_flux_model(1), True)],
    ids=["1d-window", "1d-advecting", "2d", "stacked"])
def test_stable_dt_reports_an_overflowing_power(n, flux, stacked):
    # every value is finite, but |u|^2 overflows from cell 7 on (and, in 2-D,
    # from row 5 on): named by its first cell before any other arithmetic, not
    # as an underflowed dt; the 1-D window starts at cell 6
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=20), alpha=2.0, p0=1.0, flux=flux,
                   u0=lambda x: np.where((x[0] > -1.5) & (x[-1] > -0.9), 1e200, 0.0))
    s = pr.sample_initial(p)
    cell, label = ((5,) * (n - 1) + (7,), "")
    if stacked:
        ones = np.ones(p.grid.shape)
        s = pr.State(values=np.stack([ones, s.values, ones]), time=0.0, grid=p.grid)
        label = ", middle branch"
    message = f"step 1{label}: |u|^2.0 overflows at cell {cell}, t=0.0"
    with pytest.raises(RunError, match=f"^{re.escape(message)}$") as exc:
        for _ in sv.advance(s, p, sv.SchemeConfig(t_end=1.0), sv.plan(s, p),
                            names=("lower", "middle", "upper")):
            pass
    assert exc.value.__cause__.branch == (1 if stacked else None)


# the paths of a step's overflow checks: the 1-D zero-flux window, a 1-D
# advecting step, a 2-D step and a stacked one
OVERFLOW_PATHS = pytest.mark.parametrize("n, flux, stacked", [
    (1, pr.zero_flux_model(1), False), (1, pr.burgers_flux_model(1), False),
    (2, pr.burgers_flux_model(2), False), (1, pr.burgers_flux_model(1), True)],
    ids=["1d-window", "1d-advecting", "2d", "stacked"])


def block_state(n, flux, stacked, value):
    """(state, problem, its first cell of value, the branch label of `advance`'s
    errors): alpha = 2, value from cell 7 on (in 2-D, from row 5 on) and 0
    elsewhere, stacked as the middle branch between two of ones."""
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=20), alpha=2.0, p0=1.0, flux=flux,
                   u0=lambda x: np.where((x[0] > -1.5) & (x[-1] > -0.9), value, 0.0))
    s = pr.sample_initial(p)
    if stacked:
        ones = np.ones(p.grid.shape)
        s = pr.State(values=np.stack([ones, s.values, ones]), time=0.0, grid=p.grid)
    return s, p, (5,) * (n - 1) + (7,), ", middle branch" if stacked else ""


def advance_some(s, p, steps):
    """The state after `steps` steps of `advance`, branches named as the sandwich's."""
    run = sv.advance(s, p, sv.SchemeConfig(t_end=1.0), sv.plan(s, p),
                     names=("lower", "middle", "upper"))
    for _ in range(steps):
        s, _ = next(run)
    return s


@OVERFLOW_PATHS
def test_stable_dt_reports_an_overflowing_G(n, flux, stacked):
    # |u|^2 = 1e240 is finite but G = |u|^2 u/3 is not: named by its first cell
    # before G is formed, without a numpy RuntimeWarning (an error under this
    # suite's filters)
    s, p, cell, label = block_state(n, flux, stacked, 1e120)
    message = f"step 1{label}: G(u) = |u|^2.0 u/3.0 overflows at cell {cell}, t=0.0"
    with pytest.raises(RunError, match=f"^{re.escape(message)}$") as exc:
        advance_some(s, p, 1)
    assert exc.value.__cause__.branch == (1 if stacked else None)


def test_G_overflow_is_named_down_to_the_least_alpha():
    # at alpha = ALPHA_MIN, the least a Problem takes, |u|^alpha of u = 1.7e308
    # still compares above G's ceiling, so the overflow is named before G is
    # formed, with no numpy warning (an error under this suite's filters)
    p = pr.Problem(grid=pr.Grid(n=1, L=10.0, N=400), alpha=pr.ALPHA_MIN, p0=1.0,
                   flux=pr.zero_flux_model(1), u0=lambda x: 1.7e308 * gaussian(x))
    message = f"step 1: G(u) = |u|^{pr.ALPHA_MIN} u/{pr.ALPHA_MIN + 1.0} overflows at cell"
    with pytest.raises(RunError, match=f"^{re.escape(message)} "):
        sv.run(p, sv.SchemeConfig(t_end=0.001))


@OVERFLOW_PATHS
def test_G_ceiling_keeps_four_G_a_factor_2_inside_the_float_range(n, flux, stacked):
    # at alpha = 2 the ceiling is where |u|^2 u = |u|^3 is MAX/2 * 3/4, so that
    # 4 max|G| = 4 |u|^3/3 is MAX/2: a value just inside steps, here three
    # times, with no warning, and one just outside raises as G's overflow
    top = (sys.float_info.max / 2 * 0.75) ** (1 / 3)
    s, p, cell, label = block_state(n, flux, stacked, top * (1 - 1e-9))
    assert np.isfinite(advance_some(s, p, 3).values).all()
    s, p, cell, label = block_state(n, flux, stacked, top * (1 + 1e-9))
    message = f"step 1{label}: G(u) = |u|^2.0 u/3.0 overflows at cell {cell}, t=0.0"
    with pytest.raises(RunError, match=f"^{re.escape(message)}$"):
        advance_some(s, p, 1)


def underflow(alpha, peak, label=""):
    """The message of `advance` for data whose max|u|^alpha is peak, below G's floor."""
    floor = ((alpha + 1.0) * sys.float_info.min) ** (alpha / (alpha + 1.0))
    return (f"step 1{label}: G(u) = |u|^{alpha} u/{alpha + 1.0} underflows: "
            f"max|u|^{alpha} = {peak} is below its floor {floor}, t=0.0")


@OVERFLOW_PATHS
def test_G_floor_keeps_G_of_max_u_a_normal_float(n, flux, stacked):
    # at alpha = 2 the floor is where max|u|^3/3 is the least normal float: a
    # value just above it steps (unstacked, the first dt reaches t_end), and one
    # just below raises naming the underflow, max|u|^2 and the branch
    least = (3.0 * sys.float_info.min) ** (1 / 3)
    s, p, cell, label = block_state(n, flux, stacked, least * (1 + 1e-9))
    assert np.isfinite(advance_some(s, p, 2).values).all()
    s, p, cell, label = block_state(n, flux, stacked, least * (1 - 1e-9))
    peak = float(np.max(np.abs(s.values[1] if stacked else s.values) ** 2.0))
    with pytest.raises(RunError, match=f"^{re.escape(underflow(2.0, peak, label))}$") as exc:
        advance_some(s, p, 1)
    assert exc.value.__cause__.branch == (1 if stacked else None)


@OVERFLOW_PATHS
def test_data_whose_power_underflows_to_zero_raise_the_named_underflow(n, flux, stacked):
    # at alpha = 2, |u|^2 of u = 1e-200 underflows to 0 in every cell: max|u|^2 = 0,
    # as for zero data, but the values are not 0, and G = 0 would freeze them
    s, p, cell, label = block_state(n, flux, stacked, 1e-200)
    with pytest.raises(RunError, match=f"^{re.escape(underflow(2.0, 0.0, label))}$") as exc:
        advance_some(s, p, 1)
    assert exc.value.__cause__.branch == (1 if stacked else None)


@OVERFLOW_PATHS
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
def test_zero_data_step(n, flux, stacked, zero):
    # max|u|^2 = 0 with every value 0, of either sign (stacked: the middle branch)
    s, p, _, _ = block_state(n, flux, stacked, zero)
    assert not advance_some(s, p, 2).values[1 if stacked else Ellipsis].any()


@pytest.mark.parametrize("n, flux, alpha, boundary, amp", [
    (1, pr.burgers_flux_model(1), 0.30078125, "zero_flux", 2.1523e-249),
    (2, pr.linear_flux_model(1.5, 2), 1.0, "dirichlet_zero", 2.225e-309),
], ids=["1d-burgers", "2d-linear"])
def test_data_whose_G_is_subnormal_raise_the_named_underflow(n, flux, alpha, boundary, amp):
    # nonnegative data whose G(max|u|) is subnormal: under its own dt the step
    # would be neither monotone nor sign-preserving (1-D: dt = 1.58e74 and a cell
    # at -6.64e-250 after one step; 2-D: a cell at -5e-324 by step 14)
    shift = 0.5 if n == 1 else 0.0
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=8 if n == 1 else 4), alpha=alpha, p0=1.0,
                   flux=flux, u0=lambda x: amp * np.exp(-np.sum((x - shift) ** 2, axis=0)),
                   boundary_policy=boundary)
    s = pr.sample_initial(p)
    peak = float(np.max(np.abs(s.values) ** alpha))
    with pytest.raises(RunError, match=f"^{re.escape(underflow(alpha, peak))}$"):
        advance_some(s, p, 1)


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
    dt, plan = prepared(s, p)
    new = sv.step(s, p, dt, plan).values
    assert not new.flags.writeable
    assert not np.shares_memory(new, s.values)
    for term in plan[-1]:
        assert not any(np.shares_memory(new, t) for t in term if t is not None)


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("B", (None, 3), ids=("unstacked", "stacked"))
@pytest.mark.parametrize("n, name", [(1, "burgers"), (1, "linear"), (1, "zero"),
                                     (2, "burgers"), (2, "linear"), (2, "zero")])
def test_plan_follows_the_value_shape(n, name, B, boundary):
    # through plan, stable_dt and step alone: each prepare calls g once, on one
    # array of the branch's every cell value, and never for the zero flux; the
    # terms are in the value layout; outflow holds a [low, high] pair per axis
    # of an unstacked state and rates one rate per branch of a stacked one; the
    # new values are read-only and C-ordered
    grid = pr.Grid(n=n, L=3.0, N=12 if n == 1 else 6)
    flux = pr.flux_from_config(name, None, n)
    p = pr.Problem(grid=grid, alpha=1.0, p0=1.0, flux=flux, u0=gaussian,
                   boundary_policy=boundary)
    shape = grid.shape if B is None else (B,) + grid.shape
    u = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    s = pr.State(values=u, time=0.0, grid=grid)
    plan, got = sv.plan(s, p), []
    outflow, rates, terms = plan[2:]
    # stable_dt hands the plan the g of the problem it is given
    p = dataclasses.replace(p, flux=dataclasses.replace(
        flux, g=lambda v, out: got.append(v.copy()) or flux.g(v, out)))
    cfg = sv.SchemeConfig(t_end=1.0)
    for k in range(2):
        u, s = s.values, sv.step(s, p, sv.stable_dt(s, p, cfg, plan), plan)
        assert len(got) == (0 if name == "zero" else k + 1)
        for v in got[k:]:  # one flat row per branch that holds all of its values
            assert v.shape[:-1] == shape[:-n]
            rows = zip(u.reshape(-1, grid.N ** n), v.reshape(-1, v.shape[-1]))
            assert all(np.isin(w, row).all() for w, row in rows)
        assert s.values.shape == shape and s.values.flags.c_contiguous
        assert not s.values.flags.writeable
    assert len(terms) == n
    for dF, lapG in terms:
        assert lapG.shape == shape and (dF is None) == (name == "zero")
        assert dF is None or dF.shape == shape
    if B is None:
        assert rates is None and len(outflow) == n
        assert all(len(pair) == 2 and all(isinstance(v, float) for v in pair)
                   for pair in outflow)
    else:
        assert outflow is None and len(rates) == B and all(isinstance(r, float) for r in rates)


def amplitudes(alpha, lo, hi):
    """Floats in [lo, hi] that are 0 or at least 1e3 times the least |u| whose G is a
    normal float: data of such an amplitude times a profile whose maximum is above
    1e-3 are inside G's range (below it `stable_dt` names the underflow)."""
    least = 1e3 * ((alpha + 1.0) * sys.float_info.min) ** (1.0 / (alpha + 1.0))
    return st.floats(lo, hi).filter(lambda v: v == 0 or abs(v) >= least)


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
    amps = data.draw(st.lists(st.tuples(amplitudes(alpha, -2.0, 2.0),
                                        amplitudes(alpha, -1.0, 1.0)),
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
    for stacked, dt in sv.advance(stacked, p, cfg, sv.plan(stacked, p)):
        if dt is None:
            target = pending.pop(0)
            branches = [pr.State(values=s.values, time=target, grid=grid) for s in branches]
        else:
            steps += 1
            plans = [prepared(s, p, cfg) for s in branches]
            ref_dt = min(min(d for d, _ in plans), pending[0] - branches[0].time)
            branches = [sv.step(s, p, ref_dt, plan) for s, (_, plan) in zip(branches, plans)]
            assert dt == ref_dt
        assert [stacked.time] * B == [s.time for s in branches]
        for k, s in enumerate(branches):
            assert stacked.values[k].tobytes() == s.values.tobytes(), (steps, k)
    assert steps > 0 and stacked.time == cfg.t_end


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("n, name, params", [
    (1, "figure1", None), (1, "burgers", None), (1, "linear", {"c": -2.0}),
    (2, "burgers", None), (2, "linear", {"c": -2.0})],
    ids=["1d-figure1", "1d-burgers", "1d-linear", "2d-burgers", "2d-linear"])
def test_branches_far_apart_step_as_alone(n, name, params, boundary):
    # one window steps a stack's branches end to end, so neighbouring branches
    # far apart in sign and magnitude (near G's floor, near its ceiling and all
    # zero, nonzero at the walls) must each step bit for bit as alone under the
    # shared dt, and the ghost cells between them must warn of nothing
    alpha = 3.0
    grid = pr.Grid(n=n, L=3.0, N=16 if n == 1 else 6)
    p = pr.Problem(grid=grid, alpha=alpha, p0=1.0, flux=pr.flux_from_config(name, params, n),
                   u0=gaussian, boundary_policy=boundary)
    # the least and the largest max|u| inside G's range; the profile is in [0.5, 1.5]
    least = ((alpha + 1) * sys.float_info.min) ** (1 / (alpha + 1))
    top = (sys.float_info.max / 2 * min(1.0, (alpha + 1) / 4)) ** (1 / (alpha + 1))
    profile = 1.0 + 0.5 * np.cos(np.sum(grid.cell_centers(), axis=0))
    branches = [pr.State(values=v * profile, time=0.0, grid=grid)
                for v in (2.0 * least, -top / 3.0, 0.0)]
    stacked = pr.State(values=np.stack([s.values for s in branches]), time=0.0, grid=grid)
    plan, cfg = sv.plan(stacked, p), sv.SchemeConfig(t_end=1.0)
    for steps in range(3):
        dt = sv.stable_dt(stacked, p, cfg, plan)
        plans = [prepared(s, p, cfg) for s in branches]
        assert dt == min(d for d, _ in plans)
        stacked = sv.step(stacked, p, dt, plan)
        branches = [sv.step(s, p, dt, alone) for s, (_, alone) in zip(branches, plans)]
        for k, s in enumerate(branches):
            assert stacked.values[k].tobytes() == s.values.tobytes(), (steps, k)
    assert not stacked.values[2].any() and stacked.values[1].min() < -top / 10.0


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


@pytest.mark.parametrize("n, N, t_end, boundary", [(1, 200, 0.3, "dirichlet_zero"),
                                                   (2, 120, 0.1, "zero_flux")],
                         ids=["1d", "2d"])
def test_monotone_step_size_keeps_sup_norm_from_rising(n, N, t_end, boundary):
    # advective and diffusive bounds close together: taking their minimum
    # instead of the combined rule let max|u| rise by a few percent. The 1-D
    # pulse reaches the wall by t_end, and the maximum principle is one of the
    # Cauchy problem: the pulse leaves through a dirichlet_zero wall, where a
    # mass-conserving wall would pile it up
    p = pr.Problem(grid=pr.Grid(n=n, L=5.0, N=N), alpha=1.0, p0=1.0,
                   flux=pr.linear_flux_model(20.0, n),
                   u0=lambda x: np.exp(-np.sum(x ** 2, axis=0) / 0.5),
                   boundary_policy=boundary)
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
    # saw. The run's plan is built once from the problem that advance
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


@pytest.mark.parametrize("n, flux", [(1, "zero"), (1, "burgers"), (2, "zero"), (2, "burgers")])
def test_step_hook_counts_the_cells_the_worker_counts(monkeypatch, n, flux):
    # bench/worker.py --trace 1 wraps sv.step and sv.stable_dt, counts
    # state.values.size at step and checks the sum against its formula from what
    # the calls return: step_count * size for a run, 3 * step_count * N^n for a
    # sandwich. A loop that stops going through the two module names fails here.
    calls, cells = {"step": 0, "stable_dt": 0}, [0]

    def counted(name, fn):
        def wrapper(state, *rest):
            calls[name] += 1
            cells[0] += state.values.size if name == "step" else 0
            return fn(state, *rest)
        return wrapper

    monkeypatch.setattr(sv, "step", counted("step", sv.step))
    monkeypatch.setattr(sv, "stable_dt", counted("stable_dt", sv.stable_dt))
    p = pr.Problem(grid=pr.Grid(n=n, L=3.0, N=40 if n == 1 else 12), alpha=0.5, p0=1.0,
                   flux=pr.flux_from_config(flux, None, n), u0=gaussian)
    res = sv.run(p, sv.SchemeConfig(t_end=0.2, snapshot_times=(0.1,)))
    assert res.step_count > 0
    assert calls == {"step": res.step_count, "stable_dt": res.step_count}
    assert cells[0] == res.step_count * res.snapshots[0].values.size
    calls.update(step=0, stable_dt=0)
    cells[0] = 0
    rep = hz.run_sandwich(p, 0.1, lambda x: np.ones(x.shape[1:]), sv.SchemeConfig(t_end=0.2))
    assert rep.step_count > 0
    assert calls == {"step": rep.step_count, "stable_dt": rep.step_count}
    assert cells[0] == 3 * rep.step_count * p.grid.N ** n


@pytest.mark.parametrize("k", [1, 2, 3, 52, 1023])
def test_halving_by_a_power_of_two_is_a_product(k):
    # G = |u|^alpha u / (alpha + 1) is taken as a product by 2^-k where alpha + 1
    # is 2^k: both round the same real number, so every bit agrees, on signed
    # zeros, subnormals (which may round), the largest floats, infinities and NaN
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    x = np.array([0.0, 1.0, 3.0, 1.0 / 3.0, tiny, 3 * tiny, 2.2250738585072014e-308,
                  np.nextafter(2.2250738585072014e-308, 0.0), 1e-300, huge,
                  np.nextafter(huge, 0.0), np.inf, np.nan])
    x = np.concatenate([x, -x])
    assert np.divide(x, 2.0 ** k).tobytes() == np.multiply(x, 2.0 ** -k).tobytes()
    # and on random bit patterns, signalling NaNs among them
    bits = np.random.default_rng(k).integers(0, 2 ** 63, size=4096, dtype=np.int64)
    bits = np.concatenate([bits, bits | np.int64(-2 ** 63)]).view(np.float64)
    with np.errstate(invalid="ignore"):
        assert np.divide(bits, 2.0 ** k).tobytes() == np.multiply(bits, 2.0 ** -k).tobytes()


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
    dt, plan = prepared(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
    new = sv.step(s, p, dt, plan).values
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
        levels = data.draw(st.lists(amplitudes(alpha, -10.0, 10.0), min_size=3, max_size=3),
                           label="levels")
        cuts = sorted(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
                                label="cuts"))
        u = np.asarray(levels)[np.digitize(np.sum(x, axis=0) / n, cuts)]
    else:
        amp = data.draw(amplitudes(alpha, -10.0, 10.0), label="amp")
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
    dt, plan = prepared(s, p, sv.SchemeConfig(t_end=1.0, cfl_safety=0.9))
    new = sv.step(s, p, dt, plan).values.reshape(cells + 1, cells)
    jac = (new[1:] - new[0]) / h  # row j: the response to a bump in cell j
    j, i = np.unravel_index(int(jac.argmin()), jac.shape)
    assert jac[j, i] >= -1e-9, (jac[j, i], int(i), int(j), u.ravel()[[i, j]].tolist())


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ordered_pair_stays_ordered_and_nonnegative_data_stay_nonnegative(data):
    # a monotone scheme keeps order (Crandall & Majda, Math. Comp. 34, 1980):
    # a stacked pair v <= u, v >= 0, over 30 steps of its own stable_dt; the
    # tolerance is round-off of the pair's max|u|
    n = data.draw(st.sampled_from((1, 2)), label="n")
    name = data.draw(st.sampled_from(
        [k for k in sorted(pr.FLUX_CATALOG) if n == 1 or k != "figure1"]), label="flux")
    params = ({"c": data.draw(st.floats(-5.0, 5.0), label="c")} if name == "linear" else
              {"k": data.draw(st.floats(0.5, 2.5), label="k")} if name == "figure1" else {})
    boundary = data.draw(st.sampled_from(pr.BOUNDARY_POLICIES), label="boundary")
    alpha = data.draw(st.floats(0.3, 3.0), label="alpha")
    N = data.draw(st.integers(4, 16 if n == 1 else 8), label="N")
    width = data.draw(st.floats(0.5, 2.0), label="width")
    # v = amp w(x - s), u = v + gap w(x - t): Gaussians of the width, anywhere in the box
    (amp, s), (gap, t) = data.draw(st.lists(st.tuples(
        amplitudes(alpha, 0.0, 10.0), st.floats(-3.0, 3.0)), min_size=2, max_size=2),
        label="amplitudes and centres")
    grid = pr.Grid(n=n, L=3.0, N=N)
    x = grid.cell_centers()
    v = amp * np.exp(-np.sum((x - s) ** 2, axis=0) / width ** 2)
    u = v + gap * np.exp(-np.sum((x - t) ** 2, axis=0) / width ** 2)
    p = pr.Problem(grid=grid, alpha=alpha, p0=1.0, flux=pr.flux_from_config(name, params, n),
                   u0=gaussian, boundary_policy=boundary)
    state = pr.State(values=np.stack([v, u]), time=0.0, grid=grid)
    plan, cfg = sv.plan(state, p), sv.SchemeConfig(t_end=1.0)
    tol = 1e-12 * float(np.max(u))
    for k in range(30):
        try:
            dt = sv.stable_dt(state, p, cfg, plan)
        except RunError as exc:  # data carried out through a dirichlet_zero wall can fall
            assert "underflows" in str(exc)  # below G's floor: named, not stepped
            break
        state = sv.step(state, p, dt, plan)
        v, u = state.values
        assert float(np.min(u - v)) >= -tol, ("order", k)
        assert float(np.min(v)) >= -tol, ("sign", k)


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
def test_a_turning_sign_inside_a_cell_keeps_the_step_monotone(boundary):
    # a = tanh(20 x) on an odd grid turns from -1 to +1 inside the middle cell,
    # which then loses g = u through both faces: its diagonal entry is
    # 1 - dt/dx (|a_l| + |a_r|), below 0 if the rate took only the larger |a|
    linear = pr.linear_flux_model(1.0, 1)
    flux = dataclasses.replace(linear, a=lambda x: np.tanh(20.0 * x))
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
        total = sum(dt is not None for _, dt in sv.advance(stack, p, cfg, sv.plan(stack, p)))
        poison_step(monkeypatch, total, np.inf, (1, 7))
        with pytest.raises(RunError, match=rf"^step {total}, middle branch: "
                                           rf"non-finite value at cell \(7,\), t=0.2$") as exc:
            for _ in sv.advance(stack, p, cfg, sv.plan(stack, p),
                                names=("lower", "middle", "upper")):
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
            s = pr.sample_initial(p)
            for s, dt in sv.advance(s, p, cfg, sv.plan(s, p)):
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
        s = pr.sample_initial(p)
        for s, dt in sv.advance(s, p, sv.SchemeConfig(t_end=0.2, snapshot_times=(0.1,)),
                                sv.plan(s, p)):
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
        # degenerate diffusion keeps the support off the walls: under
        # zero_flux no wall is summed, and zero ghosts let out (nearly) nothing
        for boundary in pr.BOUNDARY_POLICIES:
            p = dataclasses.replace(diffusion_problem(N=200, L=10.0), boundary_policy=boundary)
            res = sv.run(p, sv.SchemeConfig(t_end=1.0, snapshot_times=(0.0,)))
            low, high = res.wall_outflow[0]
            assert abs(low) + abs(high) <= 1e-12 * hz.lq_norm(res.snapshots[0], 1)
            assert (low == high == 0.0) == (boundary == "zero_flux")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=1.0, cfl_safety=0.0)
        with pytest.raises(ValueError):
            sv.SchemeConfig(t_end=1.0, snapshot_times=(2.0,))


WALL_CASES = [(n, name) for n in (1, 2) for name in sorted(pr.FLUX_CATALOG)
              if n == 1 or name != "figure1"]


@pytest.mark.parametrize("boundary", pr.BOUNDARY_POLICIES)
@pytest.mark.parametrize("n, name", WALL_CASES, ids=[f"{n}d-{name}" for n, name in WALL_CASES])
def test_mass_budget_closes_with_data_at_the_walls(n, name, boundary):
    # signed data that reach every wall: the mass the walls let out accounts
    # for the change of the signed mass to round-off; dirichlet_zero walls let
    # mass out, and zero_flux walls let none out under the zero flux
    p = pr.Problem(grid=pr.Grid(n=n, L=2.0, N=60 if n == 1 else 24), alpha=0.5, p0=1.0,
                   flux=pr.flux_from_config(name, {}, n), boundary_policy=boundary,
                   u0=lambda x: (0.5 + x[0]) * np.exp(-np.sum(x ** 2, axis=0) / 4.0))
    res = sv.run(p, sv.SchemeConfig(t_end=0.5, snapshot_times=(0.0,)))
    first, last = (float(np.sum(s.values)) * s.grid.cell_volume
                   for s in (res.snapshots[0], res.snapshots[-1]))
    scale = hz.lq_norm(res.snapshots[0], 1)
    assert len(res.wall_outflow) == n and res.step_count > 10
    assert abs(last - first + sum(map(sum, res.wall_outflow))) <= 1e-13 * scale
    largest = max(abs(v) for wall in res.wall_outflow for v in wall)
    if boundary == "dirichlet_zero":
        assert largest > 1e-4 * scale
    elif name == "zero":
        assert largest == 0.0


@pytest.mark.xfail(strict=True, reason="ROADMAP 1: the zero_flux wall passes f(u_edge)")
def test_zero_flux_wall_conserves_mass():
    # the wall reproducer, `pmelab run --set "flux=linear c=1" --set L=3 --set N=120
    # --t-end 3`: a zero_flux wall lets no mass through, so sum(u) stays put
    p = pr.problem_from_mapping({"flux": "linear c=1", "L": "3", "N": "120"})
    res = sv.run(p, sv.SchemeConfig(t_end=3.0, snapshot_times=(0.0,)))
    first, last = (float(np.sum(s.values)) for s in (res.snapshots[0], res.snapshots[-1]))
    assert abs(last - first) <= 1e-13 * float(np.sum(np.abs(res.snapshots[0].values)))


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
        masses = stepped_masses(p, sv.SchemeConfig(t_end=0.5))
        assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * masses[0]
        assert float(np.max(res.snapshots[-1].values)) < 1.0
        assert np.all(res.snapshots[-1].values >= 0)
