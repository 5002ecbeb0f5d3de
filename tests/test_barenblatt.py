import math

import numpy as np
import pytest

from pmelab import barenblatt as bb
from pmelab import harness
from pmelab.errors import ConfigError
from pmelab.problem import Grid


def test_profile_constants():
    p = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    assert p.k_exp == pytest.approx(1 / 3)
    assert p.b_coef == pytest.approx(1 / 12)


def test_profile_validation():
    with pytest.raises(ConfigError):
        bb.BarenblattProfile(n=1, alpha=0.0, C=1.0)
    with pytest.raises(ConfigError):
        bb.BarenblattProfile(n=1, alpha=1.0, C=0.0)
    with pytest.raises(ConfigError):
        bb.evaluate(bb.BarenblattProfile(n=1, alpha=1.0), 0.0, 0.0)


@pytest.mark.parametrize("alpha, C, named", [
    (math.nan, 1.0, "diffusion exponent alpha"),
    (math.inf, 1.0, "diffusion exponent alpha"),
    (1.0, math.nan, "mass constant C"),
    (1.0, math.inf, "mass constant C"),
])
def test_profile_rejects_non_finite_parameters(alpha, C, named):
    with pytest.raises(ConfigError, match=named):
        bb.BarenblattProfile(n=1, alpha=alpha, C=C)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_every_time_dependent_function_rejects_bad_t(t):
    p = bb.BarenblattProfile(n=1, alpha=1.0)
    with pytest.raises(ConfigError, match="finite t > 0"):
        bb._rescaled_time(p, t)
    for call in (lambda: bb.evaluate(p, 0.0, t), lambda: bb.sup_value(p, t),
                 lambda: bb.support_radius(p, t)):
        with pytest.raises(ConfigError, match="finite t > 0"):
            call()


def test_every_time_dependent_function_rejects_a_time_that_rescales_to_0():
    # 5e-324 / 2 rounds to 0, where s^-k divides by zero
    p = bb.BarenblattProfile(n=1, alpha=1.0)
    for call in (lambda: bb.evaluate(p, 0.0, 5e-324), lambda: bb.sup_value(p, 5e-324),
                 lambda: bb.support_radius(p, 5e-324)):
        with pytest.raises(ConfigError, match=r"t/\(alpha\+1\) > 0, got t=5e-324$"):
            call()
    assert bb._rescaled_time(p, 1e-323) == 5e-324


def test_evaluate_frozen_point():
    # t = 2 with alpha = 1 rescales to s = 1: peak value C^(1/alpha) = 1,
    # support edge at sqrt(C/b) = sqrt(12)
    p = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    assert bb.evaluate(p, 0.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert bb.support_radius(p, 2.0) == pytest.approx(math.sqrt(12.0), rel=1e-14)
    assert bb.evaluate(p, math.sqrt(12.0) + 1e-9, 2.0) == 0.0
    assert bb.evaluate(p, 100.0, 2.0) == 0.0


def test_evaluate_nonnegative_compact_support():
    p = bb.BarenblattProfile(n=2, alpha=0.5, C=2.0)
    grid = Grid(n=2, L=30.0, N=64)
    vals = bb.evaluate(p, grid.cell_centers(), 3.0)
    assert vals.shape == grid.shape
    assert np.all(vals >= 0)
    r = np.sqrt(np.sum(grid.cell_centers() ** 2, axis=0))
    assert np.all(vals[r > bb.support_radius(p, 3.0)] == 0)


def test_sup_value_matches_grid_max():
    p = bb.BarenblattProfile(n=1, alpha=0.5, C=1.5)
    grid = Grid(n=1, L=30.0, N=4001)
    vals = bb.evaluate(p, grid.cell_centers(), 4.0)
    assert float(np.max(vals)) == pytest.approx(bb.sup_value(p, 4.0), rel=1e-3)


def test_mass_frozen_value():
    # closed form: 2 * integral_0^sqrt(12) (1 - x^2/12) dx = 4 sqrt(12) / 3
    p = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    assert bb.mass(p) == pytest.approx(4.0 * math.sqrt(12.0) / 3.0, rel=1e-10)


def test_mass_time_independent_and_monotone_in_C():
    # the mass takes no t: the profile integrates to it at every time
    for p, N in ((bb.BarenblattProfile(n=1, alpha=1.0, C=1.0), 20001),
                 (bb.BarenblattProfile(n=2, alpha=1.0, C=0.5), 801)):
        for t in (1.0, 2.0, 5.0):
            grid = Grid(n=p.n, L=1.05 * bb.support_radius(p, t), N=N)
            total = float(np.sum(bb.evaluate(p, grid.cell_centers(), t))) * grid.cell_volume
            assert bb.mass(p) == pytest.approx(total, rel=1e-5)
    m1 = bb.mass(bb.BarenblattProfile(n=1, alpha=1.0, C=1.0))
    assert bb.mass(bb.BarenblattProfile(n=1, alpha=1.0, C=2.0)) > m1


@pytest.mark.parametrize("n, N", [(1, 20001), (2, 801)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("C", [0.5, 2.0])
def test_mass_matches_midpoint_sum(n, N, alpha, C):
    p = bb.BarenblattProfile(n=n, alpha=alpha, C=C)
    grid = Grid(n=n, L=1.05 * bb.support_radius(p, 1.5), N=N)
    total = float(np.sum(bb.evaluate(p, grid.cell_centers(), 1.5))) * grid.cell_volume
    assert bb.mass(p) == pytest.approx(total, rel=1e-5)


def test_sup_norm_decay_slope_equals_smoothing_rate():
    # the optimal-rate anchor, exercised through the generic fitter
    from pmelab import exponents

    for n, alpha in ((1, 0.5), (1, 1.0), (2, 1.0)):
        p = bb.BarenblattProfile(n=n, alpha=alpha, C=1.0)
        ts = np.geomspace(1.0, 100.0, 20)
        series = [(t, bb.sup_value(p, t)) for t in ts]
        slope, _, r2 = harness.fit_decay(series, (1.0, 100.0))
        _, gamma0 = exponents.smoothing_exponents(n, 1.0, alpha)
        assert slope == pytest.approx(-gamma0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_scaling_identity():
    # sup(lambda C, t) / sup(C, t) = lambda^(1/alpha)
    for alpha in (0.5, 1.0, 2.0):
        p1 = bb.BarenblattProfile(n=1, alpha=alpha, C=1.0)
        p2 = bb.BarenblattProfile(n=1, alpha=alpha, C=3.0)
        ratio = bb.sup_value(p2, 7.0) / bb.sup_value(p1, 7.0)
        assert ratio == pytest.approx(3.0 ** (1.0 / alpha), rel=1e-12)


def test_residual_check_refines():
    p = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    coarse = bb.residual_check(p, Grid(n=1, L=10.0, N=200), 2.0)
    fine = bb.residual_check(p, Grid(n=1, L=10.0, N=400), 2.0)
    assert fine.interior_l1 <= 0.5 * coarse.interior_l1
    assert fine.global_l1 < coarse.global_l1


def test_residual_check_support_overflow():
    p = bb.BarenblattProfile(n=1, alpha=1.0, C=1.0)
    with pytest.raises(ConfigError):
        bb.residual_check(p, Grid(n=1, L=2.0, N=100), 2.0)


def test_bad_dimension_coordinates_and_grid_are_named():
    with pytest.raises(ConfigError, match="dimension must be a positive integer, got 0"):
        bb.BarenblattProfile(n=0, alpha=1.0)
    p2 = bb.BarenblattProfile(n=2, alpha=1.0)
    with pytest.raises(ConfigError, match=r"leading axis of length n=2, got shape \(3, 4\)"):
        bb.evaluate(p2, np.zeros((3, 4)), 1.0)
    with pytest.raises(ConfigError, match="grid dimension 1 != profile dimension 2"):
        bb.residual_check(p2, Grid(n=1, L=10.0, N=100), 1.0)
