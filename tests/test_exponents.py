import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmelab import exponents as ex
from pmelab.errors import ConfigError

LATTICE = [(q, n, a) for q in (1.0, 2.0, 5.0) for n in (1, 2, 3) for a in (0.5, 1.0, 2.0)]


def test_smoothing_exponents_frozen_values():
    assert ex.smoothing_exponents(1, 1, 1) == pytest.approx((2 / 3, 1 / 3), rel=1e-14)
    assert ex.smoothing_exponents(1, 1, 0.5) == pytest.approx((0.8, 0.4), rel=1e-14)
    # hand arithmetic: 2*2/(4+4) = 0.5, 2/8 = 0.25
    assert ex.smoothing_exponents(2, 2, 2) == pytest.approx((0.5, 0.25), rel=1e-14)


def test_smoothing_identities():
    for q, n, a in LATTICE:
        d0, g0 = ex.smoothing_exponents(n, q, a)
        assert d0 * (2 * q + n * a) == pytest.approx(2 * q, abs=1e-14)
        assert g0 * (2 * q + n * a) == pytest.approx(n, abs=1e-14)
        assert 0 < d0 < 1
        assert 0 < g0 < n / (2 * q)


def test_halving_exponents_frozen_values():
    assert ex.halving_exponents(1, 2, 1) == pytest.approx((5 / 6, 1 / 6), rel=1e-14)
    # 2q + n*alpha = 9.5, 2q + 2n*alpha = 11
    assert ex.halving_exponents(3, 4, 0.5) == pytest.approx((9.5 / 11, 3 / 11), rel=1e-14)


def test_halving_exponents_asymptotics():
    d, k = ex.halving_exponents(1, 1, 1e6)
    assert 0.5 < d < 0.5 + 1e-5
    assert 0 < k < 1e-5


def test_halving_identity_on_lattice():
    for q, n, a in LATTICE:
        d, k = ex.halving_exponents(n, q, a)
        assert d > 0.5
        assert d * (2 * q + 2 * n * a) == pytest.approx(2 * q + n * a, abs=1e-13)
        assert k * (2 * q + 2 * n * a) == pytest.approx(n, abs=1e-13)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        ex.smoothing_exponents(0, 1, 1)
    with pytest.raises(ConfigError):
        ex.smoothing_exponents(1, 0.5, 1)
    with pytest.raises(ConfigError):
        ex.halving_exponents(1, 1, 0.0)


@pytest.mark.parametrize("q, a, named", [
    (math.nan, 1.0, "integrability index q"),
    (math.inf, 1.0, "integrability index q"),
    (1.0, math.nan, "diffusion exponent alpha"),
    (1.0, math.inf, "diffusion exponent alpha"),
])
def test_parameter_validation_rejects_non_finite(q, a, named):
    # nan slips through plain q < 1 and alpha <= 0 comparisons
    with pytest.raises(ConfigError, match=named):
        ex._check_params(1, q, a)


@pytest.mark.parametrize("n, q, a", [(1, 1e308, 1.0), (2, 1.0, 1e308), (5, 3e307, 1.0)])
def test_moser_table_functions_reject_overflowing_denominators(n, q, a):
    # 4q + 2n alpha or nq + 2q + 2n alpha overflows; smoothing_exponents, which
    # other commands call, does not check these sums and still returns
    for call in (lambda: ex.moser_limits(q, n, a), lambda: ex.exponent_set(n, q, a),
                 lambda: ex.moser_trace(q, n, a, 3)):
        with pytest.raises(ConfigError, match=f"n={n} and alpha"):
            call()
    assert ex.smoothing_exponents(n, q, a)[1] == pytest.approx(0.0, abs=1e-300)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_ladder_and_constant_must_be_finite(bad):
    with pytest.raises(ConfigError, match="final time"):
        ex.moser_time_grid(3, bad)
    with pytest.raises(ConfigError, match="interpolation constant"):
        ex.moser_Kj_log_bound(2, 1.0, 1, 1.0, bad)


def test_exponent_set_structure():
    for q, n, a in LATTICE:
        s = ex.exponent_set(n, q, a)
        assert s.beta == pytest.approx(2 * q / (q + a), rel=1e-14)
        assert s.theta == pytest.approx(n * (q + a) / (n * q + 2 * q + 2 * n * a), rel=1e-14)
        assert s.theta * s.beta == pytest.approx(
            2 * q * n / (n * q + 2 * q + 2 * n * a), rel=1e-12)
        assert s.theta * s.beta < 2
        assert s.gamma > 1


@given(n=st.sampled_from((1, 2, 3)), q=st.floats(1.0, 1e6), a=st.floats(1e-9, 1e9))
@settings(max_examples=300, deadline=None)
def test_theta_beta_below_two(n, q, a):
    # theta*beta = 2nq/(nq + 2q + 2n a) < 2 is 4q + 4n a > 0, so gamma is finite
    s = ex.exponent_set(n, q, a)
    assert s.theta * s.beta < 2
    assert s.gamma == pytest.approx((n * q + 2 * q + 2 * n * a) / (2 * q + 2 * n * a),
                                    rel=1e-12)


def test_moser_A_closed_form_vs_product():
    # frozen: (9/10)(17/18)(33/34) = 33/40
    assert ex.moser_A(3, 2, 1, 1) == pytest.approx(33 / 40, rel=1e-14)
    assert ex.moser_A_bruteforce(3, 2, 1, 1) == pytest.approx(33 / 40, rel=1e-12)
    # single factor: (4q + n a)/(2(2q + n a))
    assert ex.moser_A(1, 1, 1, 1) == pytest.approx(5 / 6, rel=1e-14)


def test_moser_A_limit():
    assert ex.moser_A(40, 1, 1, 1) == pytest.approx(2 / 3, abs=1e-9)


def test_moser_B_frozen_values():
    assert ex.moser_B(0, 5, 2, 1, 1) == 1.0
    assert ex.moser_B(2, 3, 2, 1, 1) == pytest.approx(33 / 36, rel=1e-14)
    assert ex.moser_B_bruteforce(2, 3, 2, 1, 1) == pytest.approx((33 / 34) * (17 / 18), rel=1e-14)
    # B_m = A_m
    assert ex.moser_B(4, 4, 1, 1, 1) == pytest.approx(ex.moser_A(4, 1, 1, 1), rel=1e-14)
    assert ex.moser_B(4, 4, 1, 1, 1) == pytest.approx((2 + 1 / 16) / 3, rel=1e-14)


def test_moser_B_index_error():
    with pytest.raises(ConfigError):
        ex.moser_B(5, 4, 1, 1, 1)


def test_moser_exponent_sum_frozen_values():
    # m=1: single term (-1/6) B_0
    assert ex.moser_exponent_sum(1, 1, 1, 1) == pytest.approx(-1 / 6, rel=1e-12)
    assert ex.moser_exponent_sum_bruteforce(1, 1, 1, 1) == pytest.approx(-1 / 6, rel=1e-12)
    assert ex.moser_exponent_sum(40, 1, 1, 1) == pytest.approx(-1 / 3, abs=1e-9)


def test_moser_exponent_sum_equals_the_direct_bracket():
    # 2^-m/(4q + 2n a 2^-m) is 1/(2^m 4q + 2n a) scaled by a power of two: exact
    for q, n, a in LATTICE:
        for m in (1, 2, 5, 13, 40):
            na = n * a
            direct = -(2.0 * n * (2.0 * q + na * 2.0 ** (-m)) / (2.0 * q)) * (
                1.0 / (4.0 * q + 2.0 * na) - 1.0 / (2.0 ** m * 4.0 * q + 2.0 * na))
            assert ex.moser_exponent_sum(m, q, n, a) == direct


@pytest.mark.parametrize("m", [1100, 2000])
def test_moser_exponent_sum_large_m(m):
    # 2^m overflows a float beyond m = 1023
    for q, n, a in LATTICE:
        assert ex.moser_exponent_sum(m, q, n, a) == pytest.approx(
            ex.moser_limits(q, n, a)[1], abs=1e-15)


def test_moser_sum_monotone_decreasing():
    for q, n, a in LATTICE:
        vals = [ex.moser_exponent_sum(m, q, n, a) for m in range(1, 20)]
        assert all(b < a_ for a_, b in zip(vals, vals[1:]))


def test_oracle_equivalence_on_lattice():
    for q, n, a in LATTICE:
        for m in (1, 2, 5, 13, 40):
            assert ex.moser_A(m, q, n, a) == pytest.approx(
                ex.moser_A_bruteforce(m, q, n, a), rel=1e-12)
            assert ex.moser_exponent_sum(m, q, n, a) == pytest.approx(
                ex.moser_exponent_sum_bruteforce(m, q, n, a), rel=1e-12)
            for j in (0, 1, m // 2, m):
                assert ex.moser_B(j, m, q, n, a) == pytest.approx(
                    ex.moser_B_bruteforce(j, m, q, n, a), rel=1e-12)


def test_cross_theorem_consistency():
    # iteration limits reproduce the one-shot smoothing exponents
    for q, n, a in LATTICE:
        d0, g0 = ex.smoothing_exponents(n, q, a)
        assert ex.moser_A(40, q, n, a) == pytest.approx(d0, abs=1e-9)
        assert -ex.moser_exponent_sum(40, q, n, a) == pytest.approx(g0, abs=1e-9)
        A_inf, S_inf = ex.moser_limits(q, n, a)
        assert A_inf == pytest.approx(d0, rel=1e-14)
        assert S_inf == pytest.approx(-g0, rel=1e-14)


@given(q=st.floats(1.0, 50.0), a=st.floats(0.01, 20.0),
       n=st.integers(1, 3), m=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_moser_sequences_property(q, a, n, m):
    A = ex.moser_A(m, q, n, a)
    assert 0 < A <= 1
    assert A == pytest.approx(ex.moser_A_bruteforce(m, q, n, a), rel=1e-11)
    if m > 1:
        assert A < ex.moser_A(m - 1, q, n, a)
    S = ex.moser_exponent_sum(m, q, n, a)
    assert S < 0
    assert S == pytest.approx(ex.moser_exponent_sum_bruteforce(m, q, n, a), rel=1e-11)
    assert S > -n / (2 * q + n * a) - 1e-12


def test_moser_time_grid_frozen():
    assert ex.moser_time_grid(1, 1.0) == pytest.approx([0.5, 1.0])
    grid = ex.moser_time_grid(3, 8.0)
    assert grid == pytest.approx([1.0, 5.0, 7.0, 8.0])
    gaps = [b - a for a, b in zip(grid, grid[1:])]
    assert gaps == pytest.approx([4.0, 2.0, 1.0])


@given(m=st.integers(1, 1100), t=st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None)
def test_moser_time_grid_property(m, t):
    # from about m = 53 the last rungs are closer than the float spacing near t
    try:
        grid = ex.moser_time_grid(m, t)
    except ConfigError as exc:
        assert m > 52, (m, t)
        assert f"m={m}, t={t!r}" in str(exc)
        return
    assert len(grid) == m + 1
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[-1] == pytest.approx(t, rel=1e-12)
    for j, (a, b) in enumerate(zip(grid, grid[1:]), start=1):
        # late gaps are tiny relative to t, so allow eps*t cancellation error
        assert b - a == pytest.approx(2.0 ** (-j) * t, rel=1e-9, abs=1e-13 * t)


def test_Kj_log_bound_behavior():
    # C = 1 kills the interpolation-constant term; only the algebraic factor remains
    v = ex.moser_Kj_log_bound(1, 1, 1, 1, 1.0)
    assert math.isfinite(v)
    expected = (1 / 4) * math.log((2 + 1) ** 2 / (2 * 4 * (2 - 1)))
    assert v == pytest.approx(expected, rel=1e-12)
    # large j: both exponents decay like 2^-j
    assert abs(ex.moser_Kj_log_bound(50, 1, 1, 1, 2.0)) < 1e-12
    with pytest.raises(ConfigError):
        ex.moser_Kj_log_bound(0, 1, 1, 1, 2.0)


def test_Kj_partial_sums_converge():
    def partial(m):
        return sum(ex.moser_B(m - j, m, 1, 1, 1) * ex.moser_Kj_log_bound(j, 1, 1, 1, 2.0)
                   for j in range(1, m + 1))

    p10, p20, p40, p80 = partial(10), partial(20), partial(40), partial(80)
    assert abs(p20 - p10) < 1e-3
    assert abs(p40 - p20) < 1e-6
    assert abs(p80 - p40) < 1e-10


def test_moser_trace():
    tr = ex.moser_trace(1.0, 1, 1.0, 20)
    assert len(tr.A) == 20 and len(tr.S) == 20
    assert all(0 < a <= 1 for a in tr.A)
    assert all(b < a for a, b in zip(tr.A, tr.A[1:]))
    assert all(0 < ex.moser_B(j, 20, 1.0, 1, 1.0) <= 1 for j in range(21))
    assert math.isfinite(tr.K_bound) and tr.K_bound > 0
    # the bound from moser_B computed afresh for each j, with C = 2
    log_prod = sum(ex.moser_B(20 - j, 20, 1.0, 1, 1.0)
                   * ex.moser_Kj_log_bound(j, 1.0, 1, 1.0, 2.0) for j in range(1, 21))
    assert tr.K_bound == math.exp(log_prod)
    assert math.isfinite(ex.moser_trace(1.0, 1, 1.0, 1100).K_bound)


def test_moser_trace_bound_beyond_float_range_is_inf():
    assert ex.moser_trace(1.0, 1, 1e6, 1).K_bound == math.inf
