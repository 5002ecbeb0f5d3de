"""Decay exponents and iteration constants for degenerate diffusion with advection.

Every closed form here has a brute-force companion (``*_bruteforce``) computing
the same quantity as a literal product or sum, so the algebra can be
cross-checked without trusting either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


def _check_params(n: int, q: float, alpha: float, sums: bool = False,
                  m: int | None = None) -> None:
    """Admissible n, q and alpha; with `sums`, also the closed forms' denominators
    4q + 2n alpha (twice 2q + n alpha) and nq + 2q + 2n alpha finite; with `m`,
    an iteration count >= 1."""
    if n < 1 or int(n) != n:
        raise ConfigError(f"dimension must be a positive integer, got {n}")
    if not 1 <= q < math.inf:
        raise ConfigError(f"integrability index q must be finite and >= 1, got {q}")
    if not 0 < alpha < math.inf:
        raise ConfigError(f"diffusion exponent alpha must be finite and > 0, got {alpha}")
    if sums and not math.isfinite(max(4.0 * q, n * q + 2.0 * q) + 2.0 * n * alpha):
        raise ConfigError(f"q={q}, n={n} and alpha={alpha} overflow the denominator "
                          "4q + 2n alpha or nq + 2q + 2n alpha")
    if m is not None and m < 1:
        raise ConfigError(f"iteration count must be >= 1, got {m}")


def smoothing_exponents(n: int, p0: float, alpha: float) -> tuple[float, float]:
    """Exponents (delta0, gamma0) of the L^p0 -> L^inf smoothing bound
    ||u(t)||_inf <= K ||u0||_p0^delta0 t^(-gamma0)."""
    _check_params(n, p0, alpha)
    den = 2.0 * p0 + n * alpha
    return 2.0 * p0 / den, n / den


def halving_exponents(n: int, q: float, alpha: float) -> tuple[float, float]:
    """Exponents (delta, kappa) of the one-step norm-halving estimate
    ||u(t)||_q <= K_q ||u(t0)||_{q/2}^delta (t-t0)^(-kappa)."""
    _check_params(n, q, alpha)
    den = 2.0 * q + 2.0 * n * alpha
    return (2.0 * q + n * alpha) / den, n / den


@dataclass(frozen=True)
class ExponentSet:
    """The interpolation triple beta, theta, gamma for one (n, q, alpha)."""

    theta: float
    beta: float
    gamma: float


def exponent_set(n: int, q: float, alpha: float) -> ExponentSet:
    _check_params(n, q, alpha, sums=True)
    beta = 2.0 * q / (q + alpha)
    theta = n * (q + alpha) / (n * q + 2.0 * q + 2.0 * n * alpha)
    gamma = 2.0 / (2.0 - theta * beta)  # theta*beta = 2nq/(nq + 2q + 2n alpha) < 2
    return ExponentSet(theta=theta, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# Iteration sequences A_m, B_j over the dyadic norm scale 2^j q.
# ---------------------------------------------------------------------------

def moser_A(m: int, q: float, n: int, alpha: float) -> float:
    """Accumulated norm exponent after m dyadic halving steps (closed form)."""
    _check_params(n, q, alpha, m=m)
    na = n * alpha
    return (2.0 * q + na * 2.0 ** (-m)) / (2.0 * q + na)


def moser_A_bruteforce(m: int, q: float, n: int, alpha: float) -> float:
    na = n * alpha
    prod = 1.0
    for j in range(1, m + 1):
        prod *= (2.0 ** j * 2.0 * q + na) / (2.0 ** j * 2.0 * q + 2.0 * na)
    return prod


def moser_B(j: int, m: int, q: float, n: int, alpha: float) -> float:
    """Exponent weight of the j-th iterate's constant (closed form); B_0 = 1."""
    _check_params(n, q, alpha)
    if j > m:
        raise ConfigError(f"weight index {j} exceeds iteration count {m}")
    if j < 0:
        raise ConfigError(f"weight index must be >= 0, got {j}")
    if j == 0:
        return 1.0
    na = n * alpha
    return (2.0 * q + na * 2.0 ** (-m)) / (2.0 * q + na * 2.0 ** (j - m))


def moser_B_bruteforce(j: int, m: int, q: float, n: int, alpha: float) -> float:
    na = n * alpha
    prod = 1.0
    for k in range(j):
        prod *= (2.0 ** (m - k) * 2.0 * q + na) / (2.0 ** (m - k) * 2.0 * q + 2.0 * na)
    return prod


def moser_exponent_sum(m: int, q: float, n: int, alpha: float) -> float:
    """Accumulated time exponent S_m = sum_{j=1}^m -n/(2^j 2q + 2n alpha) B_{m-j}
    (closed form, through 2^-m factors so that no large m overflows)."""
    _check_params(n, q, alpha, m=m)
    na = n * alpha
    pref = 2.0 * n * (2.0 * q + na * 2.0 ** (-m)) / (2.0 * q)
    bracket = 1.0 / (4.0 * q + 2.0 * na) - 2.0 ** (-m) / (4.0 * q + 2.0 * na * 2.0 ** (-m))
    return -pref * bracket


def moser_exponent_sum_bruteforce(m: int, q: float, n: int, alpha: float) -> float:
    na = n * alpha
    total = 0.0
    for j in range(1, m + 1):
        total += -n / (2.0 ** j * 2.0 * q + 2.0 * na) * moser_B_bruteforce(m - j, m, q, n, alpha)
    return total


def moser_limits(q: float, n: int, alpha: float) -> tuple[float, float]:
    """(lim A_m, lim S_m) as m -> inf: (2q/(2q+n alpha), -n/(2q+n alpha))."""
    _check_params(n, q, alpha, sums=True)
    den = 2.0 * q + n * alpha
    return 2.0 * q / den, -n / den


def moser_time_grid(m: int, t: float) -> list[float]:
    """Dyadic time ladder t_0 = 2^-m t, t_j = t_0 + (1 - 2^-j) t, ending at t; a
    ConfigError when it does not increase strictly in floats (from about m = 53)."""
    if m < 1:
        raise ConfigError(f"iteration count must be >= 1, got {m}")
    if not 0 < t < math.inf:
        raise ConfigError(f"final time must be finite and > 0, got {t}")
    t0 = 2.0 ** (-m) * t
    ladder = [t0] + [t0 + (1.0 - 2.0 ** (-j)) * t for j in range(1, m + 1)]
    if not all(a < b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"time ladder for m={m}, t={t!r} is not strictly increasing")
    return ladder


# stand-in value of the interpolation constant in the K_bound of moser_trace
INTERPOLATION_C = 2.0


def moser_Kj_log_bound(j: int, q: float, n: int, alpha: float, C: float) -> float:
    """Log of the upper bound for the j-th iterate's multiplicative constant,
    given a stand-in value C for the interpolation constant.

    Stable for large j: both exponents are computed through 2^-j factors.
    """
    _check_params(n, q, alpha)
    if j < 1:
        raise ConfigError(f"iterate index must be >= 1, got {j}")
    if not 0 < C < math.inf:
        raise ConfigError(f"interpolation constant C must be finite and > 0, got {C}")
    # q >= 1 and j >= 1 give 2^j q > 1, so the logs below are defined
    c_exp = (n + 2.0) * 2.0 ** (-j) / (2.0 * q) + 2.0 * n * alpha * 4.0 ** (-j) / q
    # bracket = (2^j q + alpha)^2 / (2^j 4q (2^j q - 1)), taken in log space
    log_num = 2.0 * (j * math.log(2.0) + math.log(q + alpha * 2.0 ** (-j)))
    log_den = (j * math.log(2.0) + math.log(4.0 * q)
               + j * math.log(2.0) + math.log(q - 2.0 ** (-j)))
    b_exp = n * 2.0 ** (-j) / (2.0 * q)
    return c_exp * math.log(C) + b_exp * (log_num - log_den)


@dataclass(frozen=True)
class MoserTrace:
    """Full record of one iteration run: the norm exponents A_1..A_m, the
    exponent sums S_1..S_m, and the bound on the accumulated constant product
    (inf beyond the float range)."""

    A: list[float]
    S: list[float]
    K_bound: float


def moser_trace(q: float, n: int, alpha: float, m: int) -> MoserTrace:
    _check_params(n, q, alpha, sums=True, m=m)
    A = [moser_A(k, q, n, alpha) for k in range(1, m + 1)]
    S = [moser_exponent_sum(k, q, n, alpha) for k in range(1, m + 1)]
    log_prod = sum(moser_B(m - j, m, q, n, alpha)
                   * moser_Kj_log_bound(j, q, n, alpha, INTERPOLATION_C)
                   for j in range(1, m + 1))
    try:
        K_bound = math.exp(log_prod)
    except OverflowError:  # the bound exceeds the float range
        K_bound = math.inf
    return MoserTrace(A=A, S=S, K_bound=K_bound)
