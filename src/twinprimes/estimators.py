"""Closed-form bounds and estimators for prime and twin-prime counts.

Covers the elementary two-sided Trost bounds on pi(x), the A/B sandwich
around the composed count pi(pi(x)) obtained by feeding those bounds into
themselves, truncated Euler products for the twin prime constant, the
density ratio h = x*pi2(x)/pi(x)**2 with its 5.12 cap, and the calibrated
empirical twin-count estimator round(h_c * pi(x)**2 / x).

Note on the product estimator: the trailing product of (p-1)/(p-2) over odd
primes diverges, so it is only ever evaluated under an explicit truncation
bound and callers are expected to surface that caveat (the CLI prints a
warning).
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle
from typing import Iterable, NamedTuple, Sequence

from .config import DEFAULT_EULER_PMAX, DEFAULT_H_C
from .sieve import Counts, prime_flags

LN_1_5 = math.log(1.5)
LN_1_6 = math.log(1.6)

# Empirical cap on the density ratio h, derived from the upper sandwich
# bound together with pi(x) > x/ln(x).
H_RATIO_CAP = 5.12


class BoundsRow(NamedTuple):
    """One row of the bounds table: a_bound < pi2_x < b_bound expected."""

    x: int
    a_bound: float
    pi2_x: int
    b_bound: float


class EstimateRow(NamedTuple):
    """One row of the estimator table, densities included."""

    x: int
    eta_p: float       # pi(x) / x
    eta_pp: float      # pi2(x) / pi(x)
    h: float           # x * pi2(x) / pi(x)**2
    pi2_x: int
    pi2_star: int
    abs_delta: int
    rel_error: float


def round_half_away(v: float) -> int:
    """Nearest integer, ties away from zero (deterministic across platforms)."""
    if v >= 0:
        return math.floor(v + 0.5)
    return math.ceil(v - 0.5)


def log_grid(lo: int = 5, hi: int = 10**6, n: int = 200) -> array:
    """n log-spaced integers covering [lo, hi]: numpy's geomspace, rounded."""
    start = math.log10(lo)
    step = (math.log10(hi) - start) / max(n - 1, 1)
    inner = (round(10.0 ** (i * step + start)) for i in range(1, n - 1))
    return array("q", [lo, *inner, hi][:n])


def trost_bounds(x: int) -> tuple[float, float]:
    """The elementary bounds 2x/(3 ln x) < pi(x) < 8x/(5 ln x), for x >= 5."""
    if x < 5:
        raise ValueError(f"x must be >= 5, got {x}")
    lx = math.log(x)
    return 2 * x / (3 * lx), 8 * x / (5 * lx)


def sandwich_bounds(x: int) -> tuple[float, float]:
    """Bounds A < pi(pi(x)) < B from composing the Trost bounds with x/ln x.

    A = 4x / (9 ln x [ln x - ln(ln x) - ln 1.5])
    B = 64x / (25 ln x [ln x - ln(ln x) + ln 1.6])
    """
    if x < 5:
        raise ValueError(f"x must be >= 5, got {x}")
    lx = math.log(x)
    llx = math.log(lx)
    # ln x - ln ln x grows for ln x > 1, so A's denominator is >= 0.728.
    a = 4 * x / (9 * lx * (lx - llx - LN_1_5))
    b = 64 * x / (25 * lx * (lx - llx + LN_1_6))
    return a, b


def _p_minus_ones(pmax: int):
    """p - 1.0 for the odd primes p <= pmax, in order, from the flag sieve of
    pmax: 2.0 for 3, then those of 5, 7, 11, 13, ... that it flags."""
    if pmax < 3:
        raise ValueError(f"pmax must be >= 3, got {pmax}")
    hi = (pmax + 1) // 6 + (pmax - 1) // 6  # the candidates <= pmax
    qs = accumulate(cycle((2.0, 4.0)), initial=4.0)
    return chain((2.0,), compress(qs, memoryview(prime_flags(pmax))[:hi]))


@lru_cache(maxsize=16)
def twin_prime_constant(pmax: int) -> float:
    """2 * prod_{3 <= p <= pmax} (1 - 1/(p-1)**2), decreasing in pmax."""
    # q * q is q ** 2 to the bit: exact for even q < 1.89e8, and past 2**27
    # each factor rounds to 1.0 either way.
    return 2.0 * math.prod(1.0 - 1.0 / (q * q) for q in _p_minus_ones(pmax))


def twin_ratio_product(pmax: int) -> float:
    """prod_{3 <= p <= pmax} (p-1)/(p-2); diverges as pmax grows."""
    return math.prod(q / (q - 1.0) for q in _p_minus_ones(pmax))


def hardy_littlewood_simple(x: int, euler_pmax: int = DEFAULT_EULER_PMAX) -> float:
    """Twin-count estimate C2 * x / ln(x) with C2 truncated at euler_pmax.

    Evaluated exactly as written; it overshoots actual twin counts by a
    growing factor, which the audit records as a finding.
    """
    if x < 5:
        raise ValueError(f"x must be >= 5, got {x}")
    return twin_prime_constant(euler_pmax) * x / math.log(x)


def hardy_littlewood_product(x: int, euler_pmax: int = DEFAULT_EULER_PMAX) -> float:
    """Twin-count estimate C2 * x/ln(x)**2 * prod (p-1)/(p-2), truncated.

    The trailing product has no finite limit, so the value is meaningful
    only relative to the explicit truncation euler_pmax.
    """
    if x < 5:
        raise ValueError(f"x must be >= 5, got {x}")
    c = twin_prime_constant(euler_pmax)
    return c * x / math.log(x) ** 2 * twin_ratio_product(euler_pmax)


def density_ratio(x: int, pi_x: int, pi2_x: int) -> float:
    """h = (pi2/pi) / (pi/x) = x * pi2(x) / pi(x)**2."""
    if pi_x <= 0:
        raise ValueError(f"pi_x must be positive, got {pi_x}")
    return x * pi2_x / pi_x**2


def mean_density_ratio(rows: Iterable[EstimateRow]) -> float:
    """Arithmetic mean of the h column; the calibration value for h_c."""
    hs = [row.h for row in rows]
    if not hs:
        raise ValueError("cannot calibrate from an empty row set")
    return math.fsum(hs) / len(hs)


def twin_count_estimate(x: int, pi_x: int, h_c: float = DEFAULT_H_C) -> int:
    """round(h_c * pi(x)**2 / x), ties rounding half away from zero."""
    if x < 5:
        raise ValueError(f"x must be >= 5, got {x}")
    if pi_x <= 0:
        raise ValueError(f"pi_x must be positive, got {pi_x}")
    estimate = h_c * pi_x * pi_x / x
    if not math.isfinite(estimate):
        raise ValueError(f"h_c*pi(x)**2/x is not finite for h_c={h_c}, x={x}")
    return round_half_away(estimate)


def bounds_rows(sieve: Counts, xs: Sequence[int]) -> list[BoundsRow]:
    """Bounds-table rows at the given checkpoints: A, pi2(x) and B."""
    return [BoundsRow(x, a, sieve.count_twins_upto(x), b)
            for x, (a, b) in zip(xs, map(sandwich_bounds, xs))]


def estimate_rows(
    sieve: Counts, xs: Sequence[int], h_c: float = DEFAULT_H_C
) -> list[EstimateRow]:
    """Estimator-table rows (densities, h, estimate, and its error) at xs."""
    rows = []
    for x in xs:
        pi_x = sieve.count_primes_upto(x)
        pi2_x = sieve.count_twins_upto(x)
        star = twin_count_estimate(x, pi_x, h_c)
        delta = abs(pi2_x - star)
        rows.append(
            EstimateRow(
                x=x,
                eta_p=pi_x / x,
                eta_pp=pi2_x / pi_x,
                h=density_ratio(x, pi_x, pi2_x),
                pi2_x=pi2_x,
                pi2_star=star,
                abs_delta=delta,
                rel_error=delta / pi2_x,  # pi2(x) >= 1: (3, 5)
            )
        )
    return rows
