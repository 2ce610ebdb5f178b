"""Inclusion-exclusion prime counting: phi(y, r) two ways, which bounds
pi(y) <= phi(y, r) + r, and the bound it yields on the density pi(y)/y.

phi(y, r) counts naturals <= y (1 included) divisible by none of the first
r primes.  Two independent evaluations, neither recursive nor memoized,
are kept permanently as mutual oracles: the two-argument recurrence,
unrolled level by level down to a wheel base case (Lagarias, Miller and
Odlyzko 1985): phi(v, k) = (v // m)*phi(m, k) + phi(v % m, k) for the first
k = min(r, 4) primes and their product m; and the direct signed Moebius sum
over squarefree products of the first r primes, one sorted list per row of
y.  All arithmetic is exact integer arithmetic; floor(y/d) is integer division.

The classical choice r = pi(sqrt(y)) is one selectable instance; r stays a
free parameter here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .sieve import small_primes

MAX_MOBIUS_R = 25  # 2**r terms; beyond this the direct sum is refused

_LN2 = math.log(2)

# (m, T) for the first k = 0..4 primes: m their product, T[i] = phi(i, k).
_WHEELS = [(m, [*accumulate((math.gcd(n, m) == 1 for n in range(1, m + 1)),
                            initial=0)]) for m in (1, 2, 6, 30, 210)]


# Both phi routes call this on every evaluation.  One result only: the
# budget admitted the one tuple, not several together.
@lru_cache(maxsize=1)
def first_primes(r: int) -> tuple[int, ...]:
    """The first r primes, strictly increasing from 2."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    # p_r < r (ln r + ln ln r) for r >= 6 (Rosser 1941), and p_5 = 11.
    bound = 15 if r < 6 else int(r * (math.log(r) + math.log(math.log(r))))
    # The tuple takes 40 bytes per prime: an 8-byte slot, a 32-byte int.
    return tuple(small_primes(bound, held_bytes=40 * r)[:r])


def phi_recursive(y: int, r: int) -> int:
    """phi(y, r) by the recurrence phi(y, r) = phi(y, r-1) - phi(y//P_r, r-1).

    Unrolled level by level as ones + sum(c * phi(v, k)) over a map from
    the values v = floor(y/d) (at most ~2*sqrt(y)) to signed multiplicities
    c, from {y: 1} at k = r down to k = min(r, 4), where each term is read
    off its wheel.  A term with v < P_k is settled into ones: every n in
    [2, v] has a prime factor below P_k, so phi(v, k) = 1.
    """
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if y < 2:
        return y
    k, terms, ones = min(r, 4), {y: 1}, 0
    for p in reversed(first_primes(r)[k:]):
        below = {}
        for v, c in terms.items():
            if v < p:
                ones += c
                continue
            below[v] = below.get(v, 0) + c
            below[v // p] = below.get(v // p, 0) - c
        terms = below
    m, wheel = _WHEELS[k]
    return ones + sum(c * ((v // m) * wheel[m] + wheel[v % m])
                      for v, c in terms.items())


def phi_mobius_row(ys: Sequence[int], r: int) -> list[int]:
    """phi(y, r) at each y of ys, as the signed sum of floor(y/d) over the
    squarefree divisors d <= y of the product of the first r primes.

    Divisors exceeding max(ys) are pruned during generation (their floor
    terms are zero), so the cost is the number of surviving divisors, not
    2**r; r is still capped because the unpruned term count doubles.
    """
    if min(ys, default=0) < 0:
        raise ValueError(f"y must be >= 0, got {min(ys)}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r > MAX_MOBIUS_R:
        raise ValueError(
            f"r={r} would expand into 2**{r} Moebius terms; "
            f"the direct sum is capped at r={MAX_MOBIUS_R}"
        )
    top, divisors = max(ys, default=0), [(1, 1)]
    for p in first_primes(r):
        divisors += [(d * p, -s) for d, s in divisors if d * p <= top]
    divisors.sort()  # so the d <= y are the pairs up to (y, 1)
    return [sum([s * (y // d) for d, s in divisors[:bisect_right(
        divisors, (y, 1))]]) for y in ys]


def phi_mobius(y: int, r: int) -> int:
    """phi(y, r) by the Moebius sum: phi_mobius_row at [y]."""
    return phi_mobius_row([y], r)[0]


def density_upper_bound(c: float, y: int) -> float:
    """1/(ln(c) + ln(ln(y))) + 2*y**(c*ln(2) - 1), r = c*ln(y): the bound
    on the prime density pi(y)/y.

    Requires c*ln(2) < 1 (so 2**r < y) and ln(c) + ln(ln(y)) > 0 (positive
    denominator); violations are rejected up front.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got c={c}")
    if c * _LN2 >= 1:
        raise ValueError(
            f"c*ln(2) = {c * _LN2:.6f} must be < 1 (c < {1 / _LN2:.6f})"
        )
    if y < 2:
        raise ValueError(f"y must be >= 2, got y={y}")
    denominator = math.log(c) + math.log(math.log(y))
    if denominator <= 0:
        raise ValueError(f"ln(c) + ln(ln(y)) = {denominator:.6f} must be > 0")
    return 1.0 / denominator + 2.0 * y ** (c * _LN2 - 1.0)
