"""Slow independent oracles.

Everything here is deliberately implemented without touching the package
internals: trial division for primality, direct divisibility scans for the
inclusion-exclusion counts, and exact rational / high-precision arithmetic
for products.  Expected values frozen into tests were produced by these.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto_trial(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime_trial(n)]


def prime_prefix_counts(limit: int) -> list[int]:
    """counts[x] = number of primes <= x, for every x in [0, limit]."""
    counts = [0] * (limit + 1)
    running = 0
    for n in range(limit + 1):
        if is_prime_trial(n):
            running += 1
        counts[n] = running
    return counts


def twin_prefix_counts(limit: int) -> list[int]:
    """counts[x] = number of pairs (p, p+2), both prime, with p + 2 <= x."""
    counts = [0] * (limit + 1)
    running = 0
    for n in range(limit + 1):
        if n >= 5 and is_prime_trial(n) and is_prime_trial(n - 2):
            running += 1
        counts[n] = running
    return counts


class PrefixCounts:
    """pi(x) and pi2(x) for every 2 <= x <= limit, from a plain sieve of
    Eratosthenes over every integer; any other x raises ValueError."""

    def __init__(self, limit: int):
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
        self.limit = limit
        self._primes = list(compress(range(limit + 1), flags))
        # The upper member q + 2 of each twin pair (q, q + 2).
        self._twin_tops = [p for p in self._primes if p > 3 and flags[p - 2]]

    def _upto(self, values: list[int], x: int) -> int:
        if not 2 <= x <= self.limit:
            raise ValueError(f"x={x} outside [2, {self.limit}]")
        return bisect_right(values, x)

    def count_primes_upto(self, x: int) -> int:
        return self._upto(self._primes, x)

    def primes_upto(self, x: int) -> list[int]:
        return self._primes[: self.count_primes_upto(x)]

    def count_twins_upto(self, x: int) -> int:
        return self._upto(self._twin_tops, x)


def phi_scan(y: int, r: int, primes: list[int]) -> int:
    """Count 1 <= n <= y with n divisible by none of primes[:r]."""
    lead = primes[:r]
    return sum(1 for n in range(1, y + 1) if all(n % p for p in lead))


def phi_scan_many(ys, r: int, primes: list[int]) -> dict[int, int]:
    """phi_scan at each y of ys, from one scan up to the largest."""
    lead, wanted, found, running = primes[:r], set(ys), {}, 0
    for n in range(0, max(wanted) + 1):
        running += n > 0 and all(n % p for p in lead)
        if n in wanted:
            found[n] = running
    return found


def twin_constant_exact(pmax: int) -> Fraction:
    """2 * prod_{3 <= p <= pmax} (1 - 1/(p-1)^2) as an exact rational."""
    acc = Fraction(2)
    for p in primes_upto_trial(pmax):
        if p >= 3:
            acc *= 1 - Fraction(1, (p - 1) ** 2)
    return acc


def ratio_product_exact(pmax: int) -> Fraction:
    """prod_{3 <= p <= pmax} (p-1)/(p-2) as an exact rational."""
    acc = Fraction(1)
    for p in primes_upto_trial(pmax):
        if p >= 3:
            acc *= Fraction(p - 1, p - 2)
    return acc
