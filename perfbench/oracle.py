"""Independent answers for the query workload: a plain numpy bool sieve.

Shares no code with twinprimes.  pi[n] is the number of primes <= n and
twin_lo[n] the number of primes p <= n with p + 2 also prime, so the number
of twin pairs (p, p + 2) with p + 2 <= x is twin_lo[x - 2].
"""

from __future__ import annotations

import math

import numpy as np


class Oracle:
    def __init__(self, limit: int):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        self.flags = flags
        self.pi = np.cumsum(flags, dtype=np.int32)
        twins = np.zeros(limit + 1, dtype=bool)
        twins[:-2] = flags[:-2] & flags[2:]
        self.twin_lo = np.cumsum(twins, dtype=np.int32)

    def count_primes(self, xs: np.ndarray) -> np.ndarray:
        return self.pi[xs]

    def count_twin_pairs(self, xs: np.ndarray) -> np.ndarray:
        return self.twin_lo[xs - 2]

    def composed_count(self, xs: np.ndarray) -> np.ndarray:
        return self.pi[self.pi[xs]]

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        return np.flatnonzero(self.flags[lo : hi + 1]) + lo
