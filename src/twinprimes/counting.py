"""Exact pi(x), twin-pair counts, and the composed count pi(pi(x)).

Twin-pair convention: a pair (p, p+2) is counted once, keyed by its smaller
member, and included iff p + 2 <= x.  Some published tables instead count a
pair as soon as p <= x; the two conventions differ only when p <= x < p + 2
(e.g. (149, 151) at x = 150), and the audit in :mod:`twinprimes.report`
surfaces every such disagreement.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .sieve import Counts, SieveRangeError


class CountCheckpoint(NamedTuple):
    """One sampled row of the hypothesis table."""

    x: int
    pi_x: int
    pi2_x: int
    pi_pi_x: int
    ratio: float  # pi2_x / pi_pi_x, full precision


def count_primes(sieve: Counts, x: int) -> int:
    """pi(x) for 2 <= x <= sieve.limit."""
    return sieve.count_primes_upto(x)


def count_twin_pairs(sieve: Counts, x: int) -> int:
    """Number of twin pairs (p, p+2), both prime, with p + 2 <= x.

    Requires 5 <= x <= sieve.limit.
    """
    if x < 5:
        raise SieveRangeError(f"x={x} below smallest twin-pair bound 5")
    return sieve.count_twins_upto(x)


def composed_count(sieve: Counts, x: int) -> int:
    """pi(pi(x)): the prime count applied to its own value at x (x >= 5)."""
    if x < 5:
        raise SieveRangeError(f"x={x} must be >= 5")
    return sieve.count_primes_upto(sieve.count_primes_upto(x))


def checkpoint_rows(
    sieve: Counts, xs: Sequence[int] | Iterable[int]
) -> list[CountCheckpoint]:
    """Fully populated checkpoint rows for a strictly increasing xs list."""
    xs = list(xs)
    if not xs:
        raise ValueError("xs must be non-empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"xs must be strictly increasing, got {xs}")
    if xs[0] < 5 or xs[-1] > sieve.limit:
        raise ValueError(
            f"checkpoints must lie in [5, {sieve.limit}], got "
            f"[{xs[0]}, {xs[-1]}]"
        )
    rows = []
    for x in xs:
        pi_x = sieve.count_primes_upto(x)
        pi2_x = sieve.count_twins_upto(x)
        pi_pi_x = sieve.count_primes_upto(pi_x)
        rows.append(CountCheckpoint(x, pi_x, pi2_x, pi_pi_x, pi2_x / pi_pi_x))
    return rows
