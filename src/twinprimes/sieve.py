"""Segmented, odd-only sieve of Eratosthenes with O(1) prefix counting.

The sieve stores one bit per odd number in [3, limit] (2 is special-cased)
in little-endian 64-bit words, plus one cumulative popcount of primes and
one of twin bits per block of _BLOCK words (a rank directory in the sense
of Jacobson 1989 and Vigna 2008).  Prime and twin-pair counts up to any
x <= limit are answered in constant time after construction: one
cumulative count plus the popcount of one masked span of at most a block;
twin bits are derived from that span, never stored.  The store is sieved
in windows of SEGMENT_SIZE odd numbers, on one thread or several; neither
choice changes a bit of it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Odd candidates per sieve window, a multiple of 8; read by each build, so
# tests may patch it.  Benchmarked 2**18..2**23 at limit 3.7e7: 2**20 (1 MiB
# unpacked window, 128 KiB packed) came out fastest, with 2**19..2**21
# within ~7% of each other.
SEGMENT_SIZE = 1 << 20

# Construction refuses to allocate more than this unless overridden.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

# Words per cumulative count: one int64 per 512 bits of store.
_BLOCK = 8

# Words per slice of the block-count pass (512 KiB); a multiple of _BLOCK.
_SHIFT_BLOCK = 1 << 16


class SieveRangeError(ValueError):
    """A query fell outside the sieved range; never silently answered."""


class MemoryBudgetError(MemoryError):
    """Requested limit needs more memory than the configured budget."""

    def __init__(self, required_bytes: int, budget_bytes: int):
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"sieve needs ~{required_bytes:,} bytes "
            f"but the budget is {budget_bytes:,} bytes"
        )


def small_primes(limit: int, *, held_bytes: int = 0) -> np.ndarray:
    """All primes <= limit via a plain unsegmented boolean sieve.

    Bootstrap helper for the segmented sieve and for Euler products; fine up
    to a few 10**7, do not use for the main store.  Refuses, before
    allocating, a limit whose arrays, plus the held_bytes that the caller
    builds from them, could exceed DEFAULT_MEMORY_BUDGET.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # One flag byte per n, plus two int64 arrays of at most
    # 1.25506 n / ln n primes (Rosser and Schoenfeld 1962).
    required = held_bytes + limit + 1 + 16 * math.ceil(
        1.25506 * limit / math.log(limit))
    if required > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(required, DEFAULT_MEMORY_BUDGET)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def _prefix_count(words: np.ndarray, cum: np.ndarray, k: int,
                  twin: bool = False) -> int:
    """Set bits among bit indices [0, k) of a word store, k >= 0; with twin,
    the bits i for which bits i and i + 1 are both set."""
    b, rem = divmod(k, 64 * _BLOCK)
    # Block b's words up to the one holding bit k, which twin bit k - 1 reads.
    span = int.from_bytes(words[_BLOCK * b : (k >> 6) + 1].tobytes(), "little")
    if twin:
        span &= span >> 1
    return cum.item(b) + (span & ((1 << rem) - 1)).bit_count()


def _block_counts(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cum[b] = set bits, and twin bits, in words[:_BLOCK * b], for b in
    [0, len(words) // _BLOCK]; len(words) is a multiple of _BLOCK."""
    prime_cum = np.zeros(len(words) // _BLOCK + 1, dtype=np.int64)
    twin_cum = np.zeros_like(prime_cum)
    twins = np.empty(min(len(words), _SHIFT_BLOCK), dtype=words.dtype)
    for lo in range(0, len(words), _SHIFT_BLOCK):
        w = words[lo : lo + _SHIFT_BLOCK]
        nxt = words[lo + 1 : lo + _SHIFT_BLOCK + 1]  # the bit past the end is 0
        t = np.right_shift(w, 1, out=twins[: len(w)])
        t[: len(nxt)] |= nxt << 63
        t &= w
        blocks = slice(lo // _BLOCK + 1, (lo + len(w)) // _BLOCK + 1)
        for cum, bits in ((prime_cum, w), (twin_cum, t)):
            cum[blocks] = np.bitwise_count(bits).reshape(-1, _BLOCK).sum(axis=1)
    np.cumsum(prime_cum, out=prime_cum)
    np.cumsum(twin_cum, out=twin_cum)
    return prime_cum, twin_cum


def _worker_count(threads: int, n_segments: int) -> int:
    """Threads the build really starts: never more than segments or CPUs."""
    return max(1, min(threads, n_segments, os.cpu_count() or 1))


class PrimeSieve:
    """Immutable primality store over [2, limit].

    Odd numbers in [3, limit] map to bit i <-> n = 2*i + 3 of a store of
    little-endian uint64 words, zero-padded to whole blocks of _BLOCK words.
    Bit i is a twin bit, the lower member of a twin pair, iff bits i and
    i + 1 are both set.  Cumulative counts of primes and of twin bits, one
    int64 each per block, are the only other arrays.  Construction may fan
    segments out over threads; the result is bit-identical to the sequential
    build, and instances are safe for concurrent reads afterwards.
    """

    __slots__ = ("limit", "_words", "_prime_cum", "_twin_cum")

    def __init__(self, limit, words, prime_cum, twin_cum):
        self.limit = limit
        self._words = words
        self._prime_cum = prime_cum
        self._twin_cum = twin_cum

    def _check_range(self, n: int, what: str = "n") -> None:
        if not 2 <= n <= self.limit:
            raise SieveRangeError(
                f"{what}={n} outside sieved range [2, {self.limit}]"
            )

    def is_prime(self, n: int) -> bool:
        """Exact primality for 2 <= n <= limit; out of range raises."""
        self._check_range(n)
        if n == 2:
            return True
        if n % 2 == 0:
            return False
        i = (n - 3) // 2
        return bool((self._words.item(i >> 6) >> (i & 63)) & 1)

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """Strictly increasing array of all primes in [lo, hi]."""
        self._check_range(lo, "lo")
        self._check_range(hi, "hi")
        if lo > hi:
            raise SieveRangeError(f"empty range bounds lo={lo} > hi={hi}")
        head = np.array([2] if lo <= 2 else [], dtype=np.int64)
        a = max(lo, 3) | 1  # the first odd number >= max(lo, 3)
        b = hi if hi % 2 else hi - 1
        if a > b:
            return head
        ia, ib = (a - 3) // 2, (b - 3) // 2
        lo_byte, hi_byte = ia >> 3, (ib >> 3) + 1
        store = self._words.view(np.uint8)
        flags = np.unpackbits(store[lo_byte:hi_byte], bitorder="little")
        window = flags[ia - 8 * lo_byte : ib - 8 * lo_byte + 1]
        idx = np.flatnonzero(window).astype(np.int64, copy=False) + ia
        return np.concatenate([head, 2 * idx + 3])

    def count_primes_upto(self, x: int) -> int:
        """pi(x), exact, for 2 <= x <= limit."""
        self._check_range(x, "x")
        return 1 + _prefix_count(self._words, self._prime_cum, (x - 1) // 2)

    def count_twins_upto(self, x: int) -> int:
        """Twin pairs (p, p+2) with p + 2 <= x, for 2 <= x <= limit."""
        self._check_range(x, "x")
        if x < 5:
            return 0
        return _prefix_count(self._words, self._twin_cum, (x - 5) // 2 + 1, True)


def _estimate_bytes(limit: int, threads: int) -> int:
    """Upper bound on the bytes a build allocates, every array counted at once."""
    n_odd = (limit - 1) // 2
    blocks = -(-n_odd // (64 * _BLOCK))
    store = 8 * _BLOCK * blocks                # <u8 words in whole blocks
    root = math.isqrt(limit)
    base = root + 1 + 56 * (root // 2 + 1)     # flags, int64s, list of ints
    window = SEGMENT_SIZE + SEGMENT_SIZE // 8  # bool window + packed bytes
    workers = _worker_count(threads, -(-n_odd // SEGMENT_SIZE))
    shift = 18 * _SHIFT_BLOCK                  # twin and shifted words, counts
    cums = 2 * 8 * (blocks + 1)                # int64 per block, plus a total
    return base + workers * window + store + shift + cums


def build_sieve(
    limit: int,
    *,
    threads: int = 1,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> PrimeSieve:
    """Build an immutable PrimeSieve for [2, limit].

    Windows of SEGMENT_SIZE odd candidates are sieved one at a time;
    threads > 1 sieves them concurrently with bit-identical results, on at
    most one thread per window and per CPU.
    """
    if limit < 5:
        raise ValueError(f"limit must be >= 5, got {limit}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    segment_size = SEGMENT_SIZE
    required = _estimate_bytes(limit, threads)
    if required > memory_budget:
        raise MemoryBudgetError(required, memory_budget)

    n_odd = (limit - 1) // 2
    base = small_primes(math.isqrt(limit))
    odd_base = [int(p) for p in base if p > 2]
    n_segments = -(-n_odd // segment_size)
    workers = _worker_count(threads, n_segments)
    # Bit i lives in bit i % 64 of word i // 64 and in bit i % 8 of byte
    # i // 8 of the same buffer, whatever the host's byte order.
    words = np.zeros(_BLOCK * -(-n_odd // (64 * _BLOCK)), dtype="<u8")
    store = words.view(np.uint8)
    seg_bytes = segment_size // 8

    def sieve_segment(k: int, seg: np.ndarray) -> None:
        lo_i = k * segment_size
        hi_i = min(lo_i + segment_size, n_odd)
        seg[:] = True
        if hi_i - lo_i < segment_size:
            seg[hi_i - lo_i :] = False
        lo_n = 2 * lo_i + 3
        hi_n = 2 * (hi_i - 1) + 3
        for p in odd_base:
            start = p * p
            if start > hi_n:
                break
            if start < lo_n:
                start = ((lo_n + p - 1) // p) * p
                if start % 2 == 0:
                    start += p
                if start > hi_n:
                    continue
            seg[(start - lo_n) // 2 :: p] = False
        out = store[k * seg_bytes : (k + 1) * seg_bytes]
        out[:] = np.packbits(seg, bitorder="little")[: len(out)]

    def sieve_segments(first: int) -> None:
        # Every workers-th window from first on, in one reused buffer: the
        # pool holds one task and one window per worker, not one per window.
        seg = np.empty(segment_size, dtype=bool)
        for k in range(first, n_segments, workers):
            sieve_segment(k, seg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(sieve_segments, range(workers)))  # re-raises
    else:
        sieve_segments(0)

    return PrimeSieve(limit, words, *_block_counts(words))
