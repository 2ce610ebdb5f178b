"""Segmented, odd-only sieve of Eratosthenes: a word store with O(1) prefix
counting, and a pass that counts at given points in O(sqrt(x)) memory.

One generator, _windows, sieves windows of SEGMENT_SIZE odd numbers in
order, one bit per odd number (2 is special-cased) in little-endian 64-bit
words, on one thread or several.  Each window starts as a copy of a tiled
pattern with the odd multiples of 3, 5, 7, 11 and 13 already cleared
(primesieve's pre-sieve, period 15,015 odd numbers), so only the larger
base primes are written one by one, from first multiples computed for all
of them at once.  build_sieve copies the windows into a store with one
cumulative popcount of primes and one of twin bits per block of _BLOCK
words (a rank directory in the sense of Jacobson 1989 and Vigna 2008): a
count up to any x <= limit is one cumulative count plus the popcount of one
masked span of at most a block, from which twin bits are derived.
count_at reads the same windows up to its largest point and keeps no
store, only the base primes, one window per thread and its answers: it
answers each point inside a window, and totals the window, with the store's
block counter, _block_counts, and query, _prefix_count, on that window
alone; within one window it counts on _odd_flags without numpy.  Each
window is sieved one odd number past its end, so a twin pair that straddles
two windows is the first's, and the windows' totals add up.  A second pass
gives pi(pi(x)).
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from itertools import chain, compress
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Odd candidates per sieve window, a multiple of 8; read by each build, so
# tests may patch it.  Benchmarked 2**18..2**23 at limit 3.7e7: 2**20 (1 MiB
# unpacked window, 128 KiB packed) came out fastest, with 2**19..2**21
# within ~7% of each other.
SEGMENT_SIZE = 1 << 20

# Construction refuses to allocate more than this unless overridden.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

# The pre-sieve primes; their pattern repeats every _PERIOD odd numbers.
_PRESIEVE = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_PRESIEVE)

# Words per cumulative count: one int64 per 512 bits of store.
_BLOCK = 8

# Words per slice of the block-count pass (512 KiB); a multiple of _BLOCK.
_SHIFT_BLOCK = 1 << 16


class SieveRangeError(ValueError):
    """A query fell outside the sieved range; never silently answered."""


class MemoryBudgetError(MemoryError):
    """A run would allocate more than the memory budget leaves: the bytes
    it requested, on top of those the process holds, exceed the budget."""

    def __init__(self, required_bytes: int, held_bytes: int, budget_bytes: int):
        self.required_bytes = required_bytes
        self.held_bytes = held_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"~{required_bytes:,} bytes requested on top of {held_bytes:,} "
            f"held would pass the memory budget of {budget_bytes:,} bytes"
        )


def _rss_bytes() -> int:
    """The process's resident set size now; 0 where /proc is missing."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def _admit(required: int, budget: int) -> None:
    """Refuse, before allocating, `required` more bytes unless they fit in
    `budget` on top of what the process holds now."""
    held = _rss_bytes()
    if required + held > budget:
        raise MemoryBudgetError(required, held, budget)


def _odd_flags(limit: int) -> bytearray:
    """flags[i] == 1 iff 2i + 3 is prime, for the odd numbers in [3, limit]."""
    flags = bytearray(b"\x01") * ((limit - 1) // 2)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[(p - 3) // 2]:
            start = (p * p - 3) // 2
            flags[start::p] = bytearray(len(range(start, len(flags), p)))
    return flags


def small_primes(limit: int, *, held_bytes: int = 0) -> array:
    """All primes <= limit, as array('q'), from one unsegmented sieve.

    Bootstrap helper for the segmented sieve and for Euler products; fine up
    to a few 10**7, do not use for the main store.  Refuses, before
    allocating, a limit whose arrays, plus the held_bytes that the caller
    builds from them, could take the process past DEFAULT_MEMORY_BUDGET.
    """
    if limit < 2:
        return array("q")
    # Odd flags and a third more (bytearray zeros), small objects, 9 bytes
    # per prime (8, growth), <= 1.25506 n / ln n primes (Rosser-Schoenfeld).
    required = held_bytes + 2 * limit // 3 + 16384 + 9 * math.ceil(
        1.25506 * limit / math.log(limit))
    _admit(required, DEFAULT_MEMORY_BUDGET)
    return array("q", chain((2,), compress(range(3, limit + 1, 2),
                                           _odd_flags(limit))))


def _windows(limit: int, odd_base: array, ks: range):
    """Yield (k, words) for each window k in ks, in order, of SEGMENT_SIZE
    odd numbers in [3, limit], given the odd primes up to sqrt(limit).
    words is whole blocks of _BLOCK words; its bit j is store bit
    k * SEGMENT_SIZE + j for j <= SEGMENT_SIZE, one past the window, so that
    its last twin bit is whole; 0 past that and past limit."""
    import numpy as np
    segment_size = SEGMENT_SIZE
    n_odd = (limit - 1) // 2
    # One reused flag per odd number and one past, padded to whole blocks
    # with False.
    seg = np.empty(64 * _BLOCK * (segment_size // (64 * _BLOCK) + 1),
                   dtype=bool)
    rows, tail = divmod(len(seg), _PERIOD)
    # Two periods of flags for the odd numbers from 3, False at the odd
    # multiples of the pre-sieve primes, so that a whole period can be read
    # from any offset in the first.
    pattern = np.ones(2 * _PERIOD, dtype=bool)
    for p in _PRESIEVE:
        pattern[(p - 3) // 2 :: p] = False
    # Bit (p - 3) / 2 + m * p is an odd multiple of p, bit (p * p - 3) / 2
    # the first that a window clears.
    primes = np.asarray(odd_base[len(_PRESIEVE):], dtype=np.int64)
    steps = primes.tolist()
    residues, squares = (primes - 3) // 2, (primes * primes - 3) // 2
    for k in ks:
        lo_i = k * segment_size
        hi_i = min(lo_i + segment_size + 1, n_odd)
        row = pattern[lo_i % _PERIOD :][:_PERIOD]
        seg[: rows * _PERIOD].reshape(rows, _PERIOD)[:] = row
        seg[rows * _PERIOD :] = row[:tail]
        if k == 0:  # the pattern cleared the pre-sieve primes themselves
            seg[[(p - 3) // 2 for p in _PRESIEVE]] = True
        seg[hi_i - lo_i :] = False
        # The first bit each prime clears in this window; primes whose
        # square lies past it clear none.
        n = int(np.searchsorted(squares, hi_i))
        firsts = np.maximum((residues[:n] - lo_i) % primes[:n],
                            squares[:n] - lo_i)
        for start, p in zip(firsts.tolist(), steps):
            seg[start::p] = False
        # Bit j lands in bit j % 8 of byte j // 8, so in bit j % 64 of
        # little-endian word j // 64, whatever the host's byte order.
        yield k, np.packbits(seg, bitorder="little").view("<u8")


def _worker_count(threads: int, n_windows: int) -> int:
    """Threads a pass really starts: never more than windows or CPUs."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, n_windows, os.cpu_count() or 1))


def _fan_out(work, threads: int, n_windows: int) -> list:
    """[work(ks) for each worker's run ks of windows], the runs contiguous,
    non-empty and in order: one task, and one window, per worker."""
    workers = _worker_count(threads, n_windows)
    runs = [range(i * n_windows // workers, (i + 1) * n_windows // workers)
            for i in range(workers)]
    if workers == 1:
        return [work(runs[0])]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, runs))  # re-raises


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
    [0, len(words) // _BLOCK]; len(words) is a multiple of _BLOCK.  Twin
    bit i is set iff bits i and i + 1 are, and the bit past the end reads
    as 0."""
    import numpy as np
    prime_cum = np.zeros(len(words) // _BLOCK + 1, dtype=np.int64)
    twin_cum = np.zeros_like(prime_cum)
    twins = np.empty(min(len(words), _SHIFT_BLOCK), dtype=words.dtype)
    shifted = np.empty_like(twins)
    for lo in range(0, len(words), _SHIFT_BLOCK):
        w = words[lo : lo + _SHIFT_BLOCK]
        nxt = words[lo + 1 : lo + _SHIFT_BLOCK + 1]  # the word after each
        t = np.right_shift(w, 1, out=twins[: len(w)])
        t[: len(nxt)] |= np.left_shift(nxt, 63, out=shifted[: len(nxt)])
        t &= w
        blocks = slice(lo // _BLOCK + 1, (lo + len(w)) // _BLOCK + 1)
        for cum, bits in ((prime_cum, w), (twin_cum, t)):
            cum[blocks] = np.add.reduceat(np.bitwise_count(bits),
                                          np.arange(0, len(bits), _BLOCK),
                                          dtype=np.int64)
    np.cumsum(prime_cum, out=prime_cum)
    np.cumsum(twin_cum, out=twin_cum)
    return prime_cum, twin_cum


class PrimeSieve:
    """Immutable primality store over [2, limit].

    Odd numbers in [3, limit] map to bit i <-> n = 2*i + 3 of a store of
    little-endian uint64 words, zero-padded to whole blocks of _BLOCK words:
    the first SEGMENT_SIZE bits of each window of _windows, end to end.  Bit
    i is a twin bit, the lower member of a twin pair, iff bits i and i + 1
    are both set.
    Cumulative counts of primes and of twin bits, one int64 each per block,
    are the only other arrays.  Instances are safe for concurrent reads.
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
        import numpy as np
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


def _estimate_bytes(limit: int, threads: int, store: bool = True,
                    points: int = 0) -> int:
    """Upper bound on the bytes a build allocates, every array counted at
    once; with store=False, on those of count_at at that many points."""
    n_odd = (limit - 1) // 2
    if not store and n_odd <= SEGMENT_SIZE:  # small_primes' flags, answers
        return 2 * limit // 3 + 16384 + 1024 * points
    import numpy  # noqa: F401  (imported here, so that the guard sees it held)
    root = math.isqrt(limit)
    # Flags, then int64s and lists of ints, ~110 bytes per odd prime, of
    # which there are at most 1.25506 root / ln root (Rosser and Schoenfeld).
    base = root + 1 + 128 * math.ceil(1.25506 * root / math.log(max(root, 2)))
    words = _BLOCK * (SEGMENT_SIZE // (64 * _BLOCK) + 1)  # a window and a bit
    window = 72 * words + 2 * _PERIOD          # bool window, pattern, packed
    workers = _worker_count(threads, -(-n_odd // SEGMENT_SIZE))
    # Each thread's stack and malloc arena pages and the pool's objects,
    # measured at 150-280 KiB a thread.
    pool = 0 if workers == 1 else 512 * 1024 * workers
    if workers > 1:  # imported here too
        import concurrent.futures  # noqa: F401

    def block_counts(n: int) -> int:
        # _block_counts of n words: per slice, twin and shifted words, their
        # popcounts, those as int64, the block starts and the block sums (27
        # bytes a word), then an int64 per block and a total each, and small
        # objects (~2 KB measured).
        return (27 * min(n, _SHIFT_BLOCK) + 16384
                + 2 * 8 * (n // _BLOCK + 1))

    if not store:  # a window and its block counts per thread, the answers
        return (base + workers * (window + block_counts(words)) + pool
                + 1024 * points)
    held = _BLOCK * -(-n_odd // (64 * _BLOCK))  # <u8 words in whole blocks
    return base + workers * window + pool + 8 * held + block_counts(held)


def build_sieve(limit: int, *, threads: int = 1) -> PrimeSieve:
    """Build an immutable PrimeSieve for [2, limit].

    The first SEGMENT_SIZE bits of each window of _windows are copied into
    the store; threads > 1 sieves runs of them concurrently with
    bit-identical results, on at most one thread per window and per CPU.
    """
    if limit < 5:
        raise ValueError(f"limit must be >= 5, got {limit}")
    _admit(_estimate_bytes(limit, threads), DEFAULT_MEMORY_BUDGET)
    import numpy as np
    n_odd = (limit - 1) // 2
    odd_base = small_primes(math.isqrt(limit))[1:]
    # Bit i lives in bit i % 64 of word i // 64 and in bit i % 8 of byte
    # i // 8 of the same buffer, whatever the host's byte order.
    words = np.zeros(_BLOCK * -(-n_odd // (64 * _BLOCK)), dtype="<u8")
    store = words.view(np.uint8)
    seg_bytes = SEGMENT_SIZE // 8

    def copy_windows(ks: range) -> None:
        for k, window in _windows(limit, odd_base, ks):
            out = store[k * seg_bytes : (k + 1) * seg_bytes]
            out[:] = window.view(np.uint8)[: len(out)]

    _fan_out(copy_windows, threads, -(-n_odd // SEGMENT_SIZE))
    return PrimeSieve(limit, words, *_block_counts(words))


class PointCounts(dict):
    """{x: (pi(x), pi2(x))} at the points count_at counted, read as a store
    over [2, limit] reads them; any other x raises SieveRangeError, so a
    point that was not counted is never answered."""

    def __init__(self, limit: int, counts: dict):
        super().__init__(counts)
        self.limit = limit

    def __missing__(self, x):
        raise SieveRangeError(f"x={x} was not counted (limit {self.limit})")

    def count_primes_upto(self, x: int) -> int:
        return self[x][0]

    def count_twins_upto(self, x: int) -> int:
        return self[x][1]


# What both answer: a store anywhere in [2, limit], a count pass at its points.
Counts = PrimeSieve | PointCounts


def _count_pass(xs: list[int], threads: int) -> dict:
    """{x: (pi(x), pi2(x))} for sorted xs >= 2, counted from the windows of
    _windows up to xs[-1] as they pass, or on _odd_flags in one window."""
    if not xs:
        return {}
    limit, size = xs[-1], SEGMENT_SIZE
    n_windows = max(1, -(-((limit - 1) // 2) // size))
    # (bit, 0) and (bit, 1): an x's primes, and its twin bits, are those of
    # the store below bit.
    keys = sorted({((x - 1) // 2, 0) for x in xs}
                  | {((x - 5) // 2 + 1, 1) for x in xs if x >= 5})
    bits = [bit for bit, _ in keys]
    _admit(_estimate_bytes(limit, threads, False, len(xs)),
           DEFAULT_MEMORY_BUDGET)

    def count_run(ks: range):
        # Primes and twin bits in a run of windows, each key's from the
        # run's start.  A window's twin bits below SEGMENT_SIZE read the bit
        # past it, so its totals are its own.  A key past the last window is
        # answered in the last.
        total, below = [0, 0], {}
        for k, w in _windows(limit, odd_base, ks):
            cums = _block_counts(w)
            hi = bisect_left(bits, (k + 1) * size) if k + 1 < n_windows else None
            for bit, twin in keys[bisect_left(bits, k * size) : hi]:
                below[bit, twin] = total[twin] + _prefix_count(
                    w, cums[twin], bit - k * size, twin)
            total = [n + _prefix_count(w, cums[twin], size, twin)
                     for twin, n in enumerate(total)]
            del cums  # before the next window is sieved
        return total, below

    total, below = [0, 0], {}
    if n_windows == 1:
        # Primes are set flags and twin bits non-overlapping pairs of them; of
        # three odd numbers one is 0 mod 3, so only 3, 5, 7 needs (5, 7) added.
        flags, start = _odd_flags(limit), [0, 0]
        for bit, twin in keys:
            a, start[twin] = start[twin], bit
            total[twin] += (flags.count(b"\x01" * (1 + twin), a, bit + twin)
                            + (twin and a == 0 and bit > 1))
            below[bit, twin] = total[twin]
    else:
        odd_base = small_primes(math.isqrt(limit))[1:]
        for run_total, run_below in _fan_out(count_run, threads, n_windows):
            below.update((k, total[k[1]] + n) for k, n in run_below.items())
            total = [a + b for a, b in zip(total, run_total)]
    return {x: (1 + below[(x - 1) // 2, 0],
                below[(x - 5) // 2 + 1, 1] if x >= 5 else 0) for x in xs}


def count_at(limit: int, xs, *, threads: int = 1) -> PointCounts:
    """A store's pi and pi2 over [2, limit] at each x in xs, and its pi at
    each pi(x), from two passes that keep no store: one as far as the
    largest x, one over the distinct pi(x).  Each holds the base primes, a
    window per thread and its answers."""
    xs = sorted(set(xs))
    if xs and not 2 <= xs[0] <= xs[-1] <= limit:
        raise SieveRangeError(f"points outside [2, {limit}]: {xs[0]}..{xs[-1]}")
    _worker_count(threads, 1)  # refuses a bad count even with no points
    counts = _count_pass(xs, threads)
    pis = sorted({pi for pi, _ in counts.values() if pi >= 2})
    return PointCounts(limit, {**_count_pass(pis, threads), **counts})
