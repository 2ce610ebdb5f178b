"""Segmented sieve of Eratosthenes on a mod-6 wheel (Pritchard 1982): a
word store with O(1) prefix counts, and a pass that counts at given points.

Past 3 every prime is 6j + 5 or 6j + 7, so two bit planes, A[j] for 6j + 5
and B[j] for 6j + 7, give pi(x) = 2 + |A below (x + 1) // 6| + |B below
(x - 1) // 6| (x >= 3) and, as every twin pair past (3, 5) is (6j + 5,
6j + 7), pi2(x) = 1 + |A & B below (x - 1) // 6| (x >= 5).  _windows sieves
SEGMENT_SIZE j-values of both planes at a time, runs of windows in forked
workers, from a pre-sieve pattern of 5..13 (primesieve's; period 5,005) and
a slice per plane for each larger base prime.  build_sieve keeps them, with
popcounts of A, B and A & B per block of _BLOCK words (a rank directory:
Jacobson 1989, Vigna 2008); count_at joins per-window totals, 24 bytes a
window, from the same _block_counts and _prefix_count, re-sieving the
windows that hold a pi(x), or counts in one window on prime_flags, the
bytearray that also serves small_primes and the Euler products.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, cycle, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# j-values of each plane per window (6 * SEGMENT_SIZE numbers), a multiple
# of 8; read by each build, so tests may patch it.  count_at at 10**8 and
# 10**9 took 13-38% longer at 2**19 and 2**21 (2-vCPU x86_64, medians).
SEGMENT_SIZE = 1 << 20

# The most a process may hold: build_sieve, count_at, small_primes and
# prime_flags refuse, before allocating, a run that could pass it.  Tests
# may patch it.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

# The pre-sieve primes; their pattern repeats every _PERIOD j-values.
_PRESIEVE = (5, 7, 11, 13)
_PERIOD = math.prod(_PRESIEVE)

_OFFSETS = (5, 7)  # plane i, A then B, holds the numbers 6j + _OFFSETS[i]

# Words per cumulative count: one int64 per 512 bits of a plane.
_BLOCK = 8


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


_flags = bytearray()  # prime_flags' sieve, of the largest limit yet


def prime_flags(limit: int) -> bytearray:
    """Flag i of the candidates 5, 7, 11, 13, ... <= limit, n = 3i + 5 - i % 2
    (i = n // 3 - 1), is 1 if i = 2j and 6j + 5 is prime, 2 if i = 2j + 1 and
    6j + 7 is, else 0: a twin pair is the bytes 1, 2 at an even i.  Kept of
    the largest limit yet, so callers read a prefix and only read.  Refuses,
    before allocating, a larger limit whose flags, a third of it, and one
    slice's zeros, a tenth of those, could pass DEFAULT_MEMORY_BUDGET."""
    global _flags
    n = (limit + 1) // 6 + (limit - 1) // 6
    if len(_flags) < n:
        _flags = bytearray()  # not held beside the longer flags
        _admit(11 * limit // 30 + 16384, DEFAULT_MEMORY_BUDGET)
        flags = bytearray(b"\x01\x02") * -(-n // 2)
        del flags[n:]  # in place: a copy would double the peak
        for p in range(5, math.isqrt(limit) + 1, 2):
            if p % 3 and flags[p // 3 - 1]:
                # p * m from m = p and from the next m = -p (mod 6), every 6p.
                for m in (p, p + -2 * p % 6):
                    i = p * m // 3 - 1
                    flags[i :: 2 * p] = bytearray(len(range(i, n, 2 * p)))
        _flags = flags
    return _flags


def small_primes(limit: int, *, held_bytes: int = 0) -> array:
    """All primes <= limit, as array('q'), read off prime_flags.  Refuses,
    before sieving, flags not yet held and an array that, with the held_bytes
    that the caller builds from it, could pass DEFAULT_MEMORY_BUDGET."""
    if limit < 2:
        return array("q")
    n = (limit + 1) // 6 + (limit - 1) // 6
    # What prime_flags admits, and 9 bytes (8, growth) per prime, < 1.25506
    # x / ln x (Rosser-Schoenfeld): a refusal sieves nothing.
    _admit(held_bytes + (len(_flags) < n) * (11 * limit // 30 + 16384) + 9 *
           math.ceil(1.25506 * limit / math.log(limit)), DEFAULT_MEMORY_BUDGET)
    return array("q", chain((2, 3)[: limit - 1], compress(
        islice(accumulate(cycle((2, 4)), initial=5), n), prime_flags(limit))))


def _sixth(p):
    """1/6 mod each prime p > 3: (1 + kp) / 6, k = -p mod 6 (1 or 5)."""
    return (1 + p * (-p % 6)) // 6


def _windows(limit: int, primes: array, ks: range):
    """Yield (k, [a, b]) for each window k in ks, in order, given the primes
    up to sqrt(limit): bit i < SEGMENT_SIZE of words a (b) is A[j] (B[j]),
    j = k * SEGMENT_SIZE + i, in whole blocks of _BLOCK words; 0 past both."""
    import numpy as np
    size = SEGMENT_SIZE
    # One reused flag per j, padded to whole blocks.
    seg = np.empty(64 * _BLOCK * -(-size // (64 * _BLOCK)), dtype=bool)
    rows, tail = divmod(len(seg), _PERIOD)
    steps = primes[2 + len(_PRESIEVE):].tolist()  # past 13
    p = np.array(steps, dtype=np.int64)
    # No j below the j of p * p in B (6j + 5 < p * p in A) is cleared.
    squares = (p * p - 7) // 6
    # Per plane: its j-values up to limit; two periods of flags, False where
    # a pre-sieve prime divides 6j + c, so a period can be read from any
    # offset in the first; and the j, mod p, of each base prime's multiples.
    planes = [((limit + 6 - c) // 6,
               np.gcd(6 * np.arange(2 * _PERIOD) + c, _PERIOD) == 1,
               -c * _sixth(p) % p)
              for c in _OFFSETS]
    for k in ks:
        lo = k * size
        words = []
        for n_j, pattern, residues in planes:
            hi = min(lo + size, n_j)
            row = pattern[lo % _PERIOD :][:_PERIOD]
            seg[: rows * _PERIOD].reshape(rows, _PERIOD)[:] = row
            seg[rows * _PERIOD :] = row[:tail]
            if k == 0:  # 5, 11 in A and 7, 13 in B: the pattern cleared them
                seg[:2] = True
            seg[hi - lo :] = False
            # The first j each prime clears in this window, in its residue
            # class; primes whose square lies past the window clear none.
            n = int(np.searchsorted(squares, hi))
            start = np.maximum(squares[:n], lo)
            firsts = start - lo + (residues[:n] - start) % p[:n]
            for first, step in zip(firsts.tolist(), steps):
                seg[first::step] = False
            # j lands in bit j % 8 of byte j // 8, so in bit j % 64 of
            # little-endian word j // 64, whatever the host's byte order.
            words.append(np.packbits(seg, bitorder="little").view("<u8"))
        yield k, words


def _worker_count(threads: int, n_parts: int) -> int:
    """Workers a fan-out really starts: never more than parts or CPUs, and
    one where os.fork is missing."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(threads, n_parts, cpus))


def _fan_out(work, threads: int, n_parts: int) -> list:
    """[work(ks) for each worker's run ks of parts 0..n_parts-1], the runs
    contiguous, non-empty and in order; on one worker, one call.  Else the
    caller runs the first, and a forked child each other one, passed as a
    generator that work must iterate: it stops the child at its next part
    if orphaned.  A child pickles back its result or exception.  Children
    are reaped, killed first if the caller's run failed; one that ends
    without a result raises ChildProcessError.  SIGINT waits while children
    are forked and while they are reaped, so a Ctrl-C leaves none behind."""
    workers = _worker_count(threads, n_parts)
    if workers == 1:
        return [work(range(n_parts))]
    import pickle
    from signal import SIG_BLOCK, SIG_UNBLOCK, SIGINT, SIGKILL, pthread_sigmask
    runs = [range(i * n_parts // workers, (i + 1) * n_parts // workers)
            for i in range(workers)]
    parent, children, outs = os.getpid(), [], None
    try:
        pthread_sigmask(SIG_BLOCK, {SIGINT})
        for ks in runs[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # leaves only through os._exit
                try:
                    try:
                        pthread_sigmask(SIG_UNBLOCK, {SIGINT})
                        out = work(k for k in ks if os.getppid() == parent
                                   or os._exit(1))
                    except BaseException as exc:
                        out = exc
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(out))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)  # every write end is the child's: EOF at its end
            children.append((pid, open(read, "rb")))
        pthread_sigmask(SIG_UNBLOCK, {SIGINT})
        first = work(runs[0])
        outs = [pipe.read() for _, pipe in children]
    finally:
        try:  # a Ctrl-C that Python holds already is raised after reaping
            pthread_sigmask(SIG_BLOCK, {SIGINT})
        finally:
            pthread_sigmask(SIG_BLOCK, {SIGINT})
            for pid, pipe in children:
                pipe.close()
                if outs is None:
                    os.kill(pid, SIGKILL)
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
            pthread_sigmask(SIG_UNBLOCK, {SIGINT})
    results = [first]
    for (pid, _), out, status in zip(children, outs, statuses):
        if not out:  # a negative exit status is the signal that ended it
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker {pid} ended without a result "
                                    f"(exit status {code})")
        results.append(pickle.loads(out))  # a result is never an exception
        if isinstance(results[-1], BaseException):
            raise results[-1]
    return results


def _n_windows(limit: int) -> int:
    """Windows of _windows that reach limit: at least one."""
    return max(1, -(-((limit + 1) // 6) // SEGMENT_SIZE))


def _prefix_count(cum: np.ndarray, k: int, *planes: np.ndarray) -> int:
    """Set bits among bit indices [0, k), k >= 0, of the AND of the word
    planes, whose set bits below each block are cum."""
    b, rem = divmod(k, 64 * _BLOCK)
    span = -1
    for words in planes:
        span &= int.from_bytes(words[_BLOCK * b : (k >> 6) + 1].tobytes(),
                               "little")
    return cum.item(b) + (span & ((1 << rem) - 1)).bit_count()


def _block_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cum[i, n] = set bits of a, of b and of a & b for i = 0, 1, 2, in
    their first n blocks of _BLOCK words, for n in [0, len(a) // _BLOCK];
    the planes hold whole blocks."""
    import numpy as np
    starts = np.arange(0, len(a), _BLOCK)
    cum = np.zeros((3, len(a) // _BLOCK + 1), dtype=np.int64)
    for row, words in zip(cum, (a, b, a & b)):
        # A block holds at most 64 * _BLOCK set bits: uint16 sums cast a
        # quarter of the bytes that int64 sums would.
        row[1:] = np.add.reduceat(np.bitwise_count(words), starts,
                                  dtype=np.uint16)
    return np.cumsum(cum, axis=1, out=cum)


class PrimeSieve:
    """Immutable primality store over [2, limit].

    Row i of the planes holds bit j <-> n = 6j + _OFFSETS[i] in
    little-endian uint64 words, zero-padded to whole blocks of _BLOCK words:
    the windows of _windows, end to end.  Bit j is set in both rows iff
    (6j + 5, 6j + 7) is a twin pair.  The cumulative counts of each row and
    of their AND, one int64 each per block, are the only other array.
    Instances are safe for concurrent reads.
    """

    __slots__ = ("limit", "_planes", "_cum")

    def __init__(self, limit, planes, cum):
        self.limit = limit
        self._planes = planes
        self._cum = cum

    def _check_range(self, n: int, what: str) -> None:
        if not 2 <= n <= self.limit:
            raise SieveRangeError(
                f"{what}={n} outside sieved range [2, {self.limit}]"
            )

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """Strictly increasing array of all primes in [lo, hi]."""
        import numpy as np
        self._check_range(lo, "lo")
        self._check_range(hi, "hi")
        if lo > hi:
            raise SieveRangeError(f"empty range bounds lo={lo} > hi={hi}")
        # The bytes of both planes that hold every 6j + 5 and 6j + 7 in
        # [lo, hi], unpacked and interleaved: flag i is n = 3i + 5 - (i & 1).
        lo_byte, hi_byte = max(lo - 7, 0) // 48, (hi + 1) // 48 + 1
        flags = np.unpackbits(self._planes.view(np.uint8)[:, lo_byte:hi_byte],
                              axis=1, bitorder="little").T.ravel()
        idx = np.flatnonzero(flags).astype(np.int64, copy=False) + 16 * lo_byte
        ns = np.concatenate([[2, 3], 3 * idx + 5 - (idx & 1)])
        return ns[(ns >= lo) & (ns <= hi)]

    def count_primes_upto(self, x: int) -> int:
        """pi(x), exact, for 2 <= x <= limit."""
        self._check_range(x, "x")
        (a, b), cum = self._planes, self._cum
        return (min(x - 1, 2) + _prefix_count(cum[0], (x + 1) // 6, a)
                + _prefix_count(cum[1], (x - 1) // 6, b))

    def count_twins_upto(self, x: int) -> int:
        """Twin pairs (p, p+2) with p + 2 <= x, for 2 <= x <= limit."""
        self._check_range(x, "x")
        return (x >= 5) + _prefix_count(self._cum[2], (x - 1) // 6,
                                        *self._planes)


def _estimate_bytes(limit: int, threads: int, store: bool = True,
                    points: int = 0) -> int:
    """Upper bound on the bytes a build allocates, every array counted at
    once; with store=False, on those of count_at at that many points."""
    n_j, workers = (limit + 1) // 6, _worker_count(threads, _n_windows(limit))
    if not store and n_j <= SEGMENT_SIZE:  # prime_flags' bytes, the answers
        return 11 * limit // 30 + 16384 + 1024 * points
    root = math.isqrt(limit)
    # small_primes, then int64s and lists of ints, ~140 bytes per prime, of
    # which there are at most 1.25506 root / ln root (Rosser and Schoenfeld),
    # and the RSS a first window leaves: malloc's heap, numpy's pages (~0.9 MB).
    primes = 140 * math.ceil(1.25506 * root / math.log(max(root, 2)))
    base = root + 1 + primes + 1024 * 1024
    words = _BLOCK * -(-SEGMENT_SIZE // (64 * _BLOCK))  # a plane's window
    window = 80 * words + 4 * _PERIOD  # bools, patterns, packed planes
    # Each forked worker's base-prime arrays, and the heap, interpreter and
    # numpy pages it copies or faults in (VmHWM: 2.4-2.6 MB past a window).
    forks = (workers - 1) * (primes + 3 * 1024 * 1024)

    def block_counts(n: int) -> int:
        # _block_counts of planes of n words: the twin words, a popcount, a
        # uint16 copy of it, the block sums and starts (~13 bytes a word),
        # three int64s per block and a total each, small objects.
        return 13 * n + 3 * 8 * (n // _BLOCK + 1) + 16384

    if not store:  # a window and its block counts per worker, the answers,
        # and 3 int64s a window, five copies at most as they are joined
        return (base + forks + workers * (window + block_counts(words))
                + 1024 * points + 5 * 24 * _n_windows(limit))
    held = _BLOCK * -(-n_j // (64 * _BLOCK))  # <u8 words of a plane
    # The planes, whose pages a worker writes are in its RSS and again in
    # the parent's, their directory and one window's slice of it at a time.
    return (base + forks + workers * window
            + 2 * 8 * held * (2 * workers - 1) // workers
            + 3 * 8 * (held // _BLOCK + 1) + block_counts(words))


def build_sieve(limit: int, *, threads: int = 1) -> PrimeSieve:
    """Build an immutable PrimeSieve for [2, limit].

    The windows of _windows are copied into planes in a shared map, by
    forked workers if threads > 1, bit-identically and at most one per
    window and per CPU; the rank directory is counted in this process.
    """
    if limit < 5:
        raise ValueError(f"limit must be >= 5, got {limit}")
    import mmap  # before the guard, which counts them as held
    import numpy as np
    _admit(_estimate_bytes(limit, threads), DEFAULT_MEMORY_BUDGET)
    primes = small_primes(math.isqrt(limit))
    # Bit j of a row lives in bit j % 64 of word j // 64 and in bit j % 8 of
    # byte j // 8 of the same buffer, whatever the host's byte order.  The
    # zero-filled map is shared, so forked workers write their windows in it.
    n_words = _BLOCK * -(-((limit + 1) // 6) // (64 * _BLOCK))
    planes = np.frombuffer(mmap.mmap(-1, 16 * n_words), "<u8").reshape(2, -1)
    store = planes.view(np.uint8)
    seg_bytes = SEGMENT_SIZE // 8

    def copy_windows(ks: range) -> None:
        for k, window in _windows(limit, primes, ks):
            out = store[:, k * seg_bytes : (k + 1) * seg_bytes]
            for row, words in zip(out, window):
                row[:] = words.view(np.uint8)[: len(row)]

    _fan_out(copy_windows, threads, _n_windows(limit))
    # The rank directory, a window's words at a time, each slice offset by
    # the counts before it: its temporaries are a window's, not the store's.
    cum = np.zeros((3, planes.shape[1] // _BLOCK + 1), dtype=np.int64)
    step = _BLOCK * -(-SEGMENT_SIZE // (64 * _BLOCK))
    for lo in range(0, planes.shape[1], step):
        part, b = _block_counts(*planes[:, lo : lo + step]), lo // _BLOCK
        np.add(part, cum[:, b, None], out=cum[:, b : b + part.shape[1]])
    return PrimeSieve(limit, planes, cum)


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


def _count_pass(xs: list[int], top: int, threads: int) -> dict:
    """{x: (pi(x), pi2(x))} at sorted xs in [2, top], then at each pi(x) >= 2,
    on prime_flags, or else on the windows to top: each once, then each that
    holds a pi(x) again, and a key's bits in it join the windows before it."""
    size, n_windows, counts = SEGMENT_SIZE, _n_windows(top), {}
    if n_windows > 1:  # imported before the guard, which counts it as held
        import numpy as np
    _admit(_estimate_bytes(top, threads, False, len(xs)), DEFAULT_MEMORY_BUDGET)
    primes = small_primes(math.isqrt(top)) if n_windows > 1 else None

    def count_run(parts):
        # Each window's totals of A, B and A & B, and its keys' bits within it.
        totals, run = array("q"), {}
        for k, (a, b) in _windows(top, primes, (ks[n] for n in parts)):
            cum, rows = _block_counts(a, b), ((a,), (b,), (a, b))
            hi = bisect_left(js, (k + 1) * size) if k + 1 < n_windows else None
            for j, i in keys[bisect_left(js, k * size) : hi]:
                run[j, i] = _prefix_count(cum[i], j - k * size, *rows[i])
            totals.extend(cum[:, -1].tolist())
            del cum, rows, a, b  # before the next window is sieved
        return totals, run

    for points in (xs, None):  # then each pi(x) >= 2
        points = points or sorted({p for p, _ in counts.values() if p >= 2})
        # (j, i): a point's primes in A, in B and its twin pairs past (3, 5)
        # are the set bits below j of A, B and A & B for i = 0, 1, 2.
        keys = sorted({k for x in points for k in (
            ((x + 1) // 6, 0), ((x - 1) // 6, 1), ((x - 1) // 6, 2))})
        js, total, below = [j for j, _ in keys], [0] * 3, {}
        if n_windows > 1:  # a key past the last window is in the last
            ks = range(n_windows) if points is xs else sorted(
                {min(j // size, n_windows - 1) for j in js})
            runs = _fan_out(count_run, threads, len(ks))
            if points is xs:  # the set bits of each kind before each window
                t = np.frombuffer(b"".join(t for t, _ in runs), "q")
                before = np.cumsum(t.reshape(-1, 3), axis=0) - t.reshape(-1, 3)
            below = {(j, i): before.item(min(j // size, n_windows - 1), i) + n
                     for _, run in runs for (j, i), n in run.items()}
        else:  # A, B and A & B below j: prime_flags' 1s, 2s and 1, 2s below 2j
            flags, start = prime_flags(top), [0] * 3
            for j, i in keys:
                total[i] += flags.count((b"\1", b"\2", b"\1\2")[i], start[i],
                                        2 * j)
                start[i], below[j, i] = 2 * j, total[i]
        counts |= {x: (min(x - 1, 2) + below[(x + 1) // 6, 0]
                       + below[(x - 1) // 6, 1],
                       (x >= 5) + below[(x - 1) // 6, 2]) for x in points}
    return counts


def count_at(limit: int, xs, *, threads: int = 1) -> PointCounts:
    """A store's pi and pi2 over [2, limit] at each x in xs, and its pi at
    each pi(x), from one pass that keeps no store and holds the base primes,
    a window per worker, three totals per window and the answers."""
    xs = sorted(set(xs))
    if xs and not 2 <= xs[0] <= xs[-1] <= limit:
        raise SieveRangeError(f"points outside [2, {limit}]: {xs[0]}..{xs[-1]}")
    return PointCounts(limit, _count_pass(xs, xs[-1] if xs else 2, threads))
