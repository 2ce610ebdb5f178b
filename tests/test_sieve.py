import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinprimes import (
    MemoryBudgetError,
    SieveRangeError,
    build_sieve,
    count_at,
    small_primes,
)
from twinprimes import sieve as sieve_mod
from twinprimes.sieve import _BLOCK, _estimate_bytes, _worker_count

import oracles


def test_build_small_limit_finds_exactly_the_primes():
    sieve = build_sieve(25)
    found = sieve.primes_between(2, 25).tolist()
    assert found == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert sieve.count_primes_upto(25) == 9


def test_smallest_legal_limit():
    sieve = build_sieve(5)
    assert not sieve.is_prime(4)
    assert sieve.is_prime(5)


@pytest.mark.parametrize("limit", [4, 1, 0, -7])
def test_limit_below_five_rejected(limit):
    with pytest.raises(ValueError):
        build_sieve(limit)


def test_memory_budget_refusal_reports_requirement(monkeypatch):
    monkeypatch.setattr("twinprimes.sieve.DEFAULT_MEMORY_BUDGET", 1000)
    with pytest.raises(MemoryBudgetError) as err:
        build_sieve(10**6)
    assert err.value.required_bytes > 1000
    assert "bytes" in str(err.value)


def test_is_prime_matches_trial_division_exhaustively(sieve_1e5):
    for n in range(2, 10**5 + 1):
        assert sieve_1e5.is_prime(n) == oracles.is_prime_trial(n), n


@pytest.mark.parametrize(
    "n,expected", [(97, True), (2, True), (91, False), (100, False), (7919, True)]
)
def test_is_prime_spot_values(sieve_1e4, n, expected):
    assert sieve_1e4.is_prime(n) is expected


@pytest.mark.parametrize("n", [0, 1, 101])
def test_is_prime_out_of_range_raises(n):
    sieve = build_sieve(100)
    with pytest.raises(SieveRangeError):
        sieve.is_prime(n)


def test_primes_between_full_small_range():
    sieve = build_sieve(30)
    assert sieve.primes_between(2, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_between_empty_and_singleton():
    sieve = build_sieve(30)
    assert sieve.primes_between(24, 28).tolist() == []
    assert sieve.primes_between(29, 29).tolist() == [29]


def test_primes_between_range_violations():
    sieve = build_sieve(30)
    for lo, hi in [(1, 10), (2, 31), (20, 10), (0, 0)]:
        with pytest.raises(SieveRangeError):
            sieve.primes_between(lo, hi)


def test_segment_size_is_invisible_to_queries(monkeypatch):
    limit = 3 * 10**5
    sieves = []
    for size in (2**10, 2**15, 2**20):
        monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", size)
        sieves.append(build_sieve(limit))
    rng = np.random.default_rng(20260809)
    probes = rng.integers(2, limit + 1, size=1000)
    for n in probes.tolist():
        answers = {s.is_prime(n) for s in sieves}
        assert len(answers) == 1, n
    assert all(
        s.count_primes_upto(limit) == sieves[0].count_primes_upto(limit)
        for s in sieves
    )


def test_threaded_build_is_bit_identical(monkeypatch):
    serial = build_sieve(10**6, threads=1)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**15)
    threaded = build_sieve(10**6, threads=4)
    for field in ("_words", "_prime_cum", "_twin_cum"):
        assert np.array_equal(getattr(serial, field), getattr(threaded, field))


def test_worker_count_is_clamped_to_segments_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(10**9, 10**9) == 4
    assert _worker_count(10**9, 3) == 3
    assert _worker_count(1, 10**9) == 1
    assert _worker_count(2, 10**9) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(10**9, 10**9) == 1


def test_estimate_counts_only_the_threads_that_start(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**20)
    one = _estimate_bytes(10**8, 1)
    two = _estimate_bytes(10**8, 2)
    assert two > one
    assert _estimate_bytes(10**8, 10**9) == two
    # a single window never starts a second thread
    assert _estimate_bytes(10**5, 10**9) == _estimate_bytes(10**5, 1)


def test_small_primes_refuses_a_limit_beyond_the_budget(monkeypatch):
    # Refused before any of its ~1 TB is allocated.
    with pytest.raises(MemoryBudgetError):
        small_primes(10**12)
    # The bound is not below what the call really holds at 10**6 (the next
    # test's ceiling), on top of what the process holds.
    monkeypatch.setattr(sieve_mod, "_rss_bytes", lambda: 10**8)
    held = (10**6 - 1) // 2 * 4 // 3 + 9 * 78_498
    monkeypatch.setattr("twinprimes.sieve.DEFAULT_MEMORY_BUDGET", 10**8 + held)
    with pytest.raises(MemoryBudgetError):
        small_primes(10**6)
    assert len(small_primes(10**5)) == 9592


def test_small_primes_holds_the_flags_and_one_index_array():
    # A flag byte per odd number and a third more while the multiples of 3
    # are cleared, and 8 bytes per prime for the array with a sixteenth for
    # its growth; a copy of the primes would take 8 bytes more per prime.
    tracemalloc.start()
    try:
        small_primes(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (10**6 - 1) // 2 * 4 // 3 + 9 * 78_498


def test_repeated_builds_are_deterministic():
    a = build_sieve(12345)
    b = build_sieve(12345)
    assert np.array_equal(a._words, b._words)


def test_concurrent_reads_agree_with_serial(sieve_1e5):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(7)
    probes = rng.integers(2, 10**5 + 1, size=2000).tolist()
    expected = [sieve_1e5.is_prime(n) for n in probes]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(sieve_1e5.is_prime, probes))
    assert got == expected


def test_enumeration_count_agrees_with_prefix_count(sieve_1e4):
    rng = np.random.default_rng(42)
    for x in rng.integers(2, 10**4 + 1, size=100).tolist():
        assert len(sieve_1e4.primes_between(2, x)) == sieve_1e4.count_primes_upto(x)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(2, 10**4), span=st.integers(0, 500))
def test_primes_between_consistent_with_counts(sieve_1e4, lo, span):
    hi = min(lo + span, 10**4)
    ps = sieve_1e4.primes_between(lo, hi)
    assert list(ps) == sorted(set(ps.tolist()))
    assert all(sieve_1e4.is_prime(int(p)) for p in ps)
    expected = sieve_1e4.count_primes_upto(hi) - (
        sieve_1e4.count_primes_upto(lo - 1) if lo > 2 else 0
    )
    assert len(ps) == expected


def _assert_counts_match_oracles(sieve, pi, pi2):
    for x in range(2, sieve.limit + 1):
        assert sieve.count_primes_upto(x) == pi[x], x
        assert sieve.count_twins_upto(x) == pi2[x], x
        assert sieve.is_prime(x) == (pi[x] > pi[x - 1]), x


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(5, 5000),
       shift_block=st.sampled_from([_BLOCK, 2 * _BLOCK, sieve_mod._SHIFT_BLOCK]))
def test_word_index_counts_match_oracles(trial_pi_1e4, trial_twin_1e4, limit,
                                         shift_block):
    # Limits up to 5000 cross four 512-bit blocks (1024 numbers each), and
    # slices of one or two blocks cross them in the block-count pass too.
    with mock.patch.object(sieve_mod, "_SHIFT_BLOCK", shift_block):
        sieve = build_sieve(limit)
    _assert_counts_match_oracles(sieve, trial_pi_1e4, trial_twin_1e4)


# Bit i stands for n = 2i + 3: bits 63, 64 and 65 are 129, 131 and 133.  At
# 129 and 257 the odd count is 64 and 128, a whole number of words; 641 is a
# whole number of words too and the lower member of the twin pair (641, 643).
# Bits 511, 512 and 513 (the first 512-bit block edge) are 1025, 1027 and
# 1029, bits 1023 and 1024 are 2049 and 2051; 1500 ends in word 12, which is
# not a whole number of blocks.
@pytest.mark.parametrize("limit", [127, 129, 130, 131, 133, 135, 257, 258, 641,
                                   643, 1025, 1027, 1029, 1500, 2049, 2051])
@pytest.mark.parametrize("segment_size", [8, 64, 2**20])
def test_word_boundaries(trial_pi_1e4, trial_twin_1e4, limit, segment_size,
                         monkeypatch):
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    sieve = build_sieve(limit)
    _assert_counts_match_oracles(sieve, trial_pi_1e4, trial_twin_1e4)
    # No bit is set past the last odd number, nor for a pair ending past
    # limit: at 641 the last twin bit, for (641, 643), must be 0.
    assert sieve._prime_cum[-1] + 1 == trial_pi_1e4[limit]
    assert sieve._twin_cum[-1] == trial_twin_1e4[limit]


def test_twin_pair_across_a_block_edge(monkeypatch):
    # (25601, 25603) is the first twin pair split by a 512-bit block edge:
    # bits 12799 and 12800.  Slices of one block split it in the build too.
    monkeypatch.setattr("twinprimes.sieve._SHIFT_BLOCK", _BLOCK)
    twins = oracles.twin_prefix_counts(25603)
    sieve = build_sieve(25603)
    assert sieve._twin_cum[25] == twins[25603] == twins[25602] + 1
    for x in range(25000, 25604):
        assert sieve.count_twins_upto(x) == twins[x], x


def test_answers_do_not_depend_on_the_shift_block(monkeypatch):
    whole = build_sieve(5000)
    monkeypatch.setattr("twinprimes.sieve._SHIFT_BLOCK", _BLOCK)
    sliced = build_sieve(5000)
    for x in range(2, 5001):
        assert sliced.count_primes_upto(x) == whole.count_primes_upto(x), x
        assert sliced.count_twins_upto(x) == whole.count_twins_upto(x), x


# The count-only pass reads the windows that a build stores.  Windows of 64
# and 72 odd numbers put many window edges below small limits, and 72 is not
# a whole number of 64-bit words.
@pytest.fixture(scope="module")
def store_3e5():
    return build_sieve(3 * 10**5)


def pi_pi2(limit, *, threads=1):
    """(pi(limit), pi2(limit)) from a pass that counts at the limit alone."""
    counts = count_at(limit, [limit], threads=threads)
    return counts.count_primes_upto(limit), counts.count_twins_upto(limit)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size", [64, 72])
def test_count_pass_matches_the_store_at_every_small_limit(
        trial_pi_1e4, trial_twin_1e4, store_3e5, segment_size, threads,
        monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    for x in range(5, 3001):
        expected = (trial_pi_1e4[x], trial_twin_1e4[x])
        assert pi_pi2(x, threads=threads) == expected, x
        assert (store_3e5.count_primes_upto(x),
                store_3e5.count_twins_upto(x)) == expected, x


@settings(max_examples=30, deadline=None)
@given(limit=st.integers(5, 3 * 10**5), threads=st.sampled_from([1, 2]),
       segment_size=st.sampled_from([64, 72, 2**20]))
def test_count_pass_matches_the_store(store_3e5, limit, threads,
                                      segment_size):
    with mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        got = pi_pi2(limit, threads=threads)
    assert got == (store_3e5.count_primes_upto(limit),
                   store_3e5.count_twins_upto(limit))


def test_count_pass_with_more_workers_than_cores(store_3e5, monkeypatch):
    # Eight workers on any host, switching threads every microsecond: each
    # counts its own run of windows and returns its own totals and edges.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for limit in (10**5, 3 * 10**5):
            assert pi_pi2(limit, threads=8) == (
                store_3e5.count_primes_upto(limit),
                store_3e5.count_twins_upto(limit))
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(2, 3 * 10**5), threads=st.sampled_from([1, 2, 3]),
       segment_size=st.sampled_from([64, 72, 512]),
       seed=st.integers(0, 2**32 - 1))
def test_count_at_matches_the_store_at_its_points(store_3e5, limit, threads,
                                                  segment_size, seed):
    # Random points, the x within three odd numbers of each window edge
    # (bit i is 2i + 3) and 2..15, on up to three workers, each answering
    # the points in its own run; and pi at each pi(x).
    rng = np.random.default_rng(seed)
    edges = [2 * i + 3 + d for i in range(0, limit // 2, segment_size)
             for d in range(-6, 7)]
    xs = [x for x in [*rng.integers(2, limit, 200, endpoint=True).tolist(),
                      *edges, *range(2, 16), limit] if 2 <= x <= limit]
    with mock.patch.object(os, "cpu_count", lambda: 3), \
            mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        counts = count_at(limit, xs, threads=threads)
    for x in xs:
        pi = store_3e5.count_primes_upto(x)
        assert counts.count_primes_upto(x) == pi, x
        assert counts.count_twins_upto(x) == store_3e5.count_twins_upto(x), x
        if pi >= 2:
            assert counts.count_primes_upto(pi) == store_3e5.count_primes_upto(
                pi), x


def test_count_at_answers_only_its_points():
    counts = count_at(10**4, [100, 5000])
    assert counts.limit == 10**4
    assert (counts.count_primes_upto(5000), counts.count_twins_upto(5000)) == (
        669, 126)
    assert counts.count_primes_upto(25) == 9  # pi(pi(100))
    for x in (99, 101, 4999, 10**4):
        with pytest.raises(SieveRangeError):
            counts.count_primes_upto(x)
        with pytest.raises(SieveRangeError):
            counts.count_twins_upto(x)
    for xs in ([1, 100], [100, 10**4 + 1]):
        with pytest.raises(SieveRangeError):
            count_at(10**4, xs)


def test_one_window_pass_matches_trial_division(trial_pi_1e4,
                                                trial_twin_1e4, monkeypatch):
    # Below 300 every pass counts on the flags of one window, never on the
    # windows of numpy.  A pass from 2 reads the run 3, 5, 7 at bits 0 to 2
    # whole; a pass at every x splits it between spans.
    def no_windows(*args):
        raise AssertionError("a one-window pass sieved windows")

    monkeypatch.setattr(sieve_mod, "_windows", no_windows)
    want = {x: (trial_pi_1e4[x], trial_twin_1e4[x]) for x in range(2, 301)}
    for x in range(5, 301):
        assert pi_pi2(x) == want[x], x
    counts = count_at(300, range(2, 301))
    for x in range(2, 301):
        assert (counts.count_primes_upto(x),
                counts.count_twins_upto(x)) == want[x], x


@settings(max_examples=40, deadline=None)
@given(segment_size=st.sampled_from([64, 72, 512]),
       offset=st.integers(-40, 40), threads=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_one_and_two_window_passes_match_the_store(store_3e5, segment_size,
                                                   offset, threads, seed):
    # A pass up to 2 * size + 2, whose (x - 1) // 2 is size, fits in one
    # window; the next odd number needs a second.
    limit = 2 * segment_size + 2 + offset
    rng = np.random.default_rng(seed)
    xs = [*rng.integers(2, limit, 30, endpoint=True).tolist(), limit]
    with mock.patch.object(os, "cpu_count", lambda: 2), \
            mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size), \
            mock.patch.object(sieve_mod, "_windows",
                              wraps=sieve_mod._windows) as windows:
        counts = count_at(limit, xs, threads=threads)
    assert windows.called == (offset > 0)
    for x in xs:
        assert counts.count_primes_upto(x) == store_3e5.count_primes_upto(x)
        assert counts.count_twins_upto(x) == store_3e5.count_twins_upto(x)


@pytest.mark.parametrize("segment_size", [8, 64, 2**20])
def test_count_pass_below_five(trial_pi_1e4, trial_twin_1e4, segment_size,
                               monkeypatch):
    # The second pass counts up to pi(x), which may be this small.
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    for x in range(2, 11):
        assert pi_pi2(x) == (trial_pi_1e4[x], trial_twin_1e4[x]), x
    for x in (1, 0, -3):
        with pytest.raises(ValueError):
            pi_pi2(x)
    with pytest.raises(ValueError):
        pi_pi2(100, threads=0)


@pytest.mark.parametrize("threads", [1, 2])
def test_count_pass_twin_pair_across_a_window_edge(threads, monkeypatch):
    # With 64 odd numbers per window, 641 is the last (bit 319) of window 4
    # and 643 the first of window 5.  At 1283 there are 11 windows, and two
    # workers take windows 0-4 and 5-10, so the pair also straddles two runs.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    twins = oracles.twin_prefix_counts(1283)
    assert twins[643] == twins[642] + 1
    for x in (642, 643, 1283):
        assert pi_pi2(x, threads=threads)[1] == twins[x], x


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("segment_size", [64, 72])
def test_count_pass_matches_the_oracles_at_every_window_edge(
        trial_pi_1e4, trial_twin_1e4, segment_size, threads, monkeypatch):
    # Window k starts at bit k * size, the odd number 2 * k * size + 3.  The
    # x within four of that read the last flags of one window, the first of
    # the next and the twin pair that may straddle them, as points of one
    # pass to 10**4 on up to four runs.  A pass to the last odd number of a
    # window fills its windows and answers its limit past the last.  No
    # store checks them: it shares _windows with the pass.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    limit = 10**4
    starts = range(2 * segment_size + 3, limit + 4, 2 * segment_size)
    edges = [x for start in starts for x in range(start - 4, start + 4)
             if x <= limit]
    counts = count_at(limit, edges, threads=threads)
    for x in edges:
        assert (counts.count_primes_upto(x), counts.count_twins_upto(x)) == (
            trial_pi_1e4[x], trial_twin_1e4[x]), x
    for x in starts:
        assert pi_pi2(x - 2, threads=threads) == (
            trial_pi_1e4[x - 2], trial_twin_1e4[x - 2]), x


def test_count_pass_budget_counts_only_what_it_holds():
    # The estimate alone decides; neither limit is counted here.  10**12
    # holds base primes to 10**6 and a window per thread, 10**18 base primes
    # to 10**9, which alone exceed the budget.
    for threads in (1, 2):
        sieve_mod._admit(_estimate_bytes(10**12, threads, False, points=1),
                         sieve_mod.DEFAULT_MEMORY_BUDGET)
        with pytest.raises(MemoryBudgetError):
            pi_pi2(10**18, threads=threads)
    assert (_estimate_bytes(10**12, 1, store=False)
            < _estimate_bytes(10**12, 1) // 1000)


@pytest.mark.parametrize("limit", [10**4, 3 * 10**6])
def test_count_pass_allocates_within_its_estimate(limit, monkeypatch):
    # One window, and two: the second window's block counts must not sit
    # beside the first's.  On two threads, at the limit alone and at 400
    # points, the pool and the answers count too.  A first run imports what
    # the pass loads on first use.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spread = np.linspace(2, limit, 400).astype(int).tolist()
    for threads in (1, 2):
        for xs in ([limit], spread):
            count_at(limit, xs, threads=threads)
            tracemalloc.start()
            try:
                count_at(limit, xs, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _estimate_bytes(limit, threads, store=False,
                                           points=len(xs)), (threads, len(xs))


def test_budget_counts_what_the_process_holds(monkeypatch):
    # A budget one byte below what the process holds plus the estimate
    # refuses; the estimate alone would fit.
    held, limit = 10**8, 10**6
    monkeypatch.setattr(sieve_mod, "_rss_bytes", lambda: held)
    growth = 2 * limit // 3 + 16384 + 9 * math.ceil(
        1.25506 * limit / math.log(limit))
    for run, need in ((build_sieve, held + _estimate_bytes(limit, 1)),
                      (pi_pi2, held + _estimate_bytes(limit, 1, False, 1)),
                      (small_primes, held + growth)):
        monkeypatch.setattr("twinprimes.sieve.DEFAULT_MEMORY_BUDGET", need - 1)
        with pytest.raises(MemoryBudgetError):
            run(limit)
        monkeypatch.setattr("twinprimes.sieve.DEFAULT_MEMORY_BUDGET", need)
        run(limit)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_rss_is_what_the_process_holds_now():
    # Not the peak so far: memory once held and freed no longer counts.
    before = sieve_mod._rss_bytes()
    block = np.ones(32 * 2**20, dtype=np.uint8)
    held = sieve_mod._rss_bytes()
    del block
    assert held - before > 24 * 2**20
    assert held - sieve_mod._rss_bytes() > 24 * 2**20


def _window_flags(limit):
    """The first SEGMENT_SIZE flags of every window _windows yields for
    limit, end to end; each window's bit SEGMENT_SIZE is the next window's
    bit 0 (0 past the last window), and every bit after it is 0."""
    odd_base = small_primes(math.isqrt(limit))[1:]
    segment_size = sieve_mod.SEGMENT_SIZE
    ks = range(-(-((limit - 1) // 2) // segment_size))
    flags, past = [], []
    for k, words in sieve_mod._windows(limit, odd_base, ks):
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert not bits[segment_size + 1:].any(), k
        flags.append(bits[:segment_size])
        past.append(bits[segment_size])
    got = np.concatenate(flags).astype(bool)
    assert past == [*got[segment_size::segment_size].tolist(), False]
    return got


def _plain_odd_flags(limit):
    """Primality of 3, 5, 7, ... <= limit from an unsegmented bool sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags[3::2]


# Windows of 64 and 72 odd numbers, fewer and more than the 15,015 of the
# pre-sieve pattern, 8 of its periods (each window starts where the pattern
# does), 64 of them (a window of whole periods) and the default 2**20.
_PATTERN_EDGE_SIZES = [64, 72, 15_008, 15_024, 120_120, 960_960, 2**20]


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(5, 3 * 10**5),
       segment_size=st.sampled_from(_PATTERN_EDGE_SIZES))
def test_window_flags_match_a_plain_sieve(limit, segment_size):
    with mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        got = _window_flags(limit)
    want = _plain_odd_flags(limit)
    assert np.array_equal(got[: len(want)], want)
    assert not got[len(want):].any()
    if limit <= 10**4:
        odd = range(3, limit + 1, 2)
        assert got[: len(want)].tolist() == [oracles.is_prime_trial(n)
                                             for n in odd]


@pytest.mark.parametrize("segment_size", [8, 64, 2**20])
def test_window_flags_below_the_first_base_prime_past_13(segment_size,
                                                         monkeypatch):
    # Below 17**2 every base prime is a pre-sieve prime, so the pattern and
    # window 0's restored 3..13 alone decide every flag.
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    for limit in range(5, 201):
        got = _window_flags(limit)
        odd = range(3, limit + 1, 2)
        assert got[: len(odd)].tolist() == [oracles.is_prime_trial(n)
                                            for n in odd], limit
        assert not got[len(odd):].any(), limit
    got = _window_flags(200)
    assert all(got[(p - 3) // 2] for p in sieve_mod._PRESIEVE)
