import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from array import array
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
from twinprimes import cli
from twinprimes import sieve as sieve_mod
from twinprimes.sieve import _BLOCK, _estimate_bytes, _worker_count

import oracles


# Stores, for what only a store has: primes_between, its directory, its
# threaded build and its budget.  The count pass is checked against the
# oracles, never against a store: both read _windows, _block_counts and
# _prefix_count, so a defect there would show in both alike.
@pytest.fixture(scope="module")
def store_1e4():
    return build_sieve(10**4)


@pytest.fixture(scope="module")
def store_1e5():
    return build_sieve(10**5)


@pytest.fixture(scope="module")
def store_1e6():
    return build_sieve(10**6)


def test_build_small_limit_finds_exactly_the_primes():
    sieve = build_sieve(25)
    found = sieve.primes_between(2, 25).tolist()
    assert found == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert sieve.count_primes_upto(25) == 9


def test_smallest_legal_limit():
    sieve = build_sieve(5)
    assert sieve.primes_between(4, 4).size == 0
    assert sieve.primes_between(5, 5).tolist() == [5]


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


def test_is_prime_matches_trial_division_exhaustively(store_1e5):
    # Every n up to 10**5 is listed iff trial division finds it prime.
    assert store_1e5.primes_between(2, 10**5).tolist() == [
        n for n in range(2, 10**5 + 1) if oracles.is_prime_trial(n)]


@pytest.mark.parametrize(
    "n,expected", [(97, True), (2, True), (91, False), (100, False), (7919, True)]
)
def test_is_prime_spot_values(store_1e4, n, expected):
    assert (store_1e4.primes_between(n, n).tolist() == [n]) is expected


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
        answers = {s.primes_between(n, n).size for s in sieves}
        assert len(answers) == 1, n
    assert all(
        s.count_primes_upto(limit) == sieves[0].count_primes_upto(limit)
        for s in sieves
    )


def test_threaded_build_is_bit_identical(monkeypatch):
    serial = build_sieve(10**6, threads=1)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**15)
    threaded = build_sieve(10**6, threads=4)
    for field in ("_planes", "_cum"):
        assert np.array_equal(getattr(serial, field), getattr(threaded, field))


# build_sieve fills its directory a window's words at a time: 8 words (512
# j-values, whose first numbers are 3072m + 5 and + 7) at windows up to 512
# j-values, 2**14 words at 2**20.  Each set of limits ends just before, at
# and just past a slice edge, and then past many.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size,limits", [
    (8, (3076, 3077, 3079, 10**4, 3 * 10**5)),
    (64, (3076, 3077, 3079, 10**4, 3 * 10**5)),
    (72, (3076, 3077, 3079, 10**4, 3 * 10**5)),
    (2**20, (6 * 2**20 + 4, 6 * 2**20 + 5, 6 * 2**20 + 7, 2 * 10**7)),
])
def test_directory_is_an_unsliced_popcount(segment_size, limits, threads,
                                           monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    for limit in limits:
        sieve = build_sieve(limit, threads=threads)
        a, b = sieve._planes
        for row, words in zip(sieve._cum, (a, b, a & b)):
            blocks = np.bitwise_count(words).reshape(-1, _BLOCK).sum(axis=1)
            assert row.tolist() == [0, *np.cumsum(blocks).tolist()], limit


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
    # test's ceiling), on top of what the process holds: the flags, which
    # prime_flags admits, and the array.  A refusal sieves no flags.
    monkeypatch.setattr(sieve_mod, "_flags", bytearray())
    monkeypatch.setattr(sieve_mod, "_rss_bytes", lambda: 10**8)
    held = 11 * 10**6 // 30 + 16384 + 9 * 78_498
    monkeypatch.setattr("twinprimes.sieve.DEFAULT_MEMORY_BUDGET", 10**8 + held)
    with pytest.raises(MemoryBudgetError):
        small_primes(10**6)
    assert not sieve_mod._flags
    assert len(small_primes(10**5)) == 9592


def test_small_primes_holds_the_flags_and_one_index_array(monkeypatch):
    # What prime_flags admits, a flag byte per 6j + 5 and 6j + 7 and the
    # zeros of one slice write, and 8 bytes per prime for the array with a
    # sixteenth for its growth; a copy of the flags or of the primes would
    # pass it.
    monkeypatch.setattr(sieve_mod, "_flags", bytearray())
    tracemalloc.start()
    try:
        small_primes(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 10**6 // 30 + 16384 + 9 * 78_498


def _candidate_flags(limit):
    """prime_flags' layout flag by flag, by trial division: 1 at each prime
    6j + 5, 2 at each prime 6j + 7, 0 at the other such numbers <= limit."""
    ns = sorted([*range(5, limit + 1, 6), *range(7, limit + 1, 6)])
    return bytearray((1 + (n % 6 == 1)) * oracles.is_prime_trial(n)
                     for n in ns)


def test_prime_flags_at_every_small_limit(trial_twin_1e4, monkeypatch):
    # Each limit sieved afresh, so that each ends where its own sieve ends.
    # A twin pair past (3, 5) is the bytes 1, 2, at an even offset only.
    want = _candidate_flags(3000)
    for limit in range(5, 3001):
        monkeypatch.setattr(sieve_mod, "_flags", bytearray())
        flags = sieve_mod.prime_flags(limit)
        assert flags == want[: (limit + 1) // 6 + (limit - 1) // 6], limit
        assert flags.count(b"\x01\x02") == trial_twin_1e4[limit] - 1, limit


def test_prime_flags_at_the_largest_one_window_limit(monkeypatch):
    # 6 * 2**20 + 4, the largest limit that a count reads off prime_flags.
    limit = 6 * 2**20 + 4
    monkeypatch.setattr(sieve_mod, "_flags", bytearray())
    a, b = _plain_plane_flags(limit)
    want = np.zeros(len(a) + len(b), dtype=np.uint8)
    want[::2], want[1::2] = a, 2 * b
    flags = sieve_mod.prime_flags(limit)
    assert flags == want.tobytes()
    assert flags.count(b"\x01\x02") == np.count_nonzero(a[: len(b)] & b)
    assert flags.count(b"\x01\x02") == 39_530 - 1


def test_sixth_is_the_inverse_of_6_modulo_each_base_prime():
    # The closed form that _windows takes, on int64s, for each prime past
    # the pre-sieve: pow's inverse for all 78,492 in (13, 10**6], also on ints.
    primes = small_primes(10**6)[6:]
    want = [pow(6, -1, p) for p in primes]
    assert len(want) == 78_492 and primes[0] == 17
    assert sieve_mod._sixth(np.array(primes, dtype=np.int64)).tolist() == want
    assert [sieve_mod._sixth(p) for p in primes] == want


def test_repeated_builds_are_deterministic():
    a = build_sieve(12345)
    b = build_sieve(12345)
    assert np.array_equal(a._planes, b._planes)


def test_concurrent_reads_agree_with_serial(store_1e5):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(7)
    probes = rng.integers(2, 10**5 + 1, size=2000).tolist()

    def is_listed(n):
        return store_1e5.primes_between(n, n).size == 1

    expected = [is_listed(n) for n in probes]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(is_listed, probes))
    assert got == expected


def test_enumeration_count_agrees_with_prefix_count(store_1e4):
    rng = np.random.default_rng(42)
    for x in rng.integers(2, 10**4 + 1, size=100).tolist():
        assert len(store_1e4.primes_between(2, x)) == store_1e4.count_primes_upto(x)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(2, 10**4), span=st.integers(0, 500))
def test_primes_between_consistent_with_counts(store_1e4, lo, span):
    hi = min(lo + span, 10**4)
    ps = store_1e4.primes_between(lo, hi)
    assert list(ps) == sorted(set(ps.tolist()))
    # Each listed p is where pi steps up (pi(1) = 0).
    assert all(store_1e4.count_primes_upto(p) - (
        store_1e4.count_primes_upto(p - 1) if p > 2 else 0) == 1
        for p in ps.tolist())
    expected = store_1e4.count_primes_upto(hi) - (
        store_1e4.count_primes_upto(lo - 1) if lo > 2 else 0
    )
    assert len(ps) == expected


def _assert_counts_match_oracles(sieve, pi, pi2):
    for x in range(2, sieve.limit + 1):
        assert sieve.count_primes_upto(x) == pi[x], x
        assert sieve.count_twins_upto(x) == pi2[x], x
    assert sieve.primes_between(2, sieve.limit).tolist() == [
        x for x in range(2, sieve.limit + 1) if pi[x] > pi[x - 1]]


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(5, 5000), block=st.sampled_from([1, 2, _BLOCK]))
def test_word_index_counts_match_oracles(trial_pi_1e4, trial_twin_1e4, limit,
                                         block):
    # Limits up to 5000 cross a 512-bit block of each plane (3072 numbers),
    # and blocks of one or two words cross many more.
    with mock.patch.object(sieve_mod, "_BLOCK", block):
        sieve = build_sieve(limit)
        _assert_counts_match_oracles(sieve, trial_pi_1e4, trial_twin_1e4)


def _assert_no_bit_past_the_limit(sieve, pi, pi2):
    """Every set bit counts at limit: none past the last number of a plane,
    and no twin bit for a pair ending past limit."""
    assert sieve._cum[0, -1] + sieve._cum[1, -1] + 2 == pi[sieve.limit]
    assert sieve._cum[2, -1] + 1 == pi2[sieve.limit]


# Bit j of a plane stands for 6j + 5 in A and 6j + 7 in B: bits 63, 64 and
# 65 are 383, 389, 395 and 385, 391, 397, so at 388 each plane holds a whole
# word; bits 511 and 512 (the first block edge) are 3071, 3077 and 3073,
# 3079.  The limits up to 2051 end inside words 0 to 5, 1500 in word 3,
# which is not a whole number of blocks, and 641 splits the pair (641, 643).
@pytest.mark.parametrize("limit", [127, 129, 130, 131, 133, 135, 257, 258, 641,
                                   643, 1025, 1027, 1029, 1500, 2049, 2051,
                                   383, 385, 388, 389, 391, 397, 3071, 3073,
                                   3076, 3077, 3079])
@pytest.mark.parametrize("segment_size", [8, 64, 2**20])
def test_word_boundaries(trial_pi_1e4, trial_twin_1e4, limit, segment_size,
                         monkeypatch):
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    sieve = build_sieve(limit)
    _assert_counts_match_oracles(sieve, trial_pi_1e4, trial_twin_1e4)
    # At 641 the pair (641, 643) sits in bit 106 of both planes, and B's
    # bit 106 lies past the limit, so its twin bit must be 0.
    _assert_no_bit_past_the_limit(sieve, trial_pi_1e4, trial_twin_1e4)


def test_twin_pair_across_a_block_edge(monkeypatch):
    # (15359, 15361) is the first twin pair in the last bit of a 512-bit
    # block, j = 2559, so block 5's cumulative count is the first to hold
    # it.  Blocks of one word put it in the last bit of a word too.
    twins = oracles.twin_prefix_counts(25603)
    assert twins[15361] == twins[15360] + 1
    for block in (1, _BLOCK):
        monkeypatch.setattr("twinprimes.sieve._BLOCK", block)
        sieve = build_sieve(25603)
        edge = 2560 // (64 * block)
        assert sieve._cum[2, edge] + 1 == twins[15361]
        assert sieve._cum[2, edge - 1] + 1 == twins[15361 - 6 * 64 * block]
        for x in range(15000, 25604):
            assert sieve.count_twins_upto(x) == twins[x], x


def test_answers_do_not_depend_on_the_shift_block(monkeypatch):
    # The block counts and a query's span cut the planes into blocks of
    # _BLOCK words; one word per block must answer alike.
    whole = build_sieve(5000)
    want = [(whole.count_primes_upto(x), whole.count_twins_upto(x))
            for x in range(2, 5001)]
    monkeypatch.setattr("twinprimes.sieve._BLOCK", 1)
    sliced = build_sieve(5000)
    assert len(sliced._cum[0]) > len(whole._cum[0])
    assert [(sliced.count_primes_upto(x), sliced.count_twins_upto(x))
            for x in range(2, 5001)] == want


# The count-only pass, against a plain sieve to 3 * 10**5.  Windows of 64
# and 72 odd numbers put many window edges below small limits, and 72 is not
# a whole number of 64-bit words.
@pytest.fixture(scope="module")
def oracle_3e5():
    return oracles.PrefixCounts(3 * 10**5)


def pi_pi2(limit, *, threads=1):
    """(pi(limit), pi2(limit)) from a pass that counts at the limit alone."""
    counts = count_at(limit, [limit], threads=threads)
    return counts.count_primes_upto(limit), counts.count_twins_upto(limit)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size", [64, 72])
def test_count_pass_matches_the_store_at_every_small_limit(
        trial_pi_1e4, trial_twin_1e4, store_1e4, segment_size, threads,
        monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    edge = 6 * segment_size  # the numbers past each window's last j
    for x in range(5, 3001):
        # Two workers fork twice a limit: only the limits within 12 of a
        # window edge, which still reach every window count that the one
        # worker does, and so every split of windows into runs.
        if threads == 2 and (x + 12) % edge > 24:
            continue
        expected = (trial_pi_1e4[x], trial_twin_1e4[x])
        assert pi_pi2(x, threads=threads) == expected, x
        assert (store_1e4.count_primes_upto(x),
                store_1e4.count_twins_upto(x)) == expected, x


@settings(max_examples=30, deadline=None)
@given(limit=st.integers(5, 3 * 10**5), threads=st.sampled_from([1, 2]),
       segment_size=st.sampled_from([64, 72, 2**20]))
def test_count_pass_matches_the_prefix_oracle(oracle_3e5, limit, threads,
                                              segment_size):
    with mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        got = pi_pi2(limit, threads=threads)
    assert got == (oracle_3e5.count_primes_upto(limit),
                   oracle_3e5.count_twins_upto(limit))


def test_count_pass_with_more_workers_than_cores(oracle_3e5, monkeypatch):
    # Eight forked workers on any host: each counts its own run of windows
    # and sends back each window's totals and the bits of its keys.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    for limit in (10**5, 3 * 10**5):
        forks.clear()
        assert pi_pi2(limit, threads=8) == (
            oracle_3e5.count_primes_upto(limit),
            oracle_3e5.count_twins_upto(limit))
        # Seven for the pass to the limit; none to re-sieve the one window
        # that holds pi(limit) (window 24, and 67).
        assert len(forks) == 7, limit
    _no_child_left()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_a_worker(monkeypatch, act):
    """Two workers over windows of 64 j-values, and act() called in the
    forked one as it starts its run."""
    parent, windows = os.getpid(), sieve_mod._windows

    def hooked(limit):
        window = windows(limit)

        def hooked_window(k):
            if os.getpid() != parent:
                act()
            return window(k)
        return hooked_window

    monkeypatch.setattr(sieve_mod, "_windows", hooked)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)


_DEATHS = {"exit 3": (lambda: os._exit(3), 3),
           "SIGKILL": (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)}


@pytest.mark.parametrize("death", sorted(_DEATHS))
def test_a_worker_that_dies_is_an_error(death, monkeypatch, capsys):
    act, status = _DEATHS[death]
    _in_a_worker(monkeypatch, act)
    ended = rf"worker \d+ ended without a result \(exit status {status}\)"
    for run in (lambda: build_sieve(10**4, threads=2),
                lambda: pi_pi2(10**4, threads=2)):
        with pytest.raises(ChildProcessError, match=ended):
            run()
        _no_child_left()
    assert cli.main(["sieve", "--limit", "10000", "--threads", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(f"error: {ended}\n", err), err
    _no_child_left()


def test_a_worker_exception_keeps_its_type(monkeypatch, capsys):
    def fail():
        raise SieveRangeError("raised in a worker")

    _in_a_worker(monkeypatch, fail)
    with pytest.raises(SieveRangeError, match="raised in a worker"):
        pi_pi2(10**4, threads=2)
    _no_child_left()
    assert cli.main(["sieve", "--limit", "10000", "--threads", "2"]) == 1
    assert capsys.readouterr() == ("", "error: raised in a worker\n")


def test_workers_are_reaped_and_killed_if_the_parent_fails(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    assert pi_pi2(10**4, threads=2) == (1229, 205)
    _no_child_left()
    parent, windows = os.getpid(), sieve_mod._windows

    def parent_fails(limit):
        window = windows(limit)

        def failing_window(k):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # killed long before
            return window(k)
        return failing_window

    monkeypatch.setattr(sieve_mod, "_windows", parent_fails)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pi_pi2(10**4, threads=2)
    assert time.monotonic() - started < 30
    _no_child_left()


def test_a_second_ctrl_c_waits_until_the_worker_is_reaped(monkeypatch):
    # The first SIGINT stops the caller's run; a second, sent as the worker
    # is killed, is held until the worker is reaped, and then raised.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, kill = os.getpid(), os.kill

    def work(ks):
        if os.getpid() == parent:
            kill(parent, signal.SIGINT)
        for _ in ks:
            time.sleep(60)  # interrupted, or killed, long before

    def kill_then_interrupt(pid, sig):
        kill(pid, sig)
        kill(parent, signal.SIGINT)

    monkeypatch.setattr(os, "kill", kill_then_interrupt)
    # SIGINT raises KeyboardInterrupt here even where the tests run with it
    # ignored (a background job).
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sieve_mod._fan_out(work, 2, range(2))
        assert time.monotonic() - started < 30
    finally:
        signal.signal(signal.SIGINT, handler)
    _no_child_left()


def _python(code, timeout):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout)


def test_text_printed_before_a_two_worker_pass_appears_once():
    # stdout is a pipe, so "before" is still buffered when the worker forks.
    proc = _python(
        "import os\n"
        "os.cpu_count = lambda: 2\n"
        "from twinprimes import sieve\n"
        "sieve.SEGMENT_SIZE = 64\n"
        "print('before')\n"
        "print(sieve.count_at(10**4, [10**4], threads=2)[10**4])\n", 120)
    assert (proc.returncode, proc.stdout) == (0, "before\n(1229, 205)\n")


# The parent ends in its own run; its worker, with 2,604 windows of 20 ms
# left, holds the stdout pipe, so run() returns only once it has ended.
_ORPHAN = """
import os, time
os.cpu_count = lambda: 2
from twinprimes import sieve
sieve.SEGMENT_SIZE = 64
parent, windows = os.getpid(), sieve._windows

def slow(limit):
    window = windows(limit)

    def slow_window(k):
        if os.getpid() == parent:
            os._exit(0)
        time.sleep(0.02)
        return window(k)
    return slow_window

sieve._windows = slow
sieve.count_at(2 * 10**6, [2 * 10**6], threads=2)
"""


def test_an_orphaned_worker_stops_at_its_next_window():
    started = time.monotonic()
    assert _python(_ORPHAN, 120).returncode == 0
    assert time.monotonic() - started < 20


def test_without_fork_a_pass_runs_on_one_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    xs = [10**4, 3 * 10**4, 10**5]
    forked = count_at(10**5, xs, threads=2), build_sieve(10**5, threads=2)
    monkeypatch.delattr(os, "fork")  # any fork would raise AttributeError
    assert _worker_count(2, 100) == 1
    assert count_at(10**5, xs, threads=2) == forked[0]
    store = build_sieve(10**5, threads=2)
    for field in ("_planes", "_cum"):
        assert np.array_equal(getattr(store, field), getattr(forked[1], field))


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(2, 3 * 10**5), threads=st.sampled_from([1, 2, 3]),
       segment_size=st.sampled_from([64, 72, 512]),
       seed=st.integers(0, 2**32 - 1))
def test_count_at_matches_the_prefix_oracle_at_its_points(
        oracle_3e5, limit, threads, segment_size, seed):
    # Random points, the x within 6 of each window edge (bit j is 6j + 5
    # and 6j + 7) and 2..15, on up to three workers, each answering the
    # points in its own run; and pi at each pi(x).
    rng = np.random.default_rng(seed)
    edges = [6 * j + 5 + d for j in range(0, limit // 6 + 1, segment_size)
             for d in range(-6, 7)]
    xs = [x for x in [*rng.integers(2, limit, 200, endpoint=True).tolist(),
                      *edges, *range(2, 16), limit] if 2 <= x <= limit]
    with mock.patch.object(os, "cpu_count", lambda: 3), \
            mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        counts = count_at(limit, xs, threads=threads)
    for x in xs:
        pi = oracle_3e5.count_primes_upto(x)
        assert counts.count_primes_upto(x) == pi, x
        assert counts.count_twins_upto(x) == oracle_3e5.count_twins_upto(x), x
        if pi >= 2:
            assert counts.count_primes_upto(pi) == oracle_3e5.count_primes_upto(
                pi), x


# Each edge of a window of 64 j-values, 64k - 1, 64k and 64k + 1 for k <= 67
# (past pi(3 * 10**5) = 25,997, whose keys reach 4,333), and every pi whose
# key, (pi + 1) // 6 in A or (pi - 1) // 6 in B, is one of them.
_EDGE_PIS = [pi for k in range(1, 68) for j in (64 * k - 1, 64 * k, 64 * k + 1)
             for pi in range(6 * j - 1, 6 * j + 7)]


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(2, 3 * 10**5), threads=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_window_totals_join_to_the_prefix_oracle(oracle_3e5, limit, threads,
                                                 seed):
    # Windows of 64 j-values on one to four workers: each window's totals
    # and its keys' bits, joined in window order, answer every x and every
    # pi(x).  The points hold random x and each x whose pi(x) has a key at
    # the edge of a window that is sieved again for it.  On one worker, each
    # window up to the limit is sieved once, then each that holds a key of
    # a pi(x) once more.
    primes = oracle_3e5.primes_upto(limit)
    rng = np.random.default_rng(seed)
    xs = [*rng.integers(2, limit, 50, endpoint=True).tolist(), limit,
          *(primes[pi - 1] for pi in _EDGE_PIS if pi <= len(primes))]
    sieved, windows = [], sieve_mod._windows

    def spy(top):
        window = windows(top)

        def spied(k):
            sieved.append(k)
            return window(k)
        return spied

    with mock.patch.object(os, "cpu_count", lambda: 4), \
            mock.patch.object(sieve_mod, "SEGMENT_SIZE", 64), \
            mock.patch.object(sieve_mod, "_windows", spy):
        counts = count_at(limit, xs, threads=threads)
    pis = set()
    for x in xs:
        pi = oracle_3e5.count_primes_upto(x)
        assert counts[x] == (pi, oracle_3e5.count_twins_upto(x)), x
        if pi >= 2:
            pis.add(pi)
            assert counts[pi] == (oracle_3e5.count_primes_upto(pi),
                                  oracle_3e5.count_twins_upto(pi)), x
    n = max(1, -(-((limit + 1) // 6) // 64))
    again = {min(j // 64, n - 1) for pi in pis
             for j in ((pi + 1) // 6, (pi - 1) // 6)}
    if threads == 1:
        assert sieved == ([*range(n), *sorted(again)] if n > 1 else [])


def test_a_pass_sieves_each_window_once_and_each_pi_window_again(
        monkeypatch):
    # Windows of 2**20 j-values: pi(10**8) = 5,761,455 lies in window 0 of
    # 16, and pi(10**9) = 50,847,534 in window 8 of 159.  Each is sieved
    # once more, from the base primes of the pass, which are found once.
    sieved, found = [], []
    windows, small = sieve_mod._windows, sieve_mod.small_primes

    def spy(top):
        window = windows(top)

        def spied(k):
            sieved.append(k)
            return window(k)
        return spied

    def small_primes(limit, **kwargs):
        found.append(limit)
        return small(limit, **kwargs)

    monkeypatch.setattr(sieve_mod, "_windows", spy)
    monkeypatch.setattr(sieve_mod, "small_primes", small_primes)
    for x, n, again, pi, pi_pi in ((10**8, 16, 0, 5_761_455, 397_557),
                                   (10**9, 159, 8, 50_847_534, 3_048_955)):
        sieved.clear()
        found.clear()
        counts = count_at(x, [x])
        assert (counts.count_primes_upto(x), counts.count_primes_upto(pi)) == (
            pi, pi_pi)
        assert sieved == [*range(n), again], x
        assert found == [math.isqrt(x)], x
    assert counts.count_twins_upto(10**9) == 3_424_506


def test_a_count_sets_up_its_window_sieve_once_before_any_fork(monkeypatch):
    # Two workers over windows of 64 j-values, in both rounds: pi(10**4) =
    # 1,229 and pi(10**5) = 9,592 lie in windows 3 and 24 of 261, so the
    # second round forks too.  The base primes are found and the window
    # sieve set up once, in the caller; a forked worker that set one up
    # would raise here, and its pass with it.
    parent, fork = os.getpid(), os.fork
    windows, small = sieve_mod._windows, sieve_mod.small_primes
    entered, found, forks = [], [], []

    def spy(limit):
        assert os.getpid() == parent, "a forked worker set up a window sieve"
        entered.append(limit)
        return windows(limit)

    def small_primes(limit, **kwargs):
        found.append(limit)
        return small(limit, **kwargs)

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 64)
    monkeypatch.setattr(sieve_mod, "_windows", spy)
    monkeypatch.setattr(sieve_mod, "small_primes", small_primes)
    counts = count_at(10**5, [10**4, 10**5], threads=2)
    assert (counts[10**4], counts[10**5]) == ((1229, 205), (9592, 1224))
    assert (counts[1229][0], counts[9592][0]) == (201, 1184)
    assert (entered, found, len(forks)) == ([10**5], [316], 2)
    _no_child_left()


def test_count_at_answers_only_its_points():
    counts = count_at(10**4, [100, 5000])
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
    # Below 300 every pass counts on prime_flags, within one window, never
    # on the windows of numpy.  A pass at one x reads the flags in one span;
    # a pass at every x splits them between spans.
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
def test_one_and_two_window_passes_match_the_prefix_oracle(
        oracle_3e5, segment_size, offset, threads, seed):
    # A pass up to 6 * size + 4, whose (x + 1) // 6 is size, fits in one
    # window; 6 * size + 5, the next in A, needs a second.
    limit = 6 * segment_size + 4 + offset
    rng = np.random.default_rng(seed)
    xs = [*rng.integers(2, limit, 30, endpoint=True).tolist(), limit]
    with mock.patch.object(os, "cpu_count", lambda: 2), \
            mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size), \
            mock.patch.object(sieve_mod, "_windows",
                              wraps=sieve_mod._windows) as windows:
        counts = count_at(limit, xs, threads=threads)
    assert windows.called == (offset > 0)
    for x in xs:
        assert counts.count_primes_upto(x) == oracle_3e5.count_primes_upto(x)
        assert counts.count_twins_upto(x) == oracle_3e5.count_twins_upto(x)


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
    # With 64 j-values per window, (1151, 1153) is the pair in the last bit
    # (j = 191) of window 2, and 1157, the next in A, the first of window 3.
    # At 2303 there are 6 windows, and two workers take windows 0-2 and 3-5,
    # so the pair is the last of a run too.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 64)
    twins = oracles.twin_prefix_counts(2303)
    assert twins[1153] == twins[1152] + 1
    for x in (1152, 1153, 1157, 2303):
        assert pi_pi2(x, threads=threads)[1] == twins[x], x


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("segment_size", [64, 72])
def test_count_pass_matches_the_oracles_at_every_window_edge(
        trial_pi_1e4, trial_twin_1e4, segment_size, threads, monkeypatch):
    # Window k starts at bit k * size, the numbers 6 * k * size + 5 and + 7.
    # The x within six of that read the last flags of one window and the
    # first of the next, as points of one pass to 10**4 on up to four runs.
    # A pass to 6 * k * size + 4 fills its windows and answers its limit
    # past the last.  No store checks them: it shares _windows with the
    # pass.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    limit = 10**4
    starts = range(6 * segment_size + 5, limit + 7, 6 * segment_size)
    edges = [x for start in starts for x in range(start - 6, start + 7)
             if x <= limit]
    counts = count_at(limit, edges, threads=threads)
    for x in edges:
        assert (counts.count_primes_upto(x), counts.count_twins_upto(x)) == (
            trial_pi_1e4[x], trial_twin_1e4[x]), x
    for x in starts:
        assert pi_pi2(x - 1, threads=threads) == (
            trial_pi_1e4[x - 1], trial_twin_1e4[x - 1]), x


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("segment_size", [8, 64, 72])
def test_store_and_pass_match_the_oracles_at_window_and_block_edges(
        trial_pi_1e4, trial_twin_1e4, segment_size, threads, monkeypatch):
    # Every x within 6 of a window edge or a 512-bit block edge (bit j is
    # 6j + 5 and 6j + 7), from a store and from a pass to 10**4.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    limit = 10**4
    js = {*range(0, limit // 6 + 1, segment_size),
          *range(0, limit // 6 + 1, 64 * _BLOCK)}
    xs = sorted({x for j in js for x in range(6 * j - 1, 6 * j + 12)
                 if 2 <= x <= limit})
    sieve = build_sieve(limit, threads=threads)
    counts = count_at(limit, xs, threads=threads)
    for x in xs:
        want = (trial_pi_1e4[x], trial_twin_1e4[x])
        assert (sieve.count_primes_upto(x), sieve.count_twins_upto(x)) == want
        assert (counts.count_primes_upto(x),
                counts.count_twins_upto(x)) == want, x


def test_store_and_pass_match_the_prefix_oracle_at_1e6(store_1e6, sieve_1e6):
    # The report, estimator and Legendre tests read the oracle; here the
    # store and a count pass answer as it does at 10**6.
    rng = np.random.default_rng(2)
    xs = sorted({*rng.integers(2, 10**6 + 1, size=2000).tolist(),
                 *(10**k for k in range(1, 7)), 2, 3, 4, 5, 10**6 - 1})
    counts = count_at(10**6, xs)
    for x in xs:
        want = (sieve_1e6.count_primes_upto(x), sieve_1e6.count_twins_upto(x))
        assert (store_1e6.count_primes_upto(x),
                store_1e6.count_twins_upto(x)) == want, x
        assert (counts.count_primes_upto(x),
                counts.count_twins_upto(x)) == want, x


def test_a_multi_window_count_never_counts_on_bytearray_planes(
        oracle_3e5, monkeypatch):
    # Both passes of a count past one window use the windows, also the pass
    # over pi(x), which would fit in one: 3 * 10**5 spans 7 windows of 8192
    # j-values, and pi(3 * 10**5) = 25,997 lies in the first.  The bytearray
    # flags of prime_flags serve only the base primes, up to
    # sqrt(3 * 10**5) = 547.
    sieved = []

    def prime_flags(limit):
        sieved.append(limit)
        return prime_flags.wrapped(limit)

    prime_flags.wrapped = sieve_mod.prime_flags
    monkeypatch.setattr(sieve_mod, "prime_flags", prime_flags)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**13)
    limit = 3 * 10**5
    counts = count_at(limit, [10**4, limit])
    assert sieved and max(sieved) <= 547
    for x in (10**4, limit):
        pi = oracle_3e5.count_primes_upto(x)
        assert counts.count_primes_upto(x) == pi
        assert counts.count_twins_upto(x) == oracle_3e5.count_twins_upto(x)
        assert counts.count_primes_upto(pi) == oracle_3e5.count_primes_upto(pi)


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


@pytest.mark.parametrize("limit", [10**4, 3 * 10**6, 10**7])
def test_count_pass_allocates_within_its_estimate(limit, monkeypatch):
    # One window, the largest of them, and two: the second window's block
    # counts must not sit beside the first's.  At the limit alone and at 400
    # points the answers count too.  tracemalloc sees only this process,
    # which on two workers runs one of them and joins the answers of both:
    # the share of a single worker's estimate (tests/test_memory.py measures
    # the forked one).  A first run imports what the pass loads on first use.
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
            assert peak <= _estimate_bytes(limit, 1, store=False,
                                           points=len(xs)), (threads, len(xs))


def test_count_pass_allocates_within_its_estimate_over_many_windows(
        monkeypatch):
    # 782 windows of 64 j-values to 3 * 10**5: the 3 int64 totals of each,
    # sent back by the worker, joined and summed, count in the estimate.  A
    # first pass over a few windows imports what the pass loads on first use.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 64)
    assert sieve_mod._n_windows(3 * 10**5) == 782
    count_at(10**4, [10**4], threads=2)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            count_at(3 * 10**5, [3 * 10**5], threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _estimate_bytes(3 * 10**5, 1, store=False,
                                       points=1), threads


def test_window_totals_are_joined_in_two_copies(monkeypatch):
    # 78,125 windows of 64 j-values to 3 * 10**7, each yielded empty: the
    # pass then holds little more than its 1.8 MiB of totals, in the runs'
    # arrays and in the one they are joined in.  A third copy alone passes
    # the estimate's terms for the rest, so a join that keeps one fails.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 64)
    empty = np.zeros(0, "<u8")
    monkeypatch.setattr(sieve_mod, "_windows",
                        lambda limit: lambda k: (k, [empty, empty]))
    limit = 3 * 10**7
    totals = 24 * sieve_mod._n_windows(limit)
    estimate = _estimate_bytes(limit, 1, store=False, points=1)
    assert totals > estimate - 2 * totals
    count_at(10**4, [10**4], threads=2)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            count_at(limit, [limit], threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate, threads


def test_count_budget_admits_totals_to_2_5e13(monkeypatch):
    # Arithmetic only: no such pass is run.  With 64 MiB held, the base
    # primes and two copies of 3 int64s per window fit the default budget at
    # 2.5 * 10**13 (~244 MiB), and at 10**14 they do not.
    monkeypatch.setattr(sieve_mod, "_rss_bytes", lambda: 64 * 2**20)
    sieve_mod._admit(_estimate_bytes(25 * 10**12, 1, False, 1),
                     sieve_mod.DEFAULT_MEMORY_BUDGET)
    with pytest.raises(MemoryBudgetError):
        sieve_mod._admit(_estimate_bytes(10**14, 1, False, 1),
                         sieve_mod.DEFAULT_MEMORY_BUDGET)


def test_budget_counts_what_the_process_holds(monkeypatch):
    # A budget one byte below what the process holds plus the estimate
    # refuses; the estimate alone would fit.
    # small_primes admits what prime_flags does with its array, at once.
    held, limit = 10**8, 10**6
    monkeypatch.setattr(sieve_mod, "_rss_bytes", lambda: held)
    flags = 11 * limit // 30 + 16384
    array = 9 * math.ceil(1.25506 * limit / math.log(limit))
    for run, need in ((build_sieve, held + _estimate_bytes(limit, 1)),
                      (pi_pi2, held + _estimate_bytes(limit, 1, False, 1)),
                      (small_primes, held + flags + array),
                      (sieve_mod.prime_flags, held + flags)):
        # prime_flags serves a limit that its held sieve covers, unadmitted.
        monkeypatch.setattr(sieve_mod, "_flags", bytearray())
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
    """The flags of both planes that _windows yields for limit, each plane's
    windows end to end; every bit past SEGMENT_SIZE in a window is 0."""
    segment_size = sieve_mod.SEGMENT_SIZE
    ks = range(-(-((limit + 1) // 6) // segment_size))
    planes = ([], [])
    for k, words in map(sieve_mod._windows(limit), ks):
        for plane, w in zip(planes, words):
            bits = np.unpackbits(w.view(np.uint8), bitorder="little")
            assert not bits[segment_size:].any(), k
            plane.append(bits[:segment_size])
    return tuple(np.concatenate(p).astype(bool) for p in planes)


def _plain_plane_flags(limit):
    """Primality of 5, 11, 17, ... and of 7, 13, 19, ... <= limit from an
    unsegmented bool sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags[5::6], flags[7::6]


# Windows of 64 and 72 j-values, of 5,000 and 5,008, fewer and more than the
# 5,005 of the pre-sieve pattern, 8 of its periods (each window starts where
# the pattern does), 64 of them and the default 2**20.
_PATTERN_EDGE_SIZES = [64, 72, 5_000, 5_008, 40_040, 320_320, 2**20]


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(5, 3 * 10**5),
       segment_size=st.sampled_from(_PATTERN_EDGE_SIZES))
def test_window_flags_match_a_plain_sieve(limit, segment_size):
    with mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment_size):
        got = _window_flags(limit)
    for plane, want, c in zip(got, _plain_plane_flags(limit), (5, 7)):
        assert np.array_equal(plane[: len(want)], want)
        assert not plane[len(want):].any()
        if limit <= 10**4:
            assert plane[: len(want)].tolist() == [
                oracles.is_prime_trial(n) for n in range(c, limit + 1, 6)]


@pytest.mark.parametrize("plane, c", enumerate(sieve_mod._OFFSETS))
def test_the_pattern_is_cleared_at_the_residues_of_5_to_13(plane, c,
                                                          monkeypatch):
    # With no base prime past 13, window k > 0 of 5,000 j-values is the
    # pattern read from j = 5,000k mod 5,005, which for k = 1..1,001 is
    # each multiple of 5 below 5,005.  The rule it replaced is the oracle.
    want = np.gcd(6 * np.arange(2 * 5005) + c, 5005) == 1
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 5000)
    monkeypatch.setattr(sieve_mod, "small_primes",
                        lambda limit: array("q", (2, 3, 5, 7, 11, 13)))
    window = sieve_mod._windows(6 * 5000 * 1002 + 7)
    for k in range(1, 1002):
        bits = np.unpackbits(window(k)[1][plane].view(np.uint8),
                             bitorder="little")[:5000].astype(bool)
        start = 5000 * k % 5005
        assert np.array_equal(bits, want[start : start + 5000]), k


def test_lucy_count_gives_a006880_and_the_c10a_constant():
    # An exact pi(x) that shares no code with the package: pi(10**k) for
    # k = 1..9 (OEIS A006880), and the pi(3.7 * 10**7) that C10a freezes.
    assert [oracles.lucy_pi(10**k) for k in range(1, 10)] == [
        4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534]
    assert oracles.lucy_pi(37 * 10**6) == 2_261_623
    assert [oracles.lucy_pi(n) for n in range(-1, 12)] == [
        0, 0, 0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5]


@pytest.mark.parametrize("segment_size", [8, 64, 2**20])
def test_window_flags_below_the_first_base_prime_past_13(segment_size,
                                                         monkeypatch):
    # Below 17**2 every base prime is a pre-sieve prime, so the pattern and
    # window 0's restored 5..13 alone decide every flag.
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", segment_size)
    for limit in range(5, 201):
        for plane, c in zip(_window_flags(limit), (5, 7)):
            numbers = range(c, limit + 1, 6)
            assert plane[: len(numbers)].tolist() == [
                oracles.is_prime_trial(n) for n in numbers], limit
            assert not plane[len(numbers):].any(), limit
    a, b = _window_flags(200)
    assert all((a, b)[p % 6 == 1][(p - 5) // 6] for p in sieve_mod._PRESIEVE)
