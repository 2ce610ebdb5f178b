"""The memory budget is an upper bound on what a build really takes, it
does not count memory that a process once held, and the CLI counts without
a store.

Each measurement runs in a fresh interpreter that records its own
``ru_maxrss``.  Linux carries a process's peak RSS across fork and exec, so
a child of the test process would start from the test process's peak; the
measured child is therefore started by a small intermediate interpreter.
A pass on two workers forks one of them; the memory it takes is the
parent's growth plus each forked worker's own.

Every measured child reads its bytecode from one private cache, primed
once for the module.  Without it, under PYTHONDONTWRITEBYTECODE a child
with no ``__pycache__`` to read compiles what it imports, and that compile
peak raises the peak RSS it starts from, so a build's growth reads low.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from twinprimes import estimators
from twinprimes import sieve as sieve_mod

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only"
)

_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"

# Writes the bytecode of the package and of what the measured children
# import (the standard library's and numpy's included: a cache prefix is
# read in place of every __pycache__ directory).
_PRIME = """
import compileall, json, os, pickle, resource, signal, subprocess
import numpy
import twinprimes.cli, twinprimes.report
compileall.compile_dir(os.path.dirname(twinprimes.__file__), quiet=1)
"""


@pytest.fixture(scope="module", autouse=True)
def warm_bytecode_cache(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("pycache"))
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", _PRIME], check=True, timeout=300,
                   env={**env, "PYTHONPYCACHEPREFIX": prefix})
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPYCACHEPREFIX", prefix)
        yield

# Installed in a measured interpreter: each forked worker sends, after each
# of its windows, the growth of its VmHWM over its RSS at its first window,
# keyed by its pid and the pass's limit; workers_growth() is the largest sum
# over the workers of one pass of each one's last growth.  The OpenBLAS line
# is cli.main's, so that numpy starts no thread before a fork.
_WORKERS = """
import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from twinprimes import sieve
_parent, _windows = os.getpid(), sieve._windows
_read, _write = os.pipe()

def _vm(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f
                    if line.startswith(key))

def _measured(limit):
    window, start = _windows(limit), []

    def measured(k):
        if os.getpid() == _parent:
            return window(k)
        start[:] = start or [_vm("VmRSS:")]
        out = window(k)
        grown = _vm("VmHWM:") - start[0]
        os.write(_write, f"{os.getpid()} {limit} {grown}\\n".encode())
        return out
    return measured

sieve._windows = _measured

def workers_growth():
    os.close(_write)
    workers = {}
    with os.fdopen(_read) as f:
        for line in f:
            pid, limit, grown = map(int, line.split())
            workers[pid, limit] = grown
    passes = {}
    for (_, limit), grown in workers.items():
        passes[limit] = passes.get(limit, 0) + grown
    return max(passes.values(), default=0)
"""

# A build imports numpy before its guard reads RSS, so the guard counts
# numpy as held, not as requested: the child imports it before `before`.
_CHILD = _WORKERS + """
import json, resource, sys
import numpy
limit, threads = int(sys.argv[1]), int(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
s = sieve.build_sieve(limit, threads=threads)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
held = s._planes.nbytes + s._cum.nbytes
print(json.dumps({
    "delta": 1024 * (after - before), "peak": 1024 * after, "held": held,
    "workers": workers_growth(),
    "pi": s.count_primes_upto(limit), "pi2": s.count_twins_upto(limit),
}))
"""


def _measure(limit, threads):
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH,
         sys.executable, "-c", _CHILD, str(limit), str(threads)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("limit", [10**7, 10**8])
def test_rss_growth_of_a_build_is_within_the_estimate(limit, threads):
    got = _measure(limit, threads)
    estimate = sieve_mod._estimate_bytes(limit, threads)
    # the lower bound shows the child did not start from an inherited peak
    assert got["held"] // 2 <= got["delta"]
    assert got["delta"] + got["workers"] <= estimate
    # one worker forks none
    assert (got["workers"] > 0) == (threads > 1 and (os.cpu_count() or 1) > 1)


def test_1e9_builds_inside_the_default_budget():
    got = _measure(10**9, 1)
    assert (got["pi"], got["pi2"]) == (50_847_534, 3_424_506)
    assert got["peak"] < sieve_mod.DEFAULT_MEMORY_BUDGET
    # 41.7 MB of words in two planes and 7.8 MB of block counts, which are
    # counted a window's words at a time, so their temporaries are a
    # window's (~0.3 MB), not the store's (~32 MB); 75.9 MiB measured.
    assert got["peak"] < 88 * 1024 * 1024


_SIEVE_CLI = """
import resource, sys
from twinprimes.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def _cli_peak(*argv):
    """The stdout lines and peak RSS in bytes of a fresh CLI process."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _SIEVE_CLI,
         *argv],
        capture_output=True, text=True, timeout=300,
    )
    *lines, peak_kib = proc.stdout.splitlines()
    return proc.returncode, lines, int(peak_kib) * 1024


def test_sieve_1e9_counts_without_a_store():
    code, lines, peak = _cli_peak("sieve", "--limit", str(10**9))
    assert code == 0
    # pi_pi as a store built at 50,847,534 counts it.
    assert lines == ["limit=1000000000", "pi=50847534", "pi2=3424506",
                     "pi_pi=3048955"]
    # A store at 10**9 peaks at ~76 MiB; the count-only passes at ~32 MiB,
    # about what the interpreter and numpy take on their own.
    assert peak < 48 * 1024 * 1024


_SIEVE_CLI_WORKERS = _WORKERS + """
import json, resource, sys
import numpy
from twinprimes.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"parent": 1024 * (after - before),
                  "workers": workers_growth()}))
sys.exit(code)
"""


def test_sieve_1e9_on_two_workers_stays_within_the_estimate():
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-c",
         _SIEVE_CLI_WORKERS, "sieve", "--limit", str(10**9), "--threads", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, grown = proc.stdout.splitlines()
    assert lines == ["limit=1000000000", "pi=50847534", "pi2=3424506",
                     "pi_pi=3048955"]
    got = json.loads(grown)
    # The first pass, to 10**9, is the larger; its estimate bounds both.
    estimate = sieve_mod._estimate_bytes(10**9, 2, store=False, points=1)
    assert got["parent"] + got["workers"] <= estimate
    assert got["workers"] > 0 or (os.cpu_count() or 1) == 1


def test_check_sieves_only_to_its_last_point():
    # No point of the suite or the audit lies past 10**6, so `check` never
    # sieves to 10**9; a store at 10**9 would peak at ~76 MiB.
    code, lines, peak = _cli_peak("check", "--limit", str(10**9))
    assert code == 2  # estimator_accuracy fails by design (C4b)
    assert lines[-1].startswith("reference audit:")
    assert peak < 48 * 1024 * 1024


# Holds 96 MiB, frees it, then execs the child, which keeps that peak RSS.
_HIGH_PEAK = """
import os, sys
import numpy as np
np.ones(96 * 2**20, dtype=np.uint8)
os.execv(sys.executable, [sys.executable, "-c", sys.argv[1]])
"""

_BELOW_PEAK = """
import json, resource
from twinprimes import sieve
peak = 1024 * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sieve.DEFAULT_MEMORY_BUDGET = peak  # peak plus any estimate would not fit
counts = sieve.count_at(10**6, [10**6])
print(json.dumps({
    "peak": peak,
    "pass": [counts.count_primes_upto(10**6), counts.count_twins_upto(10**6)],
    "small": len(sieve.small_primes(10**6)),
    "store": sieve.build_sieve(10**6).count_twins_upto(10**6),
}))
"""


def test_an_inherited_peak_is_not_counted():
    proc = subprocess.run(
        [sys.executable, "-c", _HIGH_PEAK, _BELOW_PEAK],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["peak"] >= 96 * 2**20
    assert got["pass"] == [78_498, 8_169]
    assert (got["small"], got["store"]) == (78_498, 8_169)


# Counts in one window, then in two, under a budget of what the process held
# before numpy was imported plus the two-window estimate and 4 MiB; numpy
# takes ~12.5 MiB of RSS.  One window reaches 6 * 2**20 + 4.
_NUMPY_HELD = """
import json, sys
from twinprimes import sieve
estimate = int(sys.argv[1])
held = sieve._rss_bytes()
sieve.DEFAULT_MEMORY_BUDGET = held + estimate + 4 * 2**20
one = sieve.count_at(10**6, [10**6]).count_twins_upto(10**6)
loaded = "numpy" in sys.modules
try:
    sieve.count_at(10**7, [10**7])
except sieve.MemoryBudgetError as err:
    print(json.dumps({"one": one, "loaded": loaded, "before": held,
                      "held": err.held_bytes}))
else:
    sys.exit("the two-window pass was admitted")
"""


def test_a_multi_window_guard_counts_numpy_as_held():
    # Imported after the guard, numpy's RSS would pass the budget unseen.
    estimate = sieve_mod._estimate_bytes(10**7, 1, False, 1)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_HELD, str(estimate)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert (got["one"], got["loaded"]) == (8_169, False)
    assert got["held"] > got["before"] + 4 * 2**20


@pytest.mark.parametrize("pmax", [10**6, 10**7])
def test_streamed_euler_products_take_only_their_flag_sieve(pmax,
                                                            monkeypatch):
    # What prime_flags admits, the flags and the zeros of one slice write;
    # a copy of the flags, or an array of the primes up to pmax beside
    # them, would pass it.
    # The run's C2 then the ladder, and the ladder first: as the sieve grows,
    # the shorter one it held is dropped before the longer one is built.
    for rungs in ((pmax, 100, 10**5), (100, 10**5, pmax)):
        monkeypatch.setattr(sieve_mod, "_flags", bytearray())
        estimators.twin_prime_constant.cache_clear()
        tracemalloc.start()
        try:
            for p in rungs:
                estimators.twin_prime_constant(p)
            estimators.twin_ratio_product(pmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            estimators.twin_prime_constant.cache_clear()
        assert peak <= 11 * pmax // 30 + 16384, rungs
