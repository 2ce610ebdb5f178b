"""The memory budget is an upper bound on what a build really takes.

Each measurement runs in a fresh interpreter that records its own
``ru_maxrss``.  Linux carries a process's peak RSS across fork and exec, so
a child of the test process would start from the test process's peak; the
measured child is therefore started by a small intermediate interpreter.
"""

import json
import subprocess
import sys

import pytest

from twinprimes import sieve as sieve_mod

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only"
)

_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"

_CHILD = """
import json, resource, sys
from twinprimes import sieve
limit, threads = int(sys.argv[1]), int(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
s = sieve.build_sieve(limit, threads=threads)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
held = sum(a.nbytes for a in (s._words, s._prime_cum, s._twin_cum))
print(json.dumps({
    "delta": 1024 * (after - before), "peak": 1024 * after, "held": held,
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
    assert got["held"] // 2 <= got["delta"] <= estimate


def test_1e9_builds_inside_the_default_budget():
    got = _measure(10**9, 1)
    assert (got["pi"], got["pi2"]) == (50_847_534, 3_424_506)
    assert got["peak"] < sieve_mod.DEFAULT_MEMORY_BUDGET
    # 62.5 MB of words and 15.6 MB of block counts; 106 MiB measured.
    assert got["peak"] < 128 * 1024 * 1024
