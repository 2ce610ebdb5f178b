"""Self-test of the benchmark harness; no timing thresholds.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It shows that the same seed gives
the same query batches, that a corrupted golden or an unexpected exit code
is counted as a failed op, that each child's peak RSS is its own, that
the span tree attributes self time correctly on a toy call chain, and that
the 90th percentile the gated op times use stays within its samples.
"""

from __future__ import annotations

import math
import sys
import tempfile
import unittest
from unittest import mock

import numpy as np

import harness
import query
import run
import tracing


class QueryBatches(unittest.TestCase):
    def test_same_seed_same_batches(self):
        for op in (0, 1, 57):
            a, b = query.batch(7, op), query.batch(7, op)
            self.assertTrue(all(np.array_equal(x, y) for x, y in zip(a, b)))

    def test_seed_changes_values_not_mix(self):
        xs7, los7 = query.batch(7, 3)
        xs8, los8 = query.batch(8, 3)
        self.assertFalse(np.array_equal(xs7, xs8))
        self.assertEqual((xs7.shape, los7.shape), (xs8.shape, los8.shape))
        for xs, los in ((xs7, los7), (xs8, los8)):
            self.assertTrue(5 <= xs.min() and xs.max() <= query.LIMIT)
            self.assertTrue(los.max() + query.WINDOW_WIDTH <= query.LIMIT)


class CorrectnessGate(unittest.TestCase):
    """Failed ops are counted, through the same path a workload takes."""

    def workload(self, cases: dict, golden=harness.golden) -> run.Run:
        r = run.Run()
        with mock.patch.object(run, "SETUP_REPS", 1), \
                mock.patch.object(harness, "load_cases", return_value=cases), \
                mock.patch.object(harness, "golden", golden):
            run.cli_workload(r, "check-1e6", 0.5, trace=False)
        return r

    def cases(self, **override) -> dict:
        cases = harness.load_cases()
        cases["workloads"]["check-1e6"].update(override)
        return cases

    def test_golden_run_has_no_failures(self):
        r = self.workload(self.cases())
        self.assertGreater(len(r.ops), 0)
        self.assertEqual(r.failed, 0)

    def test_corrupted_golden_counts_as_failed(self):
        real = harness.golden
        r = self.workload(self.cases(), golden=lambda name: real(name) + b"x")
        self.assertEqual(r.failed, len(r.ops))
        self.assertIn("golden", r.ops[0].failure)

    def test_unexpected_exit_code_counts_as_failed(self):
        r = self.workload(self.cases(exit=0))
        self.assertEqual(r.failed, len(r.ops))
        self.assertIn("exit code 2", r.ops[0].failure)

    def test_traceback_and_timeout(self):
        res = harness.run_child([sys.executable, "-c", "raise KeyError"], 60)
        self.assertEqual(harness.child_failure(res, 1, None), "traceback on stderr")
        res = harness.run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertEqual(harness.child_failure(res, 0, None), "timed out")


class PeakRss(unittest.TestCase):
    def test_each_child_reports_its_own_peak(self):
        big = harness.run_child(
            [sys.executable, "-c", "b = bytearray(256 << 20); b[::4096] = b'x' * (256 << 8)"], 60)
        small = harness.run_child([sys.executable, "-c", "pass"], 60)
        self.assertGreater(big.max_rss_mib, 256)
        self.assertLess(small.max_rss_mib, 256)


def leaf():
    return sum(range(2000))


def mid():
    return leaf() + leaf()


def top():
    return mid()


def failing():
    raise ValueError("toy")


class SpanTree(unittest.TestCase):
    def test_self_time_on_toy_chain(self):
        tracer = tracing.Tracer()
        names = ("leaf", "mid", "top", "failing")
        saved = {n: globals()[n] for n in names}
        try:
            for n in names:
                globals()[n] = tracer._wrap(f"toy.{n}", saved[n])
            top()
            tracer.op = 1
            with self.assertRaises(ValueError):
                failing()
        finally:
            globals().update(saved)
        with tempfile.TemporaryFile() as f:
            tracer.dump(f.fileno())
            f.seek(0)
            ops = tracing.load_ops(f.read(), "workload")
        fns = {n: v for o in ops for n, v in o["fns"].items()}
        calls = {n: v[tracing.CALLS] for n, v in fns.items()}
        self.assertEqual(calls, {"toy.top": 1, "toy.mid": 1, "toy.leaf": 2, "toy.failing": 1})
        dur = {n: v[tracing.SECONDS] for n, v in fns.items()}
        self_s = {n: v[tracing.SELF] for n, v in fns.items()}
        self.assertTrue(math.isclose(self_s["toy.top"], dur["toy.top"] - dur["toy.mid"],
                                     abs_tol=1e-12))
        self.assertTrue(math.isclose(self_s["toy.mid"], dur["toy.mid"] - dur["toy.leaf"],
                                     abs_tol=1e-12))
        self.assertEqual(self_s["toy.leaf"], dur["toy.leaf"])
        chain = ("toy.top", "toy.mid", "toy.leaf")
        self.assertTrue(math.isclose(sum(self_s[n] for n in chain), dur["toy.top"],
                                     abs_tol=1e-12))
        self.assertEqual(sorted(len(o["fns"]) for o in ops), [1, 3])


class Statistics(unittest.TestCase):
    def test_p90_stays_within_the_samples(self):
        self.assertTrue(math.isclose(harness.spread([float(i) for i in range(1, 101)])["p90"], 90.1))
        for values in ([1.0, 2.0, 3.0], [0.4, 0.6], [0.5]):
            s = harness.spread(values)
            self.assertTrue(s["median"] <= s["p90"] <= max(values), (values, s))


if __name__ == "__main__":
    if not harness.program_present():
        sys.exit(f"error: no twinprimes sources under {harness.SRC}")
    unittest.main()
