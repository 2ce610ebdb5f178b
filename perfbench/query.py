"""The query-1e7 library workload, run in a few child processes per run.

Set-up imports twinprimes and builds the store at 10^7 with --threads
threads.  Each op then answers one seeded batch through the public API:

- count_primes, count_twin_pairs and composed_count for each of BATCH x
  values drawn uniformly from [5, 10^7];
- checkpoint_rows, bounds_rows and estimate_rows over the sorted, distinct
  batch;
- primes_between over WINDOWS seeded windows [lo, lo + WINDOW_WIDTH].

An op is 30,000 x values (0.5-1 s) rather than 1,000 because on the 2-vCPU
machine the figures come from, the host slows the vCPUs up to 2x in phases
lasting from a fraction of a second to minutes.  Ops of 20-40 ms each fell
inside one phase, so op times were bimodal and a run's median flipped
between the modes (a 21% run-to-run spread over five seeds).  With 10,000
x, a run had ~150 ops, so its tail was the 93rd percentile, which fell in
the slow mode in some runs and not in others (a 44% spread over ten seeds).

Only the op itself is timed.  Outside the timed region the child checks every
row against its scalar answers and the closed-form formulas, then writes the
scalar answers and a digest of each window to stdout (a stream of .npy
arrays), which the parent checks against its own numpy sieve.  The seed
changes which x values are drawn, never the op mix.

    python perfbench/query.py --setup-only
    python perfbench/query.py --threads T --seed N --first-op K --seconds S [--trace-fd FD [--alloc]]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

LIMIT = 10**7
BATCH = 30_000
WINDOWS = 300
WINDOW_WIDTH = 10**4
H_C = 1.325067  # estimate_rows' default calibrated density ratio
# A traced child stops tracing new ops once it holds this many spans (an op
# makes ~600,000; a span takes 56 bytes), so that its memory stays bounded.
SPAN_CAP = 1_000_000
META = ("op", "threads", "traced", "elapsed_ns", "rows_bad")


def batch(seed: int, op: int) -> tuple[np.ndarray, np.ndarray]:
    """The x values and window starts of op number op under seed."""
    rng = np.random.default_rng([seed, op])
    xs = rng.integers(5, LIMIT, size=BATCH, endpoint=True)
    los = rng.integers(2, LIMIT - WINDOW_WIDTH, size=WINDOWS, endpoint=True)
    return xs, los


def window_digest(primes: np.ndarray) -> list[int]:
    """Count, first, last, sum and sum of squares of a window's primes."""
    p = primes.astype(np.int64)
    if not len(p):
        return [0, 0, 0, 0, 0]
    return [len(p), int(p[0]), int(p[-1]), int(p.sum()), int((p * p).sum())]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12)


def rows_bad(ux, answers, cps, brs, ers) -> int:
    """Rows that disagree with the op's scalar answers or the formulas."""
    bad = 0
    for x, cp, br, er in zip(ux, cps, brs, ers):
        pi, pi2, pipi = answers[x]
        lx = math.log(x)
        llx = math.log(lx)
        a = 4 * x / (9 * lx * (lx - llx - math.log(1.5)))
        b = 64 * x / (25 * lx * (lx - llx + math.log(1.6)))
        star = math.floor(H_C * pi * pi / x + 0.5)
        ok = (
            (cp.x, cp.pi_x, cp.pi2_x, cp.pi_pi_x) == (x, pi, pi2, pipi)
            and _close(cp.ratio, pi2 / pipi)
            and (br.x, br.pi2_x) == (x, pi2)
            and _close(br.a_bound, a) and _close(br.b_bound, b)
            and (er.x, er.pi2_x, er.pi2_star, er.abs_delta)
            == (x, pi2, star, abs(pi2 - star))
            and _close(er.eta_p, pi / x) and _close(er.eta_pp, pi2 / pi)
            and _close(er.h, x * pi2 / pi**2)
            and _close(er.rel_error, abs(pi2 - star) / pi2)
        )
        bad += not ok
    return bad + abs(len(ux) - len(cps)) + abs(len(ux) - len(brs)) + abs(len(ux) - len(ers))


def run_op(tp, sieve, xl, ux, los):
    """One timed op; returns its wall time in ns and every answer."""
    count_primes = tp.count_primes
    count_twin_pairs = tp.count_twin_pairs
    composed_count = tp.composed_count
    t0 = time.perf_counter_ns()
    pi = [count_primes(sieve, x) for x in xl]
    pi2 = [count_twin_pairs(sieve, x) for x in xl]
    pipi = [composed_count(sieve, x) for x in xl]
    cps = tp.checkpoint_rows(sieve, ux)
    brs = tp.bounds_rows(sieve, ux)
    ers = tp.estimate_rows(sieve, ux)
    wins = [sieve.primes_between(lo, lo + WINDOW_WIDTH) for lo in los]
    return time.perf_counter_ns() - t0, (pi, pi2, pipi, cps, brs, ers, wins)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-fd", type=int, default=None)
    ap.add_argument("--alloc", action="store_true")
    args = ap.parse_args(argv)

    import twinprimes as tp

    tracer = None
    if args.trace_fd is not None:
        from tracing import Tracer

        tracer = Tracer(alloc=args.alloc)
        tracer.install()
        tracer.op = -1  # set-up
    sieve = tp.build_sieve(LIMIT, threads=args.threads)
    if args.setup_only:
        return 0
    if tracer:
        tracer.uninstall()

    out = sys.stdout.buffer
    deadline = time.perf_counter() + args.seconds
    op = args.first_op
    while time.perf_counter() < deadline:
        # A traced child leaves every other op untraced, so that tracing
        # overhead is traced minus untraced time within one run.
        traced = (tracer is not None and (op - args.first_op) % 2 == 0
                  and tracer.span_count() < SPAN_CAP)
        xs, los = batch(args.seed, op)
        xl, ux, ll = xs.tolist(), sorted(set(xs.tolist())), los.tolist()
        if traced:
            tracer.op = op
            tracer.install()
        elapsed, (pi, pi2, pipi, cps, brs, ers, wins) = run_op(tp, sieve, xl, ux, ll)
        if tracer:
            tracer.uninstall()
        answers = {x: t for x, t in zip(xl, zip(pi, pi2, pipi))}
        meta = [op, args.threads, int(traced), elapsed, rows_bad(ux, answers, cps, brs, ers)]
        np.save(out, np.array(meta, dtype=np.int64))
        np.save(out, np.array(pi + pi2 + pipi, dtype=np.int32))
        np.save(out, np.array([window_digest(w) for w in wins], dtype=np.int64))
        op += 1
    out.flush()
    if tracer:
        tracer.dump(args.trace_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
