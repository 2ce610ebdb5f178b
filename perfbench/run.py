"""twinprimes benchmark: one command, three workloads, a traced per-layer run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each workload is a closed loop with one client: the next
op starts when the previous one has ended.  Ops alternate between one and
two threads, never more than the two cores the figures were taken on.

- sieve-1e8: each op is one fresh ``twinprimes sieve --limit 10^8`` child.
  The build dominates and its ~200 MB of arrays exceed the last-level cache.
- query-1e7: a few children each build the store at 10^7 in set-up, then
  answer seeded batches of 10,000 x values through the public API (see
  query.py).  It reads the prefix index that the sieve build writes.
- check-1e6: each op is one fresh ``twinprimes check`` child at 10^6, which
  must exit 2 with golden stdout.  The invariant suite and the audit
  dominate, with a cold phi cache as every CLI user has.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the same ops run with spans around twinprimes' public
functions (tracing.py), plus one tracemalloc op and a sweep of every
subcommand at 10^6, and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

import harness
import query
import tracing
from harness import child_failure, cli_argv, run_child, script_argv
from oracle import Oracle

WORKLOADS = ("sieve-1e8", "query-1e7", "check-1e6")
# Set-up children per run, spread evenly over the measured period so that
# their median sees the same host load as the ops do.
SETUP_REPS = 25
QUERY_CHILDREN = 6  # per run, alternating stores built with 1 and 2 threads
QUERY_OP_STRIDE = 10**6  # child k numbers its ops from k * QUERY_OP_STRIDE
CLI_TIMEOUT_S = 60.0
# (threads, traced) of successive CLI ops.  A traced run interleaves untraced
# threads=1 ops, so that tracing overhead is traced minus untraced time.
PLAIN_SCHEDULE = ((1, False), (2, False))
TRACE_SCHEDULE = ((1, True), (1, False), (2, True))
QUERY_TIMEOUT_S = 60.0  # beyond the child's own seconds
SWEEP_QUERY_SECONDS = 0.5


@dataclass
class Op:
    threads: int
    traced: bool
    wall_s: float
    rss_mib: float
    failure: str | None


class Run:
    """Everything one run measured: ops, set-up times and traced spans."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.setup_s: list[float] = []
        self.span_ops: list[dict] = []
        self.side_failures: list[str] = []  # set-up, tracemalloc and sweep children
        self.side_attempts = 0
        self.answers_per_op = 1

    def side(self, failure: str | None, what: str) -> bool:
        self.side_attempts += 1
        if failure:
            self.side_failures.append(f"{what}: {failure}")
        return failure is None

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.side_attempts

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops) + len(self.side_failures)


def measure(run: Run, seconds: float, setup_argv: list[str], step) -> None:
    """Call step() until seconds have passed, with SETUP_REPS set-up children
    (fresh processes that only set up, then exit) spread over the period."""
    tries = 0

    def setups_due(share: float) -> None:
        nonlocal tries
        while tries < SETUP_REPS * share:
            tries += 1
            res = run_child(setup_argv, CLI_TIMEOUT_S)
            if run.side(child_failure(res, 0, b""), "set-up"):
                run.setup_s.append(res.wall_s)

    start = time.perf_counter()
    elapsed = 0.0
    while True:  # at least one step
        setups_due(elapsed / seconds if seconds > 0 else 1.0)
        step()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    setups_due(1.0)


def traced_cli_argv(args: list[str], alloc: bool = False) -> list[str]:
    opts = ["--span-fd", "{fd}"] + (["--alloc"] if alloc else [])
    return script_argv("tracing.py", [*opts, "--", *args])


def gate(run: Run, res: harness.ChildResult, exit_code: int, stdout: bytes | None,
         kind: str | None = None, sub: str | None = None) -> str | None:
    """child_failure, then, for a traced child (kind given), keep its spans."""
    failure = child_failure(res, exit_code, stdout)
    if failure is None and kind:
        try:
            run.span_ops += tracing.load_ops(res.extra, kind, sub)
        except (ValueError, KeyError) as exc:
            failure = f"unreadable span dump ({exc})"
    return failure


def cli_workload(run: Run, name: str, seconds: float, trace: bool) -> None:
    case = harness.load_cases()["workloads"][name]
    want = harness.golden(case["golden"])
    schedule = TRACE_SCHEDULE if trace else PLAIN_SCHEDULE

    def step() -> None:
        threads, traced = schedule[len(run.ops) % len(schedule)]
        args = case["argv"] + ["--threads", str(threads)]
        res = run_child(traced_cli_argv(args) if traced else cli_argv(args), CLI_TIMEOUT_S)
        failure = gate(run, res, case["exit"], want, "workload" if traced else None)
        run.ops.append(Op(threads, traced, res.wall_s, res.max_rss_mib, failure))

    measure(run, seconds, [sys.executable, "-c", "import twinprimes"], step)
    if trace:
        res = run_child(traced_cli_argv(case["argv"] + ["--threads", "1"], alloc=True), CLI_TIMEOUT_S)
        run.side(gate(run, res, case["exit"], want, "alloc"), "tracemalloc op")


def query_child(run: Run, seed: int, first: int, threads: int, seconds: float,
                trace: bool, kind: str = "workload") -> tuple[harness.ChildResult, int]:
    """Run one query child whose ops are numbered from first.

    Its answers are checked later, by query_ops; a traced child's spans are
    kept now, and an unreadable dump counts as a failure.
    """
    args = ["--threads", str(threads), "--seed", str(seed), "--first-op", str(first),
            "--seconds", str(seconds)]
    res = run_child(script_argv("query.py", args + (["--trace-fd", "{fd}"] if trace else [])),
                    seconds + QUERY_TIMEOUT_S)
    if trace and child_failure(res, 0, None) is None:
        run.side(gate(run, res, 0, None, kind, "query" if kind == "sweep" else None),
                 "query spans")
    return res, first


def query_ops(children: list[tuple[harness.ChildResult, int]], seed: int) -> list[Op]:
    """Check every op the query children answered against the oracle.

    The oracle is built only after the children have ended: a child reports
    at least the parent's peak RSS as its own (Linux keeps the high-water
    mark across exec), so the parent stays small while a measured child runs.
    """
    oracle = Oracle(query.LIMIT)
    ops = []
    for res, first in children:
        answered = []
        stream = io.BytesIO(res.stdout)
        while stream.tell() < len(res.stdout):
            try:
                meta = dict(zip(query.META, np.load(stream).tolist()))
                answers, digests = np.load(stream), np.load(stream)
            except (ValueError, EOFError, OSError) as exc:
                answered.append(Op(1, False, 0.0, res.max_rss_mib, f"unreadable answers ({exc})"))
                break
            failure = check_query_op(oracle, seed, first + len(answered), meta, answers, digests)
            answered.append(Op(meta["threads"], bool(meta["traced"]), meta["elapsed_ns"] / 1e9,
                               res.max_rss_mib, failure))
        failure = child_failure(res, 0, None)
        if failure or not answered:
            answered.append(Op(1, False, res.wall_s, res.max_rss_mib, failure or "no op answered"))
        ops += answered
    return ops


def check_query_op(oracle, seed, index, meta, answers, digests) -> str | None:
    if meta["op"] != index:
        return f"op {meta['op']} arrived as op {index}"
    if meta["rows_bad"]:
        return f"{meta['rows_bad']} rows disagree with the scalar answers"
    xs, los = query.batch(seed, index)
    want = np.concatenate([oracle.count_primes(xs), oracle.count_twin_pairs(xs),
                           oracle.composed_count(xs)])
    if not np.array_equal(answers, want):
        return "scalar answers differ from the oracle"
    want = [query.window_digest(oracle.primes_between(lo, lo + query.WINDOW_WIDTH))
            for lo in los.tolist()]
    if digests.tolist() != want:
        return "primes_between differs from the oracle"
    return None


def query_workload(run: Run, seed: int, seconds: float, trace: bool) -> None:
    run.answers_per_op = query.BATCH
    children = []

    def step() -> None:
        k = len(children)
        children.append(query_child(run, seed, k * QUERY_OP_STRIDE, 1 + k % 2,
                                    seconds / QUERY_CHILDREN, trace))

    measure(run, seconds, script_argv("query.py", ["--setup-only"]), step)
    run.ops += query_ops(children, seed)
    if trace:
        res = run_child(script_argv("query.py", ["--seconds", "0", "--trace-fd", "{fd}", "--alloc"]),
                        QUERY_TIMEOUT_S)
        run.side(gate(run, res, 0, b"", "alloc"), "tracemalloc op")


def sweep(run: Run, seed: int) -> list[str]:
    """Every subcommand at 10^6 and a short query child, each traced once."""
    cases = harness.load_cases()["sweep"]
    for sub, case in cases.items():
        res = run_child(traced_cli_argv(case["argv"]), CLI_TIMEOUT_S)
        run.side(gate(run, res, case["exit"], harness.golden(case["golden"]), "sweep", sub),
                 f"sweep {sub}")
    for op in query_ops([query_child(run, seed, 0, 1, SWEEP_QUERY_SECONDS, True, "sweep")], seed):
        run.side(op.failure, "sweep query")
    return list(cases)


# ---------------------------------------------------------------------------
# metrics


def walls(run: Run, threads: int, traced: bool = False) -> list[float]:
    return [op.wall_s for op in run.ops if op.threads == threads and op.traced == traced]


def end_to_end(run: Run) -> tuple[dict, dict, dict]:
    """The gated end-to-end metrics, the ones only printed, and the spread
    beside each of them.

    The gated op times are 90th percentiles, not medians.  The host the
    figures come from slows its vCPUs by up to 2x in phases that last up to
    minutes, and the share of a run spent in fast phases decides where its
    median falls; the slow phases, which hold the upper tenth of the ops,
    vary less from run to run (see README.md, Steadiness).
    """
    t1, t2 = walls(run, 1), walls(run, 2)
    all_walls = [op.wall_s for op in run.ops]
    tl = harness.tail(all_walls)
    detail = {
        "setup_s": harness.spread(run.setup_s),
        "t1_wall_s": harness.spread(t1),
        "t2_wall_s": harness.spread(t2),
        "wall_s_tail": tl,
        "op_wall_s": harness.spread(all_walls),
    }
    metrics = {
        "setup_s": (detail["setup_s"]["median"], "s"),
        "wall_s_p90": (detail["t1_wall_s"]["p90"], "s"),
        "t2_wall_s_p90": (detail["t2_wall_s"]["p90"], "s"),
        "wall_s_tail": (tl["value"], "s"),
        "peak_rss_mib": (max(op.rss_mib for op in run.ops), "MiB"),  # ops >= 1
    }
    printed = {
        "wall_s_p50": (detail["t1_wall_s"]["median"], "s"),
        "t2_wall_s_p50": (detail["t2_wall_s"]["median"], "s"),
        "queries_per_s": (run.answers_per_op * len(all_walls) / (sum(all_walls) or 1.0), "1/s"),
    }
    return metrics, printed, detail


# The samples each end-to-end metric is a statistic of, in end_to_end's detail.
METRIC_SPREAD = {
    "wall_s_p90": "t1_wall_s", "wall_s_p50": "t1_wall_s",
    "t2_wall_s_p90": "t2_wall_s", "t2_wall_s_p50": "t2_wall_s",
    "queries_per_s": "op_wall_s",
}


def metric_line(name: str, value: float, unit: str, detail: dict) -> str:
    s = detail.get(METRIC_SPREAD.get(name, name))
    extra = ""
    if s and "q1" in s:
        extra = f"  q1={s['q1']:.6g} median={s['median']:.6g} q3={s['q3']:.6g} p90={s['p90']:.6g} n={s['n']}"
    elif s:
        extra = f"  p{s['percentile']:.1f} ({s['beyond']} beyond) n={s['n']}"
    return f"{name:40s} {value:14.6g} {unit}{extra}"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not harness.program_present():
        print(f"error: no twinprimes sources under {harness.SRC}", file=sys.stderr)
        return 2

    run = Run()
    trace = bool(args.trace)
    if args.workload == "query-1e7":
        query_workload(run, args.seed, args.seconds, trace)
    else:
        cli_workload(run, args.workload, args.seconds, trace)

    env = harness.environment()
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env}
    printed: dict = {}
    if trace:
        subs = sweep(run, args.seed)
        overhead = (harness.spread(walls(run, 1, True))["median"]
                    - harness.spread(walls(run, 1, False))["median"])
        metrics = tracing.layer_metrics(run.span_ops, subs, overhead)
    else:
        metrics, printed, detail["spread"] = end_to_end(run)
    attempted, failed = run.attempted, run.failed
    detail["error_rate"] = failed / attempted
    failures = [op.failure for op in run.ops if op.failure] + run.side_failures
    detail["failures"] = failures[:20]

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(metric_line(name, value, unit, detail.get("spread", {})))
    if printed:
        print("# printed, not gated:")
    for name, (value, unit) in printed.items():
        print(metric_line(name, value, unit, detail["spread"]))
    print(f"{'error_rate':40s} {detail['error_rate']:14.6g} ratio  ({failed}/{attempted})")
    for failure in failures[:20]:
        print(f"# failed: {failure}")
    print("detail " + json.dumps(detail))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
