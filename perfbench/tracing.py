"""Spans around twinprimes' public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the six modules (sieve,
counting, legendre, estimators, report, cli) and every public PrimeSieve
method, and rebinds each wrapped name on every module that imported it (for
example ``report.build_sieve`` and ``legendre.small_primes``).  Calls through
private names (``_phi`` recursion, ``_prefix_count``, the phases inside
``build_sieve``) are not seen.  A span records its name, start, end, parent
span and op; spans are kept in memory and written out when the child ends.

Run as a script, this file is the traced CLI child::

    python perfbench/tracing.py --span-fd N [--alloc] -- sieve --limit 1000000

It imports twinprimes, installs the tracer, runs ``twinprimes.cli.main`` on
the arguments after ``--`` and writes the spans to file descriptor N.
"""

from __future__ import annotations

import array
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc

MODULES = ("sieve", "counting", "legendre", "estimators", "report", "cli")
# first_primes runs on every step of the private _phi recursion; a span per
# step would cost more than the recursion itself and hide what it measures.
UNTRACED = {"legendre.first_primes"}
MIB = 1024 * 1024
_RAISED = object()


def _rows(args, kwargs, result):
    return len(result)


def _threads(args, kwargs, result):
    return kwargs.get("threads", 1)


# What a span records beside its times, by span name.
EXTRA = {
    "sieve.build_sieve": _threads,
    "counting.checkpoint_rows": _rows,
    "estimators.bounds_rows": _rows,
    "estimators.estimate_rows": _rows,
}


SPAN_FIELDS = 7  # id, parent id (-1 for none), name code, start ns, end ns, op, extra (-1 for none)


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc  # measure tracemalloc peaks of build_sieve calls
        self.op = 0  # op id stamped on every span
        self.spans = array.array("q")  # SPAN_FIELDS int64 per span, flat
        self.names: list[str] = []  # span name of each name code
        self.alloc_peaks: list[tuple[int, int]] = []  # (threads, bytes)
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def span_count(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        extra = EXTRA.get(name)
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        if self.alloc and name == "sieve.build_sieve":
            fn = self._alloc_measured(fn)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = _RAISED
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.extend((sid, parent, code, start, end, self.op,
                              extra(args, kwargs, result)
                              if extra and result is not _RAISED else -1))

        return traced

    def _alloc_measured(self, fn):
        peaks = self.alloc_peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append((kwargs.get("threads", 1),
                              tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()

        return measured

    def install(self) -> None:
        import twinprimes
        from twinprimes import cli  # noqa: F401  (not imported by the package)

        mods = [twinprimes] + [getattr(twinprimes, m) for m in MODULES]
        wrapped = {}
        for short in MODULES:
            mod = getattr(twinprimes, short)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        cls = twinprimes.sieve.PrimeSieve
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and callable(obj):
                self._saved.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"sieve.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def dump(self, fd: int, import_s: float | None = None) -> None:
        """Write a one-line JSON header, then the spans as raw int64."""
        header = {"import_s": import_s, "names": self.names, "alloc_peaks": self.alloc_peaks}
        with os.fdopen(fd, "wb", closefd=False) as f:
            f.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(f)


# ---------------------------------------------------------------------------
# analysis, in the parent


def load_ops(dump: bytes, kind: str, sub: str | None = None) -> list[dict]:
    """Reduce one child's span dump to per-op, per-function totals.

    Each op maps function name -> (calls, seconds, self seconds, extra sum),
    and keeps (self seconds, threads) of each build_sieve call.  Self time is
    a span's duration minus the durations of its child spans.
    """
    import numpy as np

    head, _, body = dump.partition(b"\n")
    doc = json.loads(head)
    names = doc["names"]
    sid, parent, code, start, end, op, extra = (
        np.frombuffer(body, dtype=np.int64).reshape(-1, SPAN_FIELDS).T)
    dur = end - start
    has_parent = parent >= 0
    # child[i]: summed duration of the spans whose parent is span id i
    child = np.zeros(sid.max() + 1 if len(sid) else 0, dtype=np.int64)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child[sid]

    ops: dict[int, dict] = {}

    def get(o: int) -> dict:
        return ops.setdefault(o, {"kind": kind, "sub": sub, "fns": {}, "builds": []})

    key = (op + 1) * len(names) + code
    keys, inv, calls = np.unique(key, return_inverse=True, return_counts=True)
    sums = [np.bincount(inv, weights=w) for w in (dur, self_ns, np.maximum(extra, 0))]
    for k, n, d, s, e in zip(keys.tolist(), calls.tolist(), *(w.tolist() for w in sums)):
        o, c = divmod(k, len(names))
        get(o - 1)["fns"][names[c]] = (n, d / 1e9, s / 1e9, e)
    if "sieve.build_sieve" in names:
        sel = code == names.index("sieve.build_sieve")
        for o, s, t in zip(op[sel].tolist(), self_ns[sel].tolist(), extra[sel].tolist()):
            get(o)["builds"].append((s / 1e9, t))
    first = get(min(ops, default=0))
    if doc["import_s"] is not None:
        first["import_s"] = doc["import_s"]
    first["alloc_peaks"] = doc["alloc_peaks"]
    return list(ops.values())


def _median(values):
    return statistics.median(values) if values else 0.0


CALLS, SECONDS, SELF, EXTRA_SUM = range(4)


class LayerMetrics:
    """Per-layer metrics over traced ops.

    A function's metrics come from the workload's own ops when they call it,
    and otherwise from the sweep, which runs every subcommand at 10^6 and a
    short query child, so every layer is measured on every workload.
    """

    def __init__(self, ops: list[dict]):
        self.workload = [o for o in ops if o["kind"] == "workload"]
        self.sweep = [o for o in ops if o["kind"] == "sweep"]
        self.ops = ops

    def _scope(self, name: str) -> list[dict]:
        """The workload ops that call name; failing those, the ops of the
        sweep case that calls it most often."""
        scoped = [o for o in self.workload if name in o["fns"]]
        if scoped:
            return scoped
        calls: dict[str, int] = {}
        for o in self.sweep:
            if name in o["fns"]:
                calls[o["sub"]] = calls.get(o["sub"], 0) + o["fns"][name][CALLS]
        if not calls:
            return []
        sub = max(calls, key=calls.get)
        return [o for o in self.sweep if o["sub"] == sub and name in o["fns"]]

    def per_op(self, name: str, field: int) -> float:
        """Median, over the ops that call name, of one of its per-op totals."""
        return _median([o["fns"][name][field] for o in self._scope(name)])

    def _ratio(self, name: str, num: int, den: int) -> float:
        rows = [o["fns"][name] for o in self._scope(name)]
        total = sum(r[den] for r in rows)
        return sum(r[num] for r in rows) / total if total else 0.0

    def per_call(self, name: str, scale: float) -> float:
        return scale * self._ratio(name, SECONDS, CALLS)

    def per_row(self, name: str) -> float:
        return 1e6 * self._ratio(name, SECONDS, EXTRA_SUM)

    def build_self(self, threads: int) -> float:
        return _median([s for o in self._scope("sieve.build_sieve")
                        for s, t in o["builds"] if t == threads])

    def peak_alloc_mib(self) -> float:
        return _median([peak / MIB for o in self.ops if o["kind"] == "alloc"
                        for threads, peak in o.get("alloc_peaks", ())
                        if threads == 1])

    def import_s(self) -> float:
        return _median([o["import_s"] for o in self.ops if "import_s" in o])

    def cli_main(self, sub: str) -> float:
        return _median([o["fns"]["cli.main"][SECONDS] for o in self.sweep
                        if o["sub"] == sub and "cli.main" in o["fns"]])


def layer_metrics(ops: list[dict], subcommands: list[str], overhead_s: float) -> dict:
    m = LayerMetrics(ops)
    out = {
        "sieve.build_sieve.self_s": (m.build_self(1), "s"),
        "sieve.build_sieve.t2_self_s": (m.build_self(2), "s"),
        "sieve.build_sieve.peak_alloc_mib": (m.peak_alloc_mib(), "MiB"),
        "sieve.small_primes.s": (m.per_op("sieve.small_primes", SECONDS), "s"),
        "sieve.small_primes.calls": (m.per_op("sieve.small_primes", CALLS), "count"),
        "sieve.count_primes_upto.ns": (m.per_call("sieve.count_primes_upto", 1e9), "ns"),
        "sieve.count_primes_upto.calls": (m.per_op("sieve.count_primes_upto", CALLS), "count"),
        "sieve.count_twins_upto.ns": (m.per_call("sieve.count_twins_upto", 1e9), "ns"),
        "sieve.count_twins_upto.calls": (m.per_op("sieve.count_twins_upto", CALLS), "count"),
        "sieve.primes_between.us": (m.per_call("sieve.primes_between", 1e6), "us"),
        "counting.checkpoint_rows.us_per_row": (m.per_row("counting.checkpoint_rows"), "us"),
        "estimators.estimate_rows.us_per_row": (m.per_row("estimators.estimate_rows"), "us"),
        "estimators.bounds_rows.us_per_row": (m.per_row("estimators.bounds_rows"), "us"),
        "estimators.twin_prime_constant.s": (m.per_op("estimators.twin_prime_constant", SECONDS), "s"),
        "estimators.twin_prime_constant.calls": (m.per_op("estimators.twin_prime_constant", CALLS), "count"),
        "legendre.check_phi_pi_bound.self_s": (m.per_op("legendre.check_phi_pi_bound", SELF), "s"),
        "legendre.check_phi_pi_bound.calls": (m.per_op("legendre.check_phi_pi_bound", CALLS), "count"),
        "legendre.phi_recursive.s": (m.per_op("legendre.phi_recursive", SECONDS), "s"),
        "legendre.phi_mobius.s": (m.per_op("legendre.phi_mobius", SECONDS), "s"),
        "legendre.density_upper_bound.s": (m.per_op("legendre.density_upper_bound", SECONDS), "s"),
        "report.run_invariant_suite.self_s": (m.per_op("report.run_invariant_suite", SELF), "s"),
        "report.audit_against_reference.s": (m.per_op("report.audit_against_reference", SECONDS), "s"),
        "cli.import.s": (m.import_s(), "s"),
    }
    for sub in subcommands:
        out[f"cli.main.{sub}.s"] = (m.cli_main(sub), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    fd = int(opts[opts.index("--span-fd") + 1])
    t0 = time.perf_counter()
    import twinprimes.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(alloc="--alloc" in opts)
    tracer.install()
    try:
        code = twinprimes.cli.main(args)
    finally:
        tracer.dump(fd, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
