"""Table regeneration, reference auditing, rendering, and invariant suite.

The published reference tables ship as a versioned JSON fixture
(``data/reference_tables.json``).  Every cell of every table is recomputed
from the sieve and classified:

``match``            equal after the column's documented rounding rule
                     (integers exact; ratio 3 decimals; h 6; rel_error 4;
                     A/B rendered to nearest integer, ties away from zero).
``formatting-only``  not equal under our rounding rule, but within one unit
                     in the last printed place, i.e. explainable as a
                     different rounding direction at the same precision.
``mismatch``         differs beyond printing precision; a genuine erratum
                     in the reference or a different counting convention.

Cross-table disagreements between the reference tables themselves (the
published pi2 columns contradict each other at several x) are detected and
always reported, independent of cell status.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import counting, estimators, legendre
from .counting import CountCheckpoint
from .estimators import (
    BoundsRow,
    EstimateRow,
    EstimatorConfig,
    log_grid,
    round_half_away,
)
from .sieve import PrimeSieve, build_sieve

STATUS_MATCH = "match"
STATUS_FORMATTING = "formatting-only"
STATUS_MISMATCH = "mismatch"

# Exit codes (shared with the CLI): all good / invariant violated /
# reference-value mismatches only.
EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 2
EXIT_REFERENCE_MISMATCH = 3


# ---------------------------------------------------------------------------
# reference fixture


def load_reference_tables() -> dict:
    """The versioned reference fixture as a plain dict."""
    path = resources.files("twinprimes").joinpath("data/reference_tables.json")
    return json.loads(path.read_text(encoding="utf-8"))


@cache
def _ref() -> dict:
    return load_reference_tables()


def reference_checkpoints(table_id: int) -> tuple[int, ...]:
    """The x column of a reference table, in printed order."""
    return tuple(row["x"] for row in _ref()[f"table{table_id}"]["rows"])


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible run depends on.

    Thread count and segment size deliberately do not influence any output
    byte; they are tuning knobs only.
    """

    limit: int = 10**6
    checkpoints: tuple[int, ...] | None = None  # None: table's reference xs
    h_c: float | None = None
    euler_pmax: int = 10**6
    strict_paper: bool = False
    threads: int = 1
    segment_size: int | None = None

    def __post_init__(self):
        if self.limit < 5:
            raise ValueError(f"limit must be >= 5, got {self.limit}")
        if self.checkpoints is not None:
            bad = [x for x in self.checkpoints if not 5 <= x <= self.limit]
            if bad:
                raise ValueError(
                    f"checkpoints outside [5, limit={self.limit}]: {bad}"
                )

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(
            h_c=self.h_c if self.h_c is not None else estimators.DEFAULT_H_C,
            euler_pmax=self.euler_pmax,
        )

    def build(self) -> PrimeSieve:
        kwargs = {"threads": self.threads}
        if self.segment_size is not None:
            kwargs["segment_size"] = self.segment_size
        return build_sieve(self.limit, **kwargs)

    def xs_for(self, table_id: int) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return tuple(
            x for x in reference_checkpoints(table_id) if x <= self.limit
        )


# ---------------------------------------------------------------------------
# table building


def table1_rows(sieve: PrimeSieve, cfg: RunConfig) -> list[CountCheckpoint]:
    xs = cfg.xs_for(1)
    return counting.checkpoint_rows(sieve, xs) if xs else []


def table2_rows(sieve: PrimeSieve, cfg: RunConfig) -> list[BoundsRow]:
    return estimators.bounds_rows(sieve, cfg.xs_for(2))


def table3_rows(sieve: PrimeSieve, cfg: RunConfig) -> list[EstimateRow]:
    return estimators.estimate_rows(sieve, cfg.xs_for(3), cfg.estimator_config())


def table_rows(table_id: int, sieve: PrimeSieve, cfg: RunConfig) -> list:
    """Rows of table 1, 2 or 3 at cfg's checkpoints."""
    builder = {1: table1_rows, 2: table2_rows, 3: table3_rows}[table_id]
    return builder(sieve, cfg)


# ---------------------------------------------------------------------------
# rendering

# (field, csv formatter, csv parser) per table; CSV prints at the reference
# tables' precision, JSON keeps full precision.


def _f3(v: float) -> str:
    return f"{v:.3f}"


def _f4(v: float) -> str:
    return f"{v:.4f}"


def _f6(v: float) -> str:
    return f"{v:.6f}"


def _render_int(v: float) -> str:
    return str(round_half_away(v))


_TABLE_FORMATS: dict[int, list[tuple[str, Callable, Callable]]] = {
    1: [
        ("x", str, int),
        ("pi_x", str, int),
        ("pi2_x", str, int),
        ("pi_pi_x", str, int),
        ("ratio", _f3, float),
    ],
    2: [
        ("x", str, int),
        ("a_bound", _render_int, float),
        ("pi2_x", str, int),
        ("b_bound", _render_int, float),
    ],
    3: [
        ("x", str, int),
        ("h", _f6, float),
        ("pi2_x", str, int),
        ("pi2_star", str, int),
        ("abs_delta", str, int),
        ("rel_error", _f4, float),
    ],
}


def _cells(table_id: int, row) -> list[str]:
    return [fmt(getattr(row, name)) for name, fmt, _ in _TABLE_FORMATS[table_id]]


def render_csv(table_id: int, rows: Sequence) -> str:
    """Deterministic CSV: header, comma-separated, '.' decimals, LF endings."""
    header = ",".join(name for name, _, _ in _TABLE_FORMATS[table_id])
    lines = [header] + [",".join(_cells(table_id, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render_json(table_id: int, rows: Sequence) -> str:
    """Full-precision JSON: one object with a rows array."""
    doc = {"table_id": table_id, "rows": [asdict(row) for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def render_text(table_id: int, rows: Sequence) -> str:
    """Aligned plain-text table at the same precision as the CSV."""
    names = [name for name, _, _ in _TABLE_FORMATS[table_id]]
    body = [_cells(table_id, row) for row in rows]
    widths = [
        max([len(name)] + [len(line[i]) for line in body])
        for i, name in enumerate(names)
    ]
    out = ["  ".join(n.rjust(w) for n, w in zip(names, widths))]
    for line in body:
        out.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(out) + "\n"


def render_table(table_id: int, rows: Sequence, fmt: str) -> str:
    renderer = {"csv": render_csv, "json": render_json, "text": render_text}[fmt]
    return renderer(table_id, rows)


def parse_table_csv(table_id: int, text: str) -> list[tuple]:
    """Parse an emitted CSV back into typed row tuples (rendered precision)."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    expected = [name for name, _, _ in _TABLE_FORMATS[table_id]]
    if header != expected:
        raise ValueError(f"unexpected header {header!r}, want {expected!r}")
    parsers = [parser for _, _, parser in _TABLE_FORMATS[table_id]]
    return [
        tuple(parse(cell) for parse, cell in zip(parsers, line.split(",")))
        for line in lines[1:]
    ]


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class ReferenceCell:
    """One reference cell compared against its recomputed value."""

    table_id: int
    x: int
    column: str
    reference_value: float
    computed_value: float
    status: str
    note: str = ""


@dataclass(frozen=True)
class CrossTableConflict:
    """Two reference tables printing different values for the same quantity."""

    x: int
    column: str
    table_a: int
    value_a: float
    table_b: int
    value_b: float


@dataclass
class AuditReport:
    cells: list[ReferenceCell] = field(default_factory=list)
    conflicts: list[CrossTableConflict] = field(default_factory=list)

    def non_matching(self) -> list[ReferenceCell]:
        return [c for c in self.cells if c.status != STATUS_MATCH]

    def mismatches(self) -> list[ReferenceCell]:
        return [c for c in self.cells if c.status == STATUS_MISMATCH]

    def status_counts(self) -> dict[str, int]:
        counts = {STATUS_MATCH: 0, STATUS_FORMATTING: 0, STATUS_MISMATCH: 0}
        for cell in self.cells:
            counts[cell.status] += 1
        return counts

    def cell(self, table_id: int, x: int, column: str) -> ReferenceCell:
        for c in self.cells:
            if (c.table_id, c.x, c.column) == (table_id, x, column):
                return c
        raise KeyError((table_id, x, column))


def _round_places(v: float, places: int) -> float:
    scale = 10.0**places
    return round_half_away(v * scale) / scale


def _classify(computed: float, reference: float, rounding) -> str:
    if rounding is None:  # exact integer column
        return STATUS_MATCH if computed == reference else STATUS_MISMATCH
    if rounding == "int":
        if round_half_away(computed) == reference:
            return STATUS_MATCH
        if abs(computed - reference) < 1.0:
            return STATUS_FORMATTING
        return STATUS_MISMATCH
    places = int(rounding)
    if abs(_round_places(computed, places) - reference) < 10.0 ** (-places) / 100:
        return STATUS_MATCH
    if abs(computed - reference) < 10.0 ** (-places):
        return STATUS_FORMATTING
    return STATUS_MISMATCH


def audit_against_reference(sieve: PrimeSieve, cfg: RunConfig) -> AuditReport:
    """Recompute every reference cell (x <= limit) and classify agreement."""
    ref = _ref()
    report = AuditReport()
    ref_cfg = replace(cfg, limit=sieve.limit, checkpoints=None)
    computed_rows = {
        t: {r.x: r for r in table_rows(t, sieve, ref_cfg)} for t in (1, 2, 3)
    }
    for table_id in (1, 2, 3):
        table = ref[f"table{table_id}"]
        rounding = table.get("rounding", {})
        for row in table["rows"]:
            x = row["x"]
            if x > sieve.limit:
                continue
            computed = computed_rows[table_id][x]
            for column in table["columns"]:
                reference_value = row[column]
                computed_value = getattr(computed, column)
                status = _classify(
                    computed_value, reference_value, rounding.get(column)
                )
                note = ""
                if column in row.get("printed", {}):
                    note = (
                        f"printed as {row['printed'][column]!r}: "
                        + row.get("note", "")
                    )
                report.cells.append(
                    ReferenceCell(
                        table_id, x, column,
                        reference_value, computed_value, status, note,
                    )
                )

    # cross-table consistency of the reference tables themselves
    shared_columns = ["pi2_x"]
    for column in shared_columns:
        values: dict[int, list[tuple[int, float]]] = {}
        for table_id in (1, 2, 3):
            for row in ref[f"table{table_id}"]["rows"]:
                if column in row:
                    values.setdefault(row["x"], []).append(
                        (table_id, row[column])
                    )
        for x in sorted(values):
            entries = values[x]
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    (ta, va), (tb, vb) = entries[i], entries[j]
                    if va != vb:
                        report.conflicts.append(
                            CrossTableConflict(x, column, ta, va, tb, vb)
                        )
    return report


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.6f}".rstrip("0").rstrip(".")


def render_audit_text(report: AuditReport) -> str:
    counts = report.status_counts()
    lines = [
        f"audited {len(report.cells)} reference cells: "
        f"{counts[STATUS_MATCH]} match, "
        f"{counts[STATUS_FORMATTING]} formatting-only, "
        f"{counts[STATUS_MISMATCH]} mismatch",
        "",
        "non-matching cells (reference vs computed):",
    ]
    for c in report.non_matching():
        extra = f"  [{c.note}]" if c.note else ""
        lines.append(
            f"  [{c.status}] table{c.table_id} x={c.x} {c.column}: "
            f"{_fmt_value(c.reference_value)} vs {_fmt_value(c.computed_value)}"
            f"{extra}"
        )
    lines.append("")
    lines.append("cross-table contradictions in the reference tables:")
    for k in report.conflicts:
        lines.append(
            f"  x={k.x} {k.column}: table{k.table_a} prints "
            f"{_fmt_value(k.value_a)}, table{k.table_b} prints "
            f"{_fmt_value(k.value_b)}"
        )
    return "\n".join(lines) + "\n"


def render_audit_json(report: AuditReport) -> str:
    doc = {
        "status_counts": report.status_counts(),
        "cells": [asdict(c) for c in report.cells],
        "conflicts": [asdict(k) for k in report.conflicts],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# invariant suite


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class InvariantReport:
    checks: list[InvariantCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> InvariantCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _grid_for(sieve: PrimeSieve) -> np.ndarray:
    return log_grid(5, min(sieve.limit, 10**6), 200)


def run_invariant_suite(sieve: PrimeSieve, cfg: RunConfig) -> InvariantReport:
    """Execute every module's invariant grid, clamped to the sieve limit.

    Returns a named pass/fail per check; the CLI turns any failure into a
    non-zero exit.
    """
    report = InvariantReport()
    add = report.checks.append
    grid = _grid_for(sieve).tolist()
    est_cfg = cfg.estimator_config()

    bad = []
    for x in grid:
        lo, up = estimators.trost_bounds(x)
        if not lo < sieve.count_primes_upto(x) < up:
            bad.append(x)
    add(InvariantCheck(
        "trost_bounds_grid", not bad,
        f"{len(grid)} grid points, violations at {bad[:8]}" if bad
        else f"{len(grid)} grid points, 0 violations"))

    bad = [x for x in grid if not estimators.sandwich_check(sieve, x).holds]
    add(InvariantCheck(
        "sandwich_grid", not bad,
        f"{len(grid)} grid points, violations at {bad[:8]}" if bad
        else f"{len(grid)} grid points, 0 violations"))

    bad = []
    for x in grid:
        pi2 = sieve.count_twins_upto(x)
        if pi2 > 0:
            h = estimators.density_ratio(x, sieve.count_primes_upto(x), pi2)
            if not 0 < h < estimators.H_RATIO_CAP:
                bad.append(x)
    add(InvariantCheck(
        "h_ratio_cap_grid", not bad,
        f"violations at {bad[:8]}" if bad else
        f"0 < h < {estimators.H_RATIO_CAP} at all grid points with twins"))

    ok = True
    detail = "pi and pi2 non-decreasing over the full range"
    probe = grid[:: max(1, len(grid) // 16)]
    for a, b in zip(probe, probe[1:]):
        if sieve.count_primes_upto(b) < sieve.count_primes_upto(a) or (
            sieve.count_twins_upto(b) < sieve.count_twins_upto(a)
        ):
            ok, detail = False, f"counts decreased between {a} and {b}"
    if any(
        sieve.count_twins_upto(x) > sieve.count_primes_upto(x) for x in probe
    ):
        ok, detail = False, "pi2 exceeded pi"
    add(InvariantCheck("count_monotonicity", ok, detail))

    decades = [10**k for k in range(3, 7) if 10**k <= sieve.limit]
    if len(decades) >= 2:
        dens_x = [sieve.count_twins_upto(x) / x for x in decades]
        dens_pi = [
            sieve.count_twins_upto(x) / sieve.count_primes_upto(x)
            for x in decades
        ]
        ok = all(b < a for a, b in zip(dens_x, dens_x[1:])) and all(
            b < a for a, b in zip(dens_pi, dens_pi[1:])
        )
        add(InvariantCheck(
            "vanishing_density_trend", ok,
            f"pi2/x and pi2/pi strictly decreasing over {decades}"))

    y_max = min(2000, sieve.limit)
    mism = []
    for r in range(0, 8):
        flags = np.ones(y_max + 1, dtype=bool)
        for p in legendre.first_primes(r):
            flags[p::p] = False
        flags[0] = False
        brute = np.cumsum(flags)
        for y in range(0, y_max + 1, 7):
            if not (
                legendre.phi_recursive(y, r)
                == legendre.phi_mobius(y, r)
                == int(brute[y])
            ):
                mism.append((y, r))
    add(InvariantCheck(
        "phi_two_routes_vs_bruteforce", not mism,
        f"disagreements at {mism[:5]}" if mism
        else f"recurrence == Moebius sum == scan for y <= {y_max}, r <= 7"))

    y_top = min(10**4, sieve.limit)
    bad = []
    for y in range(1, y_top + 1, 3):
        for r in range(0, 11):
            if not legendre.check_phi_pi_bound(sieve, y, r).bound_ok:
                bad.append((y, r))
    add(InvariantCheck(
        "phi_prime_count_bound_grid", not bad,
        f"violations at {bad[:5]}" if bad
        else f"pi(y) <= phi(y,r) + r for sampled y <= {y_top}, r <= 10"))

    bad = []
    for c in (0.8, 1.0, 1.2, 1.4):
        for y in decades or [min(1000, sieve.limit)]:
            chk = legendre.density_upper_bound(
                sieve, legendre.DensityBoundParams(c=c, y=y)
            )
            if not chk.holds:
                bad.append((c, y))
    add(InvariantCheck(
        "density_upper_bound_grid", not bad,
        f"violations at {bad}" if bad else "bound holds on the full (c, y) grid"))

    xs = [x for x in reference_checkpoints(3) if 1500 <= x <= sieve.limit]
    if xs:
        rows = estimators.estimate_rows(sieve, xs, est_cfg)
        bad = [(r.x, round(r.rel_error, 4)) for r in rows if r.rel_error > 0.04]
        add(InvariantCheck(
            "estimator_accuracy", not bad,
            f"rel_error > 0.04 at {bad}" if bad
            else f"rel_error <= 0.04 at all {len(xs)} checkpoints"))

    ladder = [100, 10**3, 10**4, 10**5, min(10**6, est_cfg.euler_pmax)]
    consts = [estimators.twin_prime_constant(p) for p in ladder]
    ok = all(b < a for a, b in zip(consts, consts[1:]))
    add(InvariantCheck(
        "twin_constant_monotone", ok,
        f"truncations {ladder} -> {[f'{c:.9f}' for c in consts]}"))

    if decades:
        ratios = [
            estimators.hardy_littlewood_simple(x, est_cfg)
            / sieve.count_twins_upto(x)
            for x in decades
        ]
        growing = all(b > a for a, b in zip(ratios, ratios[1:]))
        add(InvariantCheck(
            "hl_simple_overshoot_finding", True,
            "audit finding (never fails): estimate/actual at "
            f"{decades} = {[f'{r:.2f}' for r in ratios]}"
            + (", growing" if growing else ", NOT growing")))

    return report


def render_invariants_text(report: InvariantReport) -> str:
    lines = []
    for c in report.checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    lines.append(
        f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed"
    )
    return "\n".join(lines) + "\n"
