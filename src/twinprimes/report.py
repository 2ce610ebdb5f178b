"""Table regeneration, reference auditing, rendering, and invariant suite.

The published reference tables ship as a versioned JSON fixture
(``data/reference_tables.json``).  Every cell of every table is recomputed
from the sieve and classified:

``match``            equal after the column's rounding in the fixture
                     (integers exact; ratio 3 decimals; h 6; rel_error 4;
                     A/B to the nearest integer).
``formatting-only``  not equal under that rounding, but within one unit
                     in the last printed place, i.e. explainable as a
                     different rounding direction at the same precision.
``mismatch``         differs beyond printing precision; a genuine erratum
                     in the reference or a different counting convention.

CSV and text print each cell at that same rounding, ties away from zero,
so the audit and the printed tables follow one rule, the fixture's.  JSON
keeps full precision: it prints each record, a NamedTuple, by _asdict().

Cross-table disagreements between the reference tables themselves (the
published pi2 columns contradict each other at several x) are detected and
always reported, independent of cell status.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cache
from importlib import resources
from itertools import accumulate, combinations, compress
from operator import gt
from typing import NamedTuple, Sequence

from . import counting, estimators, legendre
from .config import RunConfig
from .estimators import log_grid, round_half_away
from .sieve import Counts, small_primes

STATUS_MATCH = "match"
STATUS_FORMATTING = "formatting-only"
STATUS_MISMATCH = "mismatch"


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


def audit_points(limit: int) -> list[int]:
    """Every x that the audit reads: the reference rows' up to limit."""
    return [x for t in (1, 2, 3) for x in reference_checkpoints(t) if x <= limit]


# ---------------------------------------------------------------------------
# table building


def table_points(table_id: int, cfg: RunConfig) -> tuple[int, ...]:
    """Every x that a table reads: cfg's checkpoints, else its reference
    rows' up to cfg.limit."""
    if cfg.checkpoints is not None:
        return cfg.checkpoints
    return tuple(x for x in reference_checkpoints(table_id) if x <= cfg.limit)


def table_rows(table_id: int, counts: Counts, xs: Sequence[int],
               h_c: float) -> list:
    """Rows of table 1, 2 or 3 at xs; table 3 estimates with h_c."""
    if not xs:
        return []
    if table_id == 1:
        return counting.checkpoint_rows(counts, xs)
    if table_id == 2:
        return estimators.bounds_rows(counts, xs)
    return estimators.estimate_rows(counts, xs, h_c)


# ---------------------------------------------------------------------------
# rendering


def _columns(table_id: int) -> list[tuple[str, int | str | None]]:
    """(name, rounding) of each printed column: x, then the fixture's."""
    table = _ref()[f"table{table_id}"]
    rounding = table.get("rounding", {})
    return [("x", None)] + [(c, rounding.get(c)) for c in table["columns"]]


def _round_places(v: float, places: int) -> float:
    scale = 10.0**places
    return round_half_away(v * scale) / scale


def _cell(value, rounding) -> str:
    """One cell: integers exact, "int" to the nearest integer and n to n
    decimals, ties away from zero."""
    if rounding is None:
        return str(value)
    if rounding == "int":
        return str(round_half_away(value))
    return f"{_round_places(value, rounding):.{rounding}f}"


def format_cell(table_id: int, column: str, value) -> str:
    """value as table_id's CSV and text print the column."""
    return _cell(value, dict(_columns(table_id))[column])


def _cells(table_id: int, rows: Sequence) -> list[list[str]]:
    """The header, then one line of cells per row."""
    columns = _columns(table_id)
    return [[name for name, _ in columns]] + [
        [_cell(getattr(row, name), r) for name, r in columns] for row in rows
    ]


def render_csv(table_id: int, rows: Sequence) -> str:
    """Deterministic CSV: header, comma-separated, '.' decimals, LF endings."""
    return "".join(",".join(line) + "\n" for line in _cells(table_id, rows))


def render_json(table_id: int, rows: Sequence) -> str:
    """Full-precision JSON: one object with a rows array."""
    doc = {"table_id": table_id, "rows": [row._asdict() for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def render_text(table_id: int, rows: Sequence) -> str:
    """Aligned plain-text table at the same precision as the CSV."""
    lines = _cells(table_id, rows)
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "".join(
        "  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n"
        for line in lines
    )


def render_table(table_id: int, rows: Sequence, fmt: str) -> str:
    renderer = {"csv": render_csv, "json": render_json, "text": render_text}[fmt]
    return renderer(table_id, rows)


# ---------------------------------------------------------------------------
# audit


class ReferenceCell(NamedTuple):
    """One reference cell compared against its recomputed value."""

    table_id: int
    x: int
    column: str
    reference_value: float
    computed_value: float
    status: str
    note: str = ""


class CrossTableConflict(NamedTuple):
    """Two reference tables printing different values for the same quantity."""

    x: int
    column: str
    table_a: int
    value_a: float
    table_b: int
    value_b: float


class AuditReport(NamedTuple):
    """Every reference cell, and the reference tables' contradictions."""

    cells: list[ReferenceCell]
    conflicts: list[CrossTableConflict]

    def non_matching(self) -> list[ReferenceCell]:
        return [c for c in self.cells if c.status != STATUS_MATCH]

    def status_counts(self) -> dict[str, int]:
        counts = {STATUS_MATCH: 0, STATUS_FORMATTING: 0, STATUS_MISMATCH: 0}
        for cell in self.cells:
            counts[cell.status] += 1
        return counts


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


def audit_against_reference(sieve: Counts, cfg: RunConfig) -> AuditReport:
    """Recompute every reference cell (x <= limit) and classify agreement."""
    ref = _ref()
    report = AuditReport([], [])
    for table_id in (1, 2, 3):
        rows = [r for r in ref[f"table{table_id}"]["rows"]
                if r["x"] <= sieve.limit]
        for row, computed in zip(rows, table_rows(
                table_id, sieve, [r["x"] for r in rows], cfg.h_c)):
            x = row["x"]
            for column, rounding in _columns(table_id)[1:]:
                reference_value = row[column]
                computed_value = getattr(computed, column)
                status = _classify(computed_value, reference_value, rounding)
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
    values: dict[int, list[tuple[int, float]]] = {}
    for table_id in (1, 2, 3):
        for row in ref[f"table{table_id}"]["rows"]:
            if "pi2_x" in row:
                values.setdefault(row["x"], []).append((table_id, row["pi2_x"]))
    for x in sorted(values):
        for (ta, va), (tb, vb) in combinations(values[x], 2):
            if va != vb:
                report.conflicts.append(
                    CrossTableConflict(x, "pi2_x", ta, va, tb, vb))
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
        "cells": [c._asdict() for c in report.cells],
        "conflicts": [k._asdict() for k in report.conflicts],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# invariant suite


class InvariantCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def suite_points(limit: int) -> tuple[list[int], list[int], list[int]]:
    """Every x that the invariant suite reads: its log grid, its decades,
    and the table-3 reference xs at which it checks the estimator."""
    grid = log_grid(5, min(limit, 10**6), 200).tolist()
    decades = [10**k for k in range(3, 7) if 10**k <= limit]
    xs = [x for x in reference_checkpoints(3) if 1500 <= x <= limit]
    return grid, decades, xs


def _phi_table(y: int, r: int) -> list[list[int]]:
    """Running sums of k-rough indicators: row k of them, for k <= r, is
    phi(v, k) at every v <= y."""
    rough = bytearray(b"\x00") + bytearray(b"\x01") * y
    rows = [[*accumulate(rough)]]
    for _ in range(r):
        # The next prime, the least v > 1 still rough, found here rather than
        # read from first_primes, which both phi routes read.
        if (p := rough.find(1, 2)) > 0:  # else none <= y: the rows repeat
            rough[p::p] = bytearray(y // p)
        rows.append([*accumulate(rough)])
    return rows


def run_invariant_suite(sieve: Counts, cfg: RunConfig) -> list[InvariantCheck]:
    """Execute every module's invariant grid, clamped to the sieve limit.

    Returns a named pass/fail per check, in order; the CLI turns any
    failure into a non-zero exit.
    """
    grid, decades, xs = suite_points(sieve.limit)
    # pi, pi2 and pi(pi), counted once at every x that the checks below read.
    at = {row.x: row for row in counting.checkpoint_rows(
        sieve, sorted({*grid, *decades}))}

    def grid_check(name: str, bad: list[int]) -> InvariantCheck:
        return InvariantCheck(name, not bad, f"{len(grid)} grid points, " + (
            f"violations at {bad[:8]}" if bad else "0 violations"))

    def checks():
        yield grid_check("trost_bounds_grid", [
            x for x, (lo, up) in zip(grid, map(estimators.trost_bounds, grid))
            if not lo < at[x].pi_x < up])
        yield grid_check("sandwich_grid", [
            x for x, (a, b) in zip(grid, map(estimators.sandwich_bounds, grid))
            if not a < at[x].pi_pi_x < b])

        bad = [x for x in grid if not 0 < estimators.density_ratio(
            x, at[x].pi_x, at[x].pi2_x) < estimators.H_RATIO_CAP]
        yield InvariantCheck(
            "h_ratio_cap_grid", not bad,
            f"violations at {bad[:8]}" if bad else
            f"0 < h < {estimators.H_RATIO_CAP} at all grid points with twins")

        ok = True
        detail = "pi and pi2 non-decreasing over the full range"
        rows = [at[x] for x in grid]
        for a, b in zip(rows, rows[1:]):
            if b.pi_x < a.pi_x or b.pi2_x < a.pi2_x:
                ok, detail = False, f"counts decreased between {a.x} and {b.x}"
        if any(row.pi2_x > row.pi_x for row in rows):
            ok, detail = False, "pi2 exceeded pi"
        yield InvariantCheck("count_monotonicity", ok, detail)

        if len(decades) >= 2:
            dens_x = [at[x].pi2_x / x for x in decades]
            dens_pi = [at[x].pi2_x / at[x].pi_x for x in decades]
            ok = all(b < a for a, b in zip(dens_x, dens_x[1:])) and all(
                b < a for a, b in zip(dens_pi, dens_pi[1:])
            )
            yield InvariantCheck(
                "vanishing_density_trend", ok,
                f"pi2/x and pi2/pi strictly decreasing over {decades}")

        # One r-rough table for both phi checks; the routes read its prefix.
        y_top = min(10**4, sieve.limit)
        phi = _phi_table(y_top, 10)
        y_max, mism = min(2000, y_top), []
        ys = range(0, y_max + 1, 7)
        for r in range(8):
            mism += [(y, r) for y, mobius in zip(
                ys, legendre.phi_mobius_row(ys, r))
                if {legendre.phi_recursive(y, r), mobius} != {phi[r][y]}]
        yield InvariantCheck(
            "phi_two_routes_vs_bruteforce", not mism,
            f"disagreements at {mism[:5]}" if mism
            else f"recurrence == Moebius sum == scan for y <= {y_max}, r <= 7")

        ys, primes = range(1, y_top + 1, 3), small_primes(y_top)
        pis = [bisect_right(primes, y) for y in ys]
        bad = sorted((y, r) for r in range(11) for y in compress(
            ys, map(gt, pis, map(r.__add__, phi[r][1::3]))))
        yield InvariantCheck(
            "phi_prime_count_bound_grid", not bad,
            f"violations at {bad[:5]}" if bad
            else f"pi(y) <= phi(y,r) + r for sampled y <= {y_top}, r <= 10")

        bad = []
        for c in (0.8, 1.0, 1.2, 1.4):
            for y in decades or grid[-1:]:  # the limit, below 1000
                if not at[y].pi_x / y < legendre.density_upper_bound(c, y):
                    bad.append((c, y))
        yield InvariantCheck(
            "density_upper_bound_grid", not bad,
            f"violations at {bad}" if bad
            else "bound holds on the full (c, y) grid")

        if xs:
            rows = estimators.estimate_rows(sieve, xs, cfg.h_c)
            bad = [(r.x, round(r.rel_error, 4)) for r in rows
                   if r.rel_error > 0.04]
            yield InvariantCheck(
                "estimator_accuracy", not bad,
                f"rel_error > 0.04 at {bad}" if bad
                else f"rel_error <= 0.04 at all {len(xs)} checkpoints")

        # The run's C2 first: its flag sieve of euler_pmax also holds the
        # ladder's primes, which stops at 10**6.
        ratios = [estimators.hardy_littlewood_simple(x, cfg.euler_pmax)
                  / at[x].pi2_x for x in decades]
        # Coarser truncations, then the run's own (capped at 10**6).
        top = min(10**6, cfg.euler_pmax)
        ladder = [p for p in (100, 10**3, 10**4, 10**5) if p < top] + [top]
        consts = [estimators.twin_prime_constant(p) for p in ladder]
        ok = all(b < a for a, b in zip(consts, consts[1:]))
        yield InvariantCheck(
            "twin_constant_monotone", ok,
            f"truncations {ladder} -> {[f'{c:.9f}' for c in consts]}")

        if decades:
            growing = all(b > a for a, b in zip(ratios, ratios[1:]))
            yield InvariantCheck(
                "hl_simple_overshoot_finding", True,
                "audit finding (never fails): estimate/actual at "
                f"{decades} = {[f'{r:.2f}' for r in ratios]}"
                + (", growing" if growing else ", NOT growing"))

    return list(checks())


def render_invariants_text(checks: list[InvariantCheck]) -> str:
    lines = []
    for c in checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
