"""Command-line front end.

Subcommands: sieve, table1, table2, table3, estimate, calibrate, phi,
audit, check, reproduce.  Exit codes: 0 all good, 1 invalid input or an
unwritable output (one ``error:`` line on stderr), 2 invariant failure (or
reference mismatch under --strict-paper), 3 reference-value mismatches
only.  ``reproduce`` writes every artifact to a directory and exits 0.

Output goes to stdout unless --out is given; a relative --out path is
resolved inside $TWINPRIMES_OUTDIR when that is set.  Identical
configurations produce byte-identical csv/json output regardless of
--threads.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from itertools import chain
from pathlib import Path

# Each handler imports the modules it runs, so `sieve` loads no others.
from .config import (
    EXIT_INVARIANT_FAILURE,
    EXIT_OK,
    EXIT_REFERENCE_MISMATCH,
    RunConfig,
)
from .sieve import count_at

OUTDIR_ENV = "TWINPRIMES_OUTDIR"
DEFAULT_OUTDIR = "reproduction"


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        xs = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"checkpoints must be comma-separated integers, got {text!r}"
        )
    if not xs:
        raise argparse.ArgumentTypeError("checkpoint list is empty")
    return xs


def _write(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUTDIR_ENV)
        if base:
            path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# Every flag, declared once.  A flag whose dest is a RunConfig field feeds
# _run_config, which takes RunConfig's own default for a flag a subcommand
# does not have.
_DEFAULTS = RunConfig._field_defaults
_FLAGS = {
    "--limit": dict(type=int, default=_DEFAULTS["limit"],
                    help="bound on the points read (default %(default)s)"),
    "--threads": dict(type=int, default=_DEFAULTS["threads"],
                      help="workers (forked processes) that count and "
                      "run the invariant suite; never changes results"),
    "--checkpoints": dict(type=_parse_checkpoints, default=None,
                          help="comma-separated x values "
                          "(default: reference rows)"),
    "--format": dict(help="output format (default %(default)s)"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--hc": dict(dest="h_c", type=float, default=_DEFAULTS["h_c"],
                 help="override the calibrated ratio constant"),
    "--euler-pmax": dict(type=int, default=_DEFAULTS["euler_pmax"],
                         help="Euler-product truncation bound"),
    "--strict-paper": dict(action="store_true",
                           help="treat reference mismatches as failures "
                           "(exit 2)"),
    "--x": dict(type=int, required=True),
    "--y": dict(type=int, required=True),
    "--r": dict(type=int, required=True),
    "--outdir": dict(default=None,
                     help=f"output directory (default ${OUTDIR_ENV}, "
                     f"else {DEFAULT_OUTDIR})"),
}
_SHARED = ("--limit", "--threads")
_TABLE_FORMATS = ("csv", "json", "text")
_REPORT_FORMATS = ("text", "json")


def _run_config(args, **overrides) -> RunConfig:
    """The RunConfig of a parsed command line; `overrides` replace fields."""
    given = {k: v for k, v in vars(args).items() if k in RunConfig._fields}
    return RunConfig(**{**given, **overrides})


def _counts(cfg: RunConfig, *xss):
    """The counts at the points of every xs, sieved only as far as the
    largest."""
    return count_at(cfg.limit, chain(*xss), threads=cfg.threads)


def _cmd_sieve(args) -> int:
    cfg = _run_config(args)
    counts = _counts(cfg, [cfg.limit])
    pi, pi2 = counts[cfg.limit]
    _write(f"limit={cfg.limit}\npi={pi}\npi2={pi2}\npi_pi={counts[pi][0]}\n",
           None)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import report
    table_id = int(args.command[-1])
    cfg = _run_config(args)
    xs = report.table_points(table_id, cfg)
    rows = report.table_rows(table_id, _counts(cfg, xs), xs, cfg.h_c)
    _write(report.render_table(table_id, rows, args.format), args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from . import estimators, legendre, report
    x = args.x
    if x < 5:
        raise ValueError(f"--x must be >= 5, got {x}")
    cfg = _run_config(args, limit=max(args.limit, x))
    counts = _counts(cfg, [x])
    row = estimators.estimate_rows(counts, [x], cfg.h_c)[0]
    # EstimateRow keeps pi(x) only as the density pi(x)/x.
    pi = counts.count_primes_upto(x)
    lo, up = estimators.trost_bounds(x)
    a, b = estimators.sandwich_bounds(x)
    density = legendre.density_upper_bound(
        counts, legendre.DensityBoundParams(c=1.0, y=x)
    )
    # Computed before the warning, so a refused pmax prints one error line.
    hl_simple = estimators.hardy_littlewood_simple(x, cfg.euler_pmax)
    hl_product = estimators.hardy_littlewood_product(x, cfg.euler_pmax)
    print(
        "product estimate uses a truncated divergent trailing product "
        f"(pmax={cfg.euler_pmax}); its value is truncation-relative",
        file=sys.stderr,
    )
    _write(
        f"x={x}\npi={pi}\npi2={row.pi2_x}\n"
        f"h={report.format_cell(3, 'h', row.h)}\n"
        f"pi2_star={row.pi2_star}\n"
        f"abs_delta={row.abs_delta}\n"
        f"rel_error={report.format_cell(3, 'rel_error', row.rel_error)}\n"
        f"trost_lower={lo:.3f}\ntrost_upper={up:.3f}\n"
        f"bound_a={a:.3f}\nbound_b={b:.3f}\n"
        f"density_bound={density.bound:.6f}\n"
        f"density_actual={density.actual:.6f}\n"
        f"density_holds={str(density.holds).lower()}\n"
        f"hl_simple={hl_simple:.3f}\nhl_product={hl_product:.3f}\n",
        None,
    )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from . import estimators, report
    cfg = _run_config(args)
    xs = report.table_points(3, cfg)
    rows = report.table_rows(3, _counts(cfg, xs), xs, cfg.h_c)
    for row in rows:
        _write(f"x={row.x} h={report.format_cell(3, 'h', row.h)}\n", None)
    h_c = estimators.mean_density_ratio(rows)
    _write(f"h_c={report.format_cell(3, 'h', h_c)}\n", None)
    return EXIT_OK


def _cmd_phi(args) -> int:
    from . import legendre
    y, r = args.y, args.r
    # Counted first, so the memory budget refuses an oversized --y at once;
    # phi reaches y whatever --limit says.
    counts = count_at(y, [y] if y >= 2 else [], threads=args.threads)
    chk = legendre.check_phi_pi_bound(counts, y, r)
    lines = [f"y={y}", f"r={r}", f"phi_recursive={chk.phi}"]
    if r <= legendre.MAX_MOBIUS_R:
        lines.append(f"phi_mobius={legendre.phi_mobius(y, r)}")
    lines += [f"pi_y={chk.pi_y}", f"bound_ok={str(chk.bound_ok).lower()}"]
    _write("\n".join(lines) + "\n", None)
    return EXIT_OK


def _audit_exit(audit, cfg: RunConfig) -> int:
    if audit.non_matching():
        return EXIT_INVARIANT_FAILURE if cfg.strict_paper else EXIT_REFERENCE_MISMATCH
    return EXIT_OK


def _cmd_audit(args) -> int:
    from . import report
    cfg = _run_config(args)
    audit = report.audit_against_reference(
        _counts(cfg, report.audit_points(cfg.limit)), cfg)
    text = (
        report.render_audit_json(audit)
        if args.format == "json"
        else report.render_audit_text(audit)
    )
    _write(text, args.out)
    return _audit_exit(audit, cfg)


def _cmd_check(args) -> int:
    import json

    from . import report
    cfg = _run_config(args)
    counts = _counts(cfg, *report.suite_points(cfg.limit),
                     report.audit_points(cfg.limit))
    invariants = report.run_invariant_suite(counts, cfg)
    audit = report.audit_against_reference(counts, cfg)
    if args.format == "json":
        doc = {
            "invariants": {
                "passed": invariants.passed,
                "checks": [c._asdict() for c in invariants.checks],
            },
            "audit_status_counts": audit.status_counts(),
            "audit_conflicts": len(audit.conflicts),
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        summary = (
            f"reference audit: {audit.status_counts()} "
            f"+ {len(audit.conflicts)} cross-table contradictions\n"
        )
        _write(report.render_invariants_text(invariants) + summary, args.out)
    if not invariants.passed:
        return EXIT_INVARIANT_FAILURE
    return _audit_exit(audit, cfg)


def _cmd_reproduce(args) -> int:
    from . import report
    # Absolute, so that _write does not resolve it a second time inside
    # $TWINPRIMES_OUTDIR.
    outdir = Path(
        args.outdir or os.environ.get(OUTDIR_ENV) or DEFAULT_OUTDIR
    ).absolute()
    cfg = _run_config(args)
    counts = _counts(cfg, *report.suite_points(cfg.limit),
                     report.audit_points(cfg.limit))
    for table_id in (1, 2, 3):
        rows = report.table_rows(table_id, counts,
                                 report.table_points(table_id, cfg), cfg.h_c)
        for fmt in ("csv", "json"):
            _write(report.render_table(table_id, rows, fmt),
                   outdir / f"table{table_id}.{fmt}")
        print(f"table{table_id}: {len(rows)} rows")

    audit = report.audit_against_reference(counts, cfg)
    _write(report.render_audit_text(audit), outdir / "audit.txt")
    _write(report.render_audit_json(audit), outdir / "audit.json")
    status = audit.status_counts()
    print(
        f"audit: {status['match']} match / {status['formatting-only']} "
        f"formatting-only / {status['mismatch']} mismatch / "
        f"{len(audit.conflicts)} cross-table contradictions"
    )

    invariants = report.run_invariant_suite(counts, cfg)
    _write(report.render_invariants_text(invariants), outdir / "invariants.txt")
    print("invariants:", "all passed" if invariants.passed
          else "FAILURES (see invariants.txt)")
    print(f"wrote {outdir}/")
    return EXIT_OK


_TABLE = ("--checkpoints", "--format", "--out")

# name: (help, handler, flags it reads beyond the shared ones)
_COMMANDS = {
    "sieve": ("print pi, pi2 and pi(pi) at the limit", _cmd_sieve, ()),
    "table1": ("regenerate the hypothesis table (pi, pi2, pi(pi), ratio)",
               _cmd_table, _TABLE),
    "table2": ("regenerate the bounds table (A, pi2, B)", _cmd_table, _TABLE),
    "table3": ("regenerate the estimator table (h, pi2, pi2*, error)",
               _cmd_table, _TABLE + ("--hc",)),
    "estimate": ("estimates and bounds at a single x", _cmd_estimate,
                 ("--x", "--hc", "--euler-pmax")),
    "calibrate": ("mean density ratio h over checkpoints", _cmd_calibrate,
                  ("--checkpoints",)),
    "phi": ("inclusion-exclusion count phi(y, r)", _cmd_phi, ("--y", "--r")),
    "audit": ("recompute and classify every reference cell", _cmd_audit,
              ("--format", "--out", "--hc", "--strict-paper")),
    "check": ("run the full invariant suite", _cmd_check,
              ("--format", "--out", "--hc", "--euler-pmax", "--strict-paper")),
    "reproduce": ("write all three tables (csv and json), the audit and the "
                  "invariant report to a directory", _cmd_reproduce,
                  ("--outdir",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinprimes",
        description="Exact prime / twin-prime counts, bound checks, and "
        "reference-table audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _SHARED + flags:
            kwargs = _FLAGS[flag]
            if flag == "--format":
                choices = (_TABLE_FORMATS if name.startswith("table")
                           else _REPORT_FORMATS)
                kwargs = dict(kwargs, choices=choices, default=choices[0])
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Once per process: at exit the heap is left to the OS, not collected.
    # stdout is still flushed, and every file written is closed already.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    # No handler calls BLAS: numpy starts no thread, so workers fork cleanly.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
