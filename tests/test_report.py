import json
import math
import os
import re
import signal
from pathlib import Path

import pytest

from twinprimes import (
    PrimeSieve,
    RunConfig,
    estimators,
    load_reference_tables,
    small_primes,
)
from twinprimes.cli import main
from twinprimes.report import (
    STATUS_FORMATTING,
    STATUS_MATCH,
    STATUS_MISMATCH,
    _classify,
    audit_against_reference,
    reference_checkpoints,
    render_audit_json,
    render_audit_text,
    render_csv,
    render_invariants_text,
    render_json,
    render_table,
    run_invariant_suite,
    table_points,
    table_rows,
)


def _rows(table_id, counts, cfg):
    """A table's rows at the points cfg gives it."""
    return table_rows(table_id, counts, table_points(table_id, cfg), cfg.h_c)


@pytest.fixture(scope="module")
def audit_1e6(sieve_1e6):
    return audit_against_reference(sieve_1e6, RunConfig())


class TestFixture:
    def test_versioned_and_complete(self):
        ref = load_reference_tables()
        assert ref["version"] == 1
        assert len(ref["table1"]["rows"]) == 28
        assert len(ref["table2"]["rows"]) == 15
        assert len(ref["table3"]["rows"]) == 19

    def test_checkpoint_extraction(self):
        assert reference_checkpoints(1)[0] == 25
        assert reference_checkpoints(2)[-1] == 10**6
        assert len(reference_checkpoints(3)) == 19


class TestAuditCoverage:
    def test_every_cell_audited_exactly_once(self, audit_1e6):
        keys = [(c.table_id, c.x, c.column) for c in audit_1e6.cells]
        assert len(keys) == len(set(keys))
        assert len(keys) == 28 * 4 + 15 * 3 + 19 * 5  # 252

    def test_status_counts_are_frozen(self, audit_1e6):
        # Pinned so any change to fixture, counting convention, or
        # classification rules shows up as a diff here.
        assert audit_1e6.status_counts() == {
            STATUS_MATCH: 143,
            STATUS_FORMATTING: 10,
            STATUS_MISMATCH: 99,
        }


class TestAuditKnownCells:
    @pytest.mark.parametrize(
        "table_id,x,column,status,computed",
        [
            (1, 25, "pi_x", STATUS_MATCH, 9),
            (1, 10**4, "pi_x", STATUS_MISMATCH, 1229),   # printed 1226
            (1, 150, "pi2_x", STATUS_MISMATCH, 11),      # printed 12
            (1, 10**6, "pi2_x", STATUS_MISMATCH, 8169),  # printed 7902
            (2, 50, "a_bound", STATUS_MATCH, None),
            (2, 10**6, "a_bound", STATUS_MATCH, None),   # 2983 reproduces
            (2, 10**4, "b_bound", STATUS_FORMATTING, None),  # 372.58 vs 372
            (2, 10**6, "b_bound", STATUS_MISMATCH, None),    # 15892 vs 15887
            (3, 10**6, "pi2_star", STATUS_MATCH, 8165),
            (3, 15000, "pi2_star", STATUS_MISMATCH, 272),    # printed 274
            (3, 50, "h", STATUS_MISMATCH, None),   # printed 1.333336
            (3, 150, "h", STATUS_FORMATTING, None),  # truncated last digit
        ],
    )
    def test_cell_status(self, audit_1e6, table_id, x, column, status, computed):
        cell = audit_1e6.cell(table_id, x, column)
        assert cell.status == status
        if computed is not None:
            assert cell.computed_value == computed

    def test_oddly_printed_cell_carries_note(self, audit_1e6):
        cell = audit_1e6.cell(2, 10**6, "b_bound")
        assert "15.887" in cell.note

    def test_cross_table_contradictions(self, audit_1e6):
        found = {
            (k.x, k.table_a, k.table_b, k.value_a, k.value_b)
            for k in audit_1e6.conflicts
        }
        assert found == {
            (150, 1, 3, 12, 11),
            (500000, 1, 2, 4343, 4494),
            (500000, 1, 3, 4343, 4494),
            (1000000, 1, 2, 7902, 8164),
            (1000000, 1, 3, 7902, 8164),
        }

    def test_audit_renderers_cover_everything(self, audit_1e6):
        text = render_audit_text(audit_1e6)
        assert "x=10000 pi_x: 1226 vs 1229" in text
        assert "table1 prints 7902, table3 prints 8164" in text
        doc = json.loads(render_audit_json(audit_1e6))
        assert len(doc["cells"]) == 252
        assert len(doc["conflicts"]) == 5


class TestRendering:
    def test_csv_first_rows(self, sieve_1e6):
        cfg = RunConfig()
        text = render_csv(1, _rows(1, sieve_1e6, cfg))
        lines = text.split("\n")
        assert lines[0] == "x,pi_x,pi2_x,pi_pi_x,ratio"
        assert lines[1] == "25,9,4,4,1.000"
        assert lines[8] == "400,78,21,21,1.000"

    def test_csv_dialect(self, sieve_1e6):
        cfg = RunConfig()
        for table_id, rows in [
            (1, _rows(1, sieve_1e6, cfg)),
            (2, _rows(2, sieve_1e6, cfg)),
            (3, _rows(3, sieve_1e6, cfg)),
        ]:
            text = render_csv(table_id, rows)
            assert "\r" not in text and text.endswith("\n")
            ncols = text.split("\n", 1)[0].count(",")
            for line in text.strip("\n").split("\n"):
                assert line.count(",") == ncols
                assert " " not in line
                for cell in line.split(","):
                    assert not cell.startswith("0") or cell.startswith("0.") or cell == "0"

    def test_deterministic_output_across_builds_and_threads(self):
        from twinprimes import build_sieve

        texts = []
        for threads in (1, 3):
            sieve = build_sieve(10**5, threads=threads)
            cfg = RunConfig(limit=10**5)
            texts.append(render_csv(1, _rows(1, sieve, cfg)))
            texts.append(render_json(3, _rows(3, sieve, cfg)))
        assert texts[0] == texts[2]
        assert texts[1] == texts[3]

    def test_json_structure_full_precision(self, sieve_1e6):
        cfg = RunConfig()
        doc = json.loads(render_json(3, _rows(3, sieve_1e6, cfg)))
        assert doc["table_id"] == 3
        row = doc["rows"][0]
        assert set(row) == {
            "x", "eta_p", "eta_pp", "h", "pi2_x", "pi2_star",
            "abs_delta", "rel_error",
        }
        assert row["x"] == 50
        assert row["h"] == 50 * 6 / 15**2  # unrounded

    def test_text_format_is_aligned(self, sieve_1e6):
        text = render_table(1, _rows(1, sieve_1e6, RunConfig()), "text")
        lines = text.strip("\n").split("\n")
        assert len({len(line) for line in lines}) == 1


class TestCsvRoundTrip:
    # Exact ties at the printed precision: 17/16 = 1.0625, 330/256 =
    # 1.2890625 and 1/32 = 0.03125.  Binary formatting rounds them to even;
    # the fixture's rule, which the audit applies, rounds them away from 0.
    @pytest.mark.parametrize("table_id,x,column,printed", [
        (1, 241, "ratio", "1.063"),
        (3, 55, "h", "1.289063"),
        (3, 823, "rel_error", "0.0313"),
    ])
    def test_ties_print_as_the_audit_rounds(self, sieve_1e4, table_id, x,
                                            column, printed, capsys):
        cfg = RunConfig(limit=10**4, checkpoints=(x,))
        rows = _rows(table_id, sieve_1e4, cfg)
        header, line = render_csv(table_id, rows).splitlines()
        assert line.split(",")[header.split(",").index(column)] == printed
        assert f" {printed}" in render_table(table_id, rows, "text")
        rounding = load_reference_tables()[f"table{table_id}"]["rounding"]
        value = getattr(rows[0], column)
        assert _classify(value, float(printed), rounding[column]) == STATUS_MATCH
        # The subcommands that print the column on a line of its own.
        argv = {"h": ["calibrate", "--limit", "1000", "--checkpoints", str(x)],
                "rel_error": ["estimate", "--x", str(x)]}.get(column)
        if argv:
            assert main(argv) == 0
            assert f"{column}={printed}\n" in capsys.readouterr().out


class TestRunConfig:
    def test_checkpoints_must_fit_limit(self):
        with pytest.raises(ValueError):
            RunConfig(limit=10**4, checkpoints=(50, 20000))
        with pytest.raises(ValueError):
            RunConfig(limit=10**4, checkpoints=(4,))

    @pytest.mark.parametrize("xs", [(100, 50), (50, 50), (50, 100, 100)])
    def test_checkpoints_must_strictly_increase(self, xs):
        with pytest.raises(ValueError, match="strictly increasing"):
            RunConfig(limit=10**4, checkpoints=xs)

    def test_default_checkpoints_clamp_to_limit(self):
        cfg = RunConfig(limit=10**4)
        assert max(table_points(1, cfg)) <= 10**4
        assert max(table_points(3, cfg)) <= 10**4


@pytest.fixture(scope="module")
def suite_1e6(sieve_1e6):
    return run_invariant_suite(sieve_1e6, RunConfig())


class TestInvariantSuite:
    def test_named_grid_checks_pass(self, suite_1e6):
        for name in (
            "trost_bounds_grid",
            "sandwich_grid",
            "h_ratio_cap_grid",
            "count_monotonicity",
            "vanishing_density_trend",
            "phi_two_routes_vs_bruteforce",
            "phi_prime_count_bound_grid",
            "density_upper_bound_grid",
            "twin_constant_monotone",
        ):
            assert suite_1e6.check(name).passed, name

    def test_estimator_accuracy_fails_at_5000_with_true_counts(self, suite_1e6):
        # The reference's own twin count at 5000 (123) is an undercount; the
        # true count is 126, pushing the estimator's relative error there to
        # 7/126 = 0.0556, past the documented 0.04 envelope.  Kept failing
        # deliberately: the envelope is part of the published claims.
        check = suite_1e6.check("estimator_accuracy")
        assert not check.passed
        assert "5000" in check.detail

    def test_overshoot_finding_is_informational(self, suite_1e6):
        check = suite_1e6.check("hl_simple_overshoot_finding")
        assert check.passed and "growing" in check.detail

    def test_deliberately_broken_constant_fails_accuracy(self, sieve_1e4):
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4, h_c=10.0))
        assert not suite.check("estimator_accuracy").passed

    def test_twin_constant_ladder_ends_at_a_small_truncation(self, sieve_1e4):
        suite = run_invariant_suite(
            sieve_1e4, RunConfig(limit=10**4, euler_pmax=5000)
        )
        check = suite.check("twin_constant_monotone")
        assert check.passed
        assert check.detail.startswith("truncations [100, 1000, 5000] ->")

    def test_the_suite_sieves_its_euler_primes_once(self, sieve_1e4,
                                                    monkeypatch):
        # The ladder and the estimates read one sieve of the top rung, and
        # each rung's constant is the one its own sieve gives, bit for bit.
        from twinprimes import estimators

        calls = []

        def counted(limit):
            calls.append(limit)
            return small_primes(limit)

        estimators._odd_primes.cache_clear()
        estimators.twin_prime_constant.cache_clear()
        monkeypatch.setattr(estimators, "small_primes", counted)
        suite = run_invariant_suite(
            sieve_1e4, RunConfig(limit=10**4, euler_pmax=12_347))
        assert calls == [12_347]
        ladder = [100, 1000, 10**4, 12_347]
        own = [2.0 * math.prod(1.0 - 1.0 / (p - 1.0) ** 2
                               for p in small_primes(pmax)[1:])
               for pmax in ladder]
        assert estimators.twin_prime_constants(ladder) == own
        assert suite.check("twin_constant_monotone").detail == (
            f"truncations {ladder} -> {[f'{c:.9f}' for c in own]}")

    def test_suite_clamps_to_small_limits(self, sieve_1e4):
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4))
        assert suite.check("trost_bounds_grid").passed
        assert suite.check("sandwich_grid").passed

    def test_grid_checks_report_wrong_counts(self, sieve_1e4, monkeypatch):
        # Wrong pi and pi2 at the grid point 3060, also one of the probed
        # points, and a wrong pi2 at the decade 1000: each check that reads
        # them must fail and name the x.
        pi, pi2 = PrimeSieve.count_primes_upto, PrimeSieve.count_twins_upto
        wrong_pi, wrong_pi2 = {3060: 2}, {3060: 1, 1000: 1}
        monkeypatch.setattr(PrimeSieve, "count_primes_upto",
                            lambda s, x: wrong_pi.get(x) or pi(s, x))
        monkeypatch.setattr(PrimeSieve, "count_twins_upto",
                            lambda s, x: wrong_pi2.get(x) or pi2(s, x))
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4))
        for name, x in (("trost_bounds_grid", 3060), ("sandwich_grid", 3060),
                        ("h_ratio_cap_grid", 3060),
                        ("count_monotonicity", 3060),
                        ("vanishing_density_trend", 1000)):
            check = suite.check(name)
            assert not check.passed and str(x) in check.detail, name

    def test_text_rendering_lists_every_check(self, suite_1e6):
        text = render_invariants_text(suite_1e6)
        assert text.count("[PASS]") + text.count("[FAIL]") == len(
            suite_1e6.checks
        )


def _counted_forks(monkeypatch):
    """The pids that os.fork returns from now on, two CPUs on any host."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_in_a_worker():
    raise ValueError("raised in a worker")


_CHECK_STDOUT = (Path(__file__).parents[1] / "perfbench" / "data" / "golden"
                 / "check.stdout").read_text()


class TestSuiteWorkers:
    @pytest.mark.parametrize("store", ["sieve_1e4", "sieve_1e6"])
    def test_two_workers_give_the_same_checks_in_order(self, store, request,
                                                       monkeypatch):
        sieve = request.getfixturevalue(store)
        cfg = RunConfig(limit=sieve.limit)
        one = run_invariant_suite(sieve, cfg).checks
        forks = _counted_forks(monkeypatch)
        two = run_invariant_suite(sieve, cfg._replace(threads=2)).checks
        assert len(forks) == 1
        assert two == one
        _no_child_left()

    def test_one_worker_forks_nothing(self, monkeypatch, capsys):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", fork)
        assert main(["check", "--limit", "1000000", "--threads", "1"]) == 2
        assert capsys.readouterr().out == _CHECK_STDOUT

    # The worker runs the second part, which reads the Euler-product ladder.
    _FAILURES = {
        "exit 3": (lambda: os._exit(3), r"worker \d+ ended without a result "
                   r"\(exit status 3\)"),
        "SIGKILL": (lambda: os.kill(os.getpid(), signal.SIGKILL),
                    r"worker \d+ ended without a result \(exit status -9\)"),
        "raises": (_raise_in_a_worker, "raised in a worker"),
    }

    @pytest.mark.parametrize("failure", sorted(_FAILURES))
    def test_a_failing_worker_is_one_error_line(self, failure, monkeypatch,
                                                capsys):
        act, message = self._FAILURES[failure]
        parent, ladder = os.getpid(), estimators.twin_prime_constants

        def hooked(pmaxes):
            if os.getpid() != parent:
                act()
            return ladder(pmaxes)

        monkeypatch.setattr(estimators, "twin_prime_constants", hooked)
        forks = _counted_forks(monkeypatch)
        assert main(["check", "--limit", "10000", "--threads", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(f"error: {message}\n", err), err
        assert len(forks) == 1
        _no_child_left()
