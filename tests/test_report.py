import json
import math
import os
from itertools import chain
from pathlib import Path

import pytest

from twinprimes import (
    RunConfig,
    count_at,
    estimators,
    load_reference_tables,
    round_half_away,
    small_primes,
)
from twinprimes.cli import main
from twinprimes.config import DEFAULT_H_C
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
    suite_points,
    table_points,
    table_rows,
)

import oracles


def _rows(table_id, counts, cfg):
    """A table's rows at the points cfg gives it."""
    return table_rows(table_id, counts, table_points(table_id, cfg), cfg.h_c)


def _cell(audit, table_id, x, column):
    """The one cell of audit at (table_id, x, column)."""
    (cell,) = [c for c in audit.cells if (c.table_id, c.x, c.column) == (
        table_id, x, column)]
    return cell


def _check(checks, name):
    """The one check of the suite's checks that has this name."""
    (check,) = [c for c in checks if c.name == name]
    return check


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
        cell = _cell(audit_1e6, table_id, x, column)
        assert cell.status == status
        if computed is not None:
            assert cell.computed_value == computed

    def test_oddly_printed_cell_carries_note(self, audit_1e6):
        cell = _cell(audit_1e6, 2, 10**6, "b_bound")
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

    def test_deterministic_output_across_builds_and_threads(self,
                                                           monkeypatch):
        # Windows of 4,096 j-values put five windows below 10**5, so three
        # workers each count a run of them.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**12)
        cfg = RunConfig(limit=10**5)
        xs = [*table_points(1, cfg), *table_points(3, cfg)]
        texts = []
        for threads in (1, 3):
            counts = count_at(10**5, xs, threads=threads)
            texts.append(render_csv(1, _rows(1, counts, cfg)))
            texts.append(render_json(3, _rows(3, counts, cfg)))
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


# pi(10**9) and pi2(10**9), from OEIS A006880 and A007508.
PI_1E9, PI2_1E9 = 50_847_534, 3_424_506


def test_table3_at_1e9_follows_from_the_oeis_counts():
    """Past the published tables: one worker's table-3 row at 10**9 has
    OEIS's pi2, and the h, pi2* and error that OEIS's pi gives."""
    x = 10**9
    [row] = table_rows(3, count_at(x, [x]), [x], DEFAULT_H_C)
    star = round_half_away(DEFAULT_H_C * PI_1E9**2 / x)
    assert (row.pi2_x, row.pi2_star, row.abs_delta) == (
        PI2_1E9, star, abs(PI2_1E9 - star))
    assert row.h == pytest.approx(x * PI2_1E9 / PI_1E9**2, rel=1e-15)
    assert row.rel_error == pytest.approx(abs(PI2_1E9 - star) / PI2_1E9,
                                          rel=1e-15)
    assert render_csv(3, [row]).splitlines()[1] == (
        "1000000000,1.324519,3424506,3425923,1417,0.0004")


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
            assert _check(suite_1e6, name).passed, name

    def test_estimator_accuracy_fails_at_5000_with_true_counts(self, suite_1e6):
        # The reference's own twin count at 5000 (123) is an undercount; the
        # true count is 126, pushing the estimator's relative error there to
        # 7/126 = 0.0556, past the documented 0.04 envelope.  Kept failing
        # deliberately: the envelope is part of the published claims.
        check = _check(suite_1e6, "estimator_accuracy")
        assert not check.passed
        assert "5000" in check.detail

    def test_overshoot_finding_is_informational(self, suite_1e6):
        check = _check(suite_1e6, "hl_simple_overshoot_finding")
        assert check.passed and "growing" in check.detail

    def test_deliberately_broken_constant_fails_accuracy(self, sieve_1e4):
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4, h_c=10.0))
        assert not _check(suite, "estimator_accuracy").passed

    def test_twin_constant_ladder_ends_at_a_small_truncation(self, sieve_1e4):
        suite = run_invariant_suite(
            sieve_1e4, RunConfig(limit=10**4, euler_pmax=5000)
        )
        check = _check(suite, "twin_constant_monotone")
        assert check.passed
        assert check.detail.startswith("truncations [100, 1000, 5000] ->")

    def test_the_suite_sieves_its_euler_primes_once(self, sieve_1e4,
                                                    flag_sieves):
        # The ladder and the estimates read one sieve of euler_pmax, also
        # past the ladder's top rung of 10**6, and each rung's constant is
        # the one its own sieve gives, bit for bit.
        from twinprimes import estimators

        for euler_pmax, ladder in (
                (12_347, [100, 1000, 10**4, 12_347]),
                (3 * 10**6, [100, 1000, 10**4, 10**5, 10**6])):
            suite = run_invariant_suite(
                sieve_1e4, RunConfig(limit=10**4, euler_pmax=euler_pmax))
            own = [2.0 * math.prod(1.0 - 1.0 / (p - 1.0) ** 2
                                   for p in small_primes(pmax)[1:])
                   for pmax in ladder]
            assert [estimators.twin_prime_constant(p) for p in ladder] == own
            assert _check(suite, "twin_constant_monotone").detail == (
                f"truncations {ladder} -> {[f'{c:.9f}' for c in own]}")
        assert flag_sieves == [12_347, 3 * 10**6]

    def test_suite_clamps_to_small_limits(self, sieve_1e4):
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4))
        assert _check(suite, "trost_bounds_grid").passed
        assert _check(suite, "sandwich_grid").passed

    def test_grid_checks_report_wrong_counts(self):
        # Wrong pi and pi2 at the grid point 3060, and a wrong pi2 at the
        # decade 1000: each check that reads them must fail and name the x.
        counts = oracles.PrefixCounts(10**4)
        pi, pi2 = counts.count_primes_upto, counts.count_twins_upto
        wrong_pi, wrong_pi2 = {3060: 2}, {3060: 1, 1000: 1}
        counts.count_primes_upto = lambda x: wrong_pi.get(x) or pi(x)
        counts.count_twins_upto = lambda x: wrong_pi2.get(x) or pi2(x)
        suite = run_invariant_suite(counts, RunConfig(limit=10**4))
        for name, x in (("trost_bounds_grid", 3060), ("sandwich_grid", 3060),
                        ("h_ratio_cap_grid", 3060),
                        ("count_monotonicity", 3060),
                        ("vanishing_density_trend", 1000)):
            check = _check(suite, name)
            assert not check.passed and str(x) in check.detail, name

    def test_phi_bound_grid_names_violations_in_order(self, sieve_1e4,
                                                      monkeypatch):
        # Two phantom primes push pi(y) past phi(y, r) + r wherever the
        # bound is tight; the check must name the first five (y, r), in that
        # order, that a scan gives on the column y = 1 (mod 3).
        from twinprimes import report

        real = report.small_primes
        monkeypatch.setattr(report, "small_primes", lambda n: [1, 1, *real(n)])
        check = _check(run_invariant_suite(sieve_1e4, RunConfig(limit=10**4)),
                       "phi_prime_count_bound_grid")
        ys, pi = range(1, 10**4 + 1, 3), oracles.prime_prefix_counts(10**4)
        primes = oracles.primes_upto_trial(29)
        scans = [oracles.phi_scan_many(ys, r, primes) for r in range(11)]
        bad = [(y, r) for y in ys for r in range(11)
               if pi[y] + 2 > scans[r][y] + r]
        assert bad[:5] == [(1, 0), (4, 1), (4, 2), (7, 1), (7, 2)]
        assert (check.passed, check.detail) == (
            False, f"violations at {bad[:5]}")

    def test_phi_routes_fail_when_first_primes_skips_17(self, sieve_1e6,
                                                        monkeypatch):
        # Both routes read first_primes; the scan finds its primes itself,
        # so a first_primes that skips 17 puts them at odds with it.
        from twinprimes import legendre

        real = legendre.first_primes
        monkeypatch.setattr(legendre, "first_primes", lambda r: tuple(
            p for p in real(r + 1) if p != 17)[:r])
        check = _check(run_invariant_suite(sieve_1e6, RunConfig()),
                       "phi_two_routes_vs_bruteforce")
        assert not check.passed
        assert check.detail.startswith("disagreements at [(294, 7),")

    def test_phi_table_is_the_scan_of_the_first_primes(self):
        # Every row, also past the last prime <= y, where the rows repeat.
        from twinprimes.report import _phi_table

        primes = oracles.primes_upto_trial(29)
        for y in [*range(0, 40), 120]:
            table = _phi_table(y, 10)
            assert len(table) == 11
            for r, row in enumerate(table):
                assert row == [oracles.phi_scan(v, r, primes)
                               for v in range(y + 1)], (y, r)

    def test_text_rendering_lists_every_check(self, suite_1e6):
        text = render_invariants_text(suite_1e6)
        assert text.count("[PASS]") + text.count("[FAIL]") == len(suite_1e6)


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


_CHECK_STDOUT = (Path(__file__).parents[1] / "perfbench" / "data" / "golden"
                 / "check.stdout").read_text()


class TestSuiteWorkers:
    # The oracle's counts, or the package's at the suite's points up to a
    # limit at which the r-rough table and both phi checks are clamped to
    # the limit.  The suite runs in the calling process at any thread
    # count: the two lists of checks are equal, in order, and nothing forks.
    @pytest.mark.parametrize("counts", ["sieve_1e4", "sieve_1e6",
                                        50, 1999, 9999])
    def test_two_workers_give_the_same_checks_in_order(self, counts, request,
                                                       monkeypatch):
        if isinstance(counts, str):
            sieve = request.getfixturevalue(counts)
            cfg = RunConfig(limit=sieve.limit)
        else:
            sieve = count_at(counts, chain(*suite_points(counts)))
            cfg = RunConfig(limit=counts)
        one = run_invariant_suite(sieve, cfg)
        forks = _counted_forks(monkeypatch)
        two = run_invariant_suite(sieve, cfg._replace(threads=2))
        assert len(forks) == 0
        assert two == one

    def test_one_worker_forks_nothing(self, monkeypatch, capsys):
        # At 10**6 every point lies in one window, so neither the count nor
        # the suite forks, whatever --threads says.
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", fork)
        for threads in ("1", "2"):
            assert main(["check", "--limit", "1000000",
                         "--threads", threads]) == 2
            assert capsys.readouterr().out == _CHECK_STDOUT
