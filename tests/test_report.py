import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinprimes import RunConfig, load_reference_tables
from twinprimes.report import (
    STATUS_FORMATTING,
    STATUS_MATCH,
    STATUS_MISMATCH,
    audit_against_reference,
    parse_table_csv,
    reference_checkpoints,
    render_audit_json,
    render_audit_text,
    render_csv,
    render_invariants_text,
    render_json,
    render_table,
    run_invariant_suite,
    table1_rows,
    table2_rows,
    table3_rows,
)


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
        text = render_csv(1, table1_rows(sieve_1e6, cfg))
        lines = text.split("\n")
        assert lines[0] == "x,pi_x,pi2_x,pi_pi_x,ratio"
        assert lines[1] == "25,9,4,4,1.000"
        assert lines[8] == "400,78,21,21,1.000"

    def test_csv_dialect(self, sieve_1e6):
        cfg = RunConfig()
        for table_id, rows in [
            (1, table1_rows(sieve_1e6, cfg)),
            (2, table2_rows(sieve_1e6, cfg)),
            (3, table3_rows(sieve_1e6, cfg)),
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
            texts.append(render_csv(1, table1_rows(sieve, cfg)))
            texts.append(render_json(3, table3_rows(sieve, cfg)))
        assert texts[0] == texts[2]
        assert texts[1] == texts[3]

    def test_json_structure_full_precision(self, sieve_1e6):
        cfg = RunConfig()
        doc = json.loads(render_json(3, table3_rows(sieve_1e6, cfg)))
        assert doc["table_id"] == 3
        row = doc["rows"][0]
        assert set(row) == {
            "x", "eta_p", "eta_pp", "h", "pi2_x", "pi2_star",
            "abs_delta", "rel_error",
        }
        assert row["x"] == 50
        assert row["h"] == 50 * 6 / 15**2  # unrounded

    def test_text_format_is_aligned(self, sieve_1e6):
        text = render_table(1, table1_rows(sieve_1e6, RunConfig()), "text")
        lines = text.strip("\n").split("\n")
        assert len({len(line) for line in lines}) == 1


def _reemit(table_id, text):
    names = text.split("\n", 1)[0].split(",")
    rows = [
        SimpleNamespace(**dict(zip(names, parsed)))
        for parsed in parse_table_csv(table_id, text)
    ]
    return render_csv(table_id, rows)


class TestCsvRoundTrip:
    def test_all_tables_round_trip_byte_identically(self, sieve_1e6):
        cfg = RunConfig()
        for table_id, rows in [
            (1, table1_rows(sieve_1e6, cfg)),
            (2, table2_rows(sieve_1e6, cfg)),
            (3, table3_rows(sieve_1e6, cfg)),
        ]:
            text = render_csv(table_id, rows)
            assert _reemit(table_id, text) == text

    def test_parsed_values_match_rendered_precision(self, sieve_1e6):
        cfg = RunConfig()
        rows = table1_rows(sieve_1e6, cfg)
        parsed = parse_table_csv(1, render_csv(1, rows))
        for row, got in zip(rows, parsed):
            assert got[0] == row.x
            assert got[1] == row.pi_x and got[2] == row.pi2_x
            assert got[4] == float(f"{row.ratio:.3f}")

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_table_csv(2, "x,nope\n1,2\n")

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.integers(5, 10**4), min_size=1, max_size=12, unique=True
        ).map(sorted)
    )
    def test_round_trip_on_arbitrary_checkpoints(self, sieve_1e4, xs):
        cfg = RunConfig(limit=10**4, checkpoints=tuple(xs))
        for table_id, rows in [
            (1, table1_rows(sieve_1e4, cfg)),
            (2, table2_rows(sieve_1e4, cfg)),
            (3, table3_rows(sieve_1e4, cfg)),
        ]:
            text = render_csv(table_id, rows)
            assert _reemit(table_id, text) == text


class TestRunConfig:
    def test_checkpoints_must_fit_limit(self):
        with pytest.raises(ValueError):
            RunConfig(limit=10**4, checkpoints=(50, 20000))
        with pytest.raises(ValueError):
            RunConfig(limit=10**4, checkpoints=(4,))

    def test_default_checkpoints_clamp_to_limit(self):
        cfg = RunConfig(limit=10**4)
        assert max(cfg.xs_for(1)) <= 10**4
        assert max(cfg.xs_for(3)) <= 10**4


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

    def test_suite_clamps_to_small_limits(self, sieve_1e4):
        suite = run_invariant_suite(sieve_1e4, RunConfig(limit=10**4))
        assert suite.check("trost_bounds_grid").passed
        assert suite.check("sandwich_grid").passed

    def test_text_rendering_lists_every_check(self, suite_1e6):
        text = render_invariants_text(suite_1e6)
        assert text.count("[PASS]") + text.count("[FAIL]") == len(
            suite_1e6.checks
        )
