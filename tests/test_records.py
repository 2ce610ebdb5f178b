"""Every public record is an immutable NamedTuple, and each is the run's
config or is printed; `RunConfig` runs its checks on construction, `_make`
and `_replace` alike; and `_asdict()` gives the keys in the order the json
goldens print them."""

import json
from pathlib import Path

import pytest

import twinprimes
from twinprimes import (
    RunConfig,
    audit_against_reference,
    bounds_rows,
    checkpoint_rows,
    density_upper_bound,
    estimate_rows,
    run_invariant_suite,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def records(sieve_1e4):
    """One instance of every public record type, by its name."""
    audit = audit_against_reference(sieve_1e4, RunConfig(limit=10**4))
    instances = [
        RunConfig(),
        checkpoint_rows(sieve_1e4, [1000])[0],
        bounds_rows(sieve_1e4, [1000])[0],
        estimate_rows(sieve_1e4, [1000])[0],
        audit,
        audit.cells[0],
        audit.conflicts[0],
        run_invariant_suite(sieve_1e4, RunConfig(limit=10**4))[0],
    ]
    return {type(r).__name__: r for r in instances}


# Every exported tuple type, by its name.
_EXPORTED = {
    name for name in twinprimes.__all__
    if isinstance(getattr(twinprimes, name), type)
    and issubclass(getattr(twinprimes, name), tuple)
}


def test_every_exported_record_is_covered(records):
    assert _EXPORTED == set(records)


def test_assigning_a_field_is_an_attribute_error(records):
    for name, record in records.items():
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert not hasattr(record, "__dict__"), name


# name: (valid fields, a bad value)
_BAD = {
    "h_c=0": ({}, {"h_c": 0}),
    "euler_pmax=99": ({}, {"euler_pmax": 99}),
    "checkpoints-decrease": ({"limit": 10**4}, {"checkpoints": (100, 50)}),
    "checkpoints-repeat": ({"limit": 10**4}, {"checkpoints": (50, 50)}),
}


@pytest.mark.parametrize("good,bad", _BAD.values(), ids=list(_BAD))
def test_bad_values_are_refused_on_construction_and_replace(good, bad):
    record = RunConfig(**good)
    with pytest.raises(ValueError):
        RunConfig(**{**good, **bad})
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        RunConfig._make([bad.get(f, v) for f, v in zip(RunConfig._fields,
                                                        record)])


def test_density_bound_refuses_c_ln2_at_least_one():
    # The parameters are plain arguments, checked on every call.
    density_upper_bound(1.0, 1000)
    with pytest.raises(ValueError, match=r"^c\*ln\(2\) = 1\.039721 must be"):
        density_upper_bound(1.5, 1000)


def test_replace_keeps_the_type_and_the_other_fields():
    cfg = RunConfig(limit=10**4, h_c=1.5)
    new = cfg._replace(limit=10**5, checkpoints=(10, 100))
    assert type(new) is RunConfig
    assert new == RunConfig(limit=10**5, checkpoints=(10, 100), h_c=1.5)


# record: (golden file, the keys down to its list of records)
_PRINTED_IN = {
    "CountCheckpoint": ("table1.json", ["rows"]),
    "BoundsRow": ("table2.json", ["rows"]),
    "EstimateRow": ("table3.json", ["rows"]),
    "ReferenceCell": ("audit.json", ["cells"]),
    "CrossTableConflict": ("audit.json", ["conflicts"]),
    "InvariantCheck": ("check.json", ["invariants", "checks"]),
}


@pytest.mark.parametrize("record", sorted(_PRINTED_IN))
def test_asdict_keys_follow_the_golden_order(record, records):
    golden, path = _PRINTED_IN[record]
    doc = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    for key in path:
        doc = doc[key]
    assert list(records[record]._asdict()) == list(doc[0])


def test_every_record_is_printed_or_is_the_run_config():
    # AuditReport is the document that render_audit_json prints.
    assert _EXPORTED <= {"RunConfig", "AuditReport", *_PRINTED_IN}
