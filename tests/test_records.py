"""The record contract: every record is a named tuple that checks its
fields on construction and on _replace, is immutable, and survives
pickle and copy; the package's oracle names load on first use."""

import copy
import math
import pickle
import sys

import pytest

import photonstat
from photonstat import (
    CriteriaReport,
    CutoffPolicy,
    DegenerateA3,
    ModKind,
    MomentLadder,
    Ordering,
    StateModification,
    build_fock,
    build_thermal,
    evaluate_all,
    normal_ladder,
)


def _records():
    """One instance of each of the nine records."""
    dist = build_thermal(1.0)
    report = photonstat.equivalence_suite(states=(("thermal", 1.0),))
    return [
        CutoffPolicy(eps_tail=1e-9),
        dist,
        StateModification.add(2),
        normal_ladder(dist, 4),
        DegenerateA3(0.0, 1e-20),
        evaluate_all(dist, StateModification.add(1)),
        photonstat.oracle_add(dist, 1),
        report.cells[0],
        report,
    ]


# (a valid record, the field to spoil, a bad value, the message)
BAD_VALUES = [
    (CutoffPolicy(), "eps_tail", 0.0, "eps_tail must be positive"),
    (CutoffPolicy(), "rel_tol", math.nan, "rel_tol must be positive"),
    (CutoffPolicy(), "max_cutoff", 0, "max_cutoff must be at least 1"),
    (CutoffPolicy(), "max_moment_order", -1,
     "max_moment_order must be nonnegative"),
    (CutoffPolicy(), "max_cutoff", sys.maxsize + 1,
     f"max_cutoff must not exceed {sys.maxsize}"),
    (build_fock(1), "probs", [], "probs must be nonempty"),
    (build_fock(1), "probs", [[1.0]],
     "probs must be a 1-d sequence of numbers"),
    (build_fock(1), "probs", [0.5, -0.1],
     "probabilities must be finite and nonnegative"),
    (build_fock(1), "tail_bound", 1.0, "tail_bound must lie in [0, 1)"),
    (StateModification.add(1), "count", -1,
     "count must be a nonnegative integer"),
    (StateModification.add(1), "count", 1.0,
     "count must be a nonnegative integer"),
    (MomentLadder([1.0, 1.0], Ordering.NORMAL, build_fock(1)), "values",
     ["x"], "could not convert string to float: 'x'"),
    (CutoffPolicy(), "max_cutoff", 100.5, "max_cutoff must be an integer"),
    (CutoffPolicy(), "max_cutoff", True, "max_cutoff must be an integer"),
    (CutoffPolicy(), "max_moment_order", 12.5,
     "max_moment_order must be an integer"),
    (CutoffPolicy(), "max_moment_order", False,
     "max_moment_order must be an integer"),
]


@pytest.mark.parametrize("record,field,bad,message", BAD_VALUES)
def test_constructor_and_replace_reject_alike(record, field, bad, message):
    fields = record._asdict()
    fields[field] = bad
    with pytest.raises(ValueError) as built:
        type(record)(**fields)
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: bad})
    assert str(built.value) == str(replaced.value) == message


def test_replace_converts_like_the_constructor():
    dist = build_fock(1)._replace(probs=[0.25, 0.75])
    assert isinstance(dist.probs, memoryview) and dist.probs.readonly
    ladder = normal_ladder(dist, 2)._replace(values=[1, 2])
    assert ladder.values == (1.0, 2.0) and ladder.values[1] == 2.0


@pytest.mark.parametrize("record", _records()[:-1],
                         ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.undeclared = None


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_round_trip_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record


def test_records_compare_as_tuples():
    assert StateModification.add(1) == (ModKind.ADD, 1)
    assert CutoffPolicy()._asdict() == {
        "eps_tail": 1e-12, "rel_tol": 1e-10, "max_cutoff": 4096,
        "max_moment_order": 12}


def test_criteria_report_maps_are_not_shared():
    first = CriteriaReport(math.nan, math.nan)
    second = CriteriaReport(math.nan, math.nan)
    assert first.lee_dh == {} and first.lee_dh is not second.lee_dh
    assert first.q_ell_normal is not first.q_ell_central


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from photonstat import *", namespace)
    assert set(photonstat.__all__) <= set(namespace)


def test_oracle_names_resolve_on_each_access():
    from photonstat import oracle

    assert photonstat.equivalence_suite is oracle.equivalence_suite
    # not cached in the package, so a patched oracle is seen at once
    assert "equivalence_suite" not in vars(photonstat)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        photonstat.nonexistent
