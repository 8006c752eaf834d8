"""The library's records behave as the ``dataclasses`` they replace.

Each record is checked against a twin built by ``dataclasses`` from the
same fields, with the same frozen flag: repr, ==, !=, hash (or
unhashability), refused assignment and deletion, copy, pickle and keyword
construction.  The twins live here only; the library imports no
``dataclasses``.
"""

import copy
import dataclasses
import inspect
import pickle
from unittest.mock import ANY

import pytest
from hypothesis import given
from hypothesis import strategies as st

from booltermorders.arrangement import CharPoly
from booltermorders.baues import PartialTermOrder
from booltermorders.coherence import Certificate, CertificateCheck
from booltermorders.core import DisjointPair, TermOrder, ValidationReport, is_valid, validate
from booltermorders.enumeration import EnumerationResult
from booltermorders.flips import FlipGraph
from booltermorders.omatroid import LocalizationReport, MuReport

ints = st.integers(-3, 3)
maybe_tuple = st.none() | st.tuples(ints, ints)
pairs = st.tuples(st.integers(0, 15), st.integers(0, 15)).map(
    lambda ab: (ab[0] & ~ab[1], ab[1])).filter(any).map(lambda ab: DisjointPair(*ab))
term_orders = st.integers(0, 3).flatmap(
    lambda n: st.permutations(range(1 << n)).map(lambda rank: TermOrder(n, rank)))
partial_orders = st.lists(st.integers(1, 3), max_size=3).map(PartialTermOrder.from_weight)

# record class -> (frozen, strategy of keyword arguments)
RECORDS = {
    DisjointPair: (True, pairs.map(lambda p: {"left": p.left, "right": p.right})),
    TermOrder: (True, term_orders.map(lambda o: {"n": o.n, "rank": o.rank})),
    ValidationReport: (False, st.fixed_dictionaries({
        "ok": st.booleans(),
        "structural": st.lists(st.sampled_from(["gap", "tie"]), max_size=1),
        "violations": st.lists(st.tuples(ints, ints, ints), max_size=1),
    })),
    Certificate: (True, st.lists(st.tuples(pairs, st.integers(1, 3)), max_size=3).map(
        lambda used: {"pairs": tuple(p for p, _ in used),
                      "multiplicities": tuple(m for _, m in used)})),
    CertificateCheck: (True, st.fixed_dictionaries(
        {"ok": st.booleans(), "reason": st.sampled_from(["", "no pairs"])})),
    PartialTermOrder: (True, partial_orders.map(lambda o: {"n": o.n, "level": o.level})),
    CharPoly: (True, st.lists(ints, min_size=1, max_size=4).map(
        lambda c: {"coefficients": tuple(c)})),
    EnumerationResult: (True, st.fixed_dictionaries(
        {"n": st.integers(0, 7), "class_count": st.integers(0, 9)})),
    FlipGraph: (False, st.fixed_dictionaries({
        "n": st.integers(0, 3),
        "mode": st.sampled_from(["classes", "labeled"]),
        "vertices": st.lists(term_orders, max_size=2),
        "adjacency": st.lists(st.sets(st.integers(0, 2), max_size=2), max_size=2),
    })),
    LocalizationReport: (False, st.fixed_dictionaries(
        {"ok": st.booleans(), "witness": maybe_tuple})),
    MuReport: (False, st.fixed_dictionaries({
        "ok": st.booleans(),
        "failed_condition": st.none() | st.sampled_from([2, 3]),
        "witness": maybe_tuple,
    })),
}

TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=frozen)
    for cls, (frozen, _) in RECORDS.items()
}


def both(cls, kwargs):
    """The record and its dataclass twin, each built from ``kwargs``."""
    record = cls(**kwargs)
    return record, TWINS[cls](**{name: getattr(record, name) for name in cls._fields})


def _args(cls):
    return list(inspect.signature(cls).parameters.values())


def test_init_parameters_are_the_fields_in_order():
    for cls in RECORDS:
        assert [p.name for p in _args(cls)] == list(cls._fields), cls


def test_defaults_match_the_dataclasses_they_replace():
    assert ValidationReport(True) == ValidationReport(True, [], [])
    assert ValidationReport(True).structural is not ValidationReport(True).structural
    assert ValidationReport(True).violations is not ValidationReport(True).violations
    assert CertificateCheck(True) == CertificateCheck(True, "")
    assert LocalizationReport(False) == LocalizationReport(False, None)
    assert MuReport(False) == MuReport(False, None, None)
    defaulted = {cls: [p.name for p in _args(cls) if p.default is not p.empty]
                 for cls in RECORDS}
    assert {cls: names for cls, names in defaulted.items() if names} == {
        ValidationReport: ["structural", "violations"],
        CertificateCheck: ["reason"],
        LocalizationReport: ["witness"],
        MuReport: ["failed_condition", "witness"],
    }


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    frozen, kwargs_strategy = RECORDS[cls]
    others = [(c, k) for c, (_, k) in RECORDS.items() if c is not cls]

    @given(kwargs_strategy, kwargs_strategy, st.sampled_from(others).flatmap(
        lambda other: st.tuples(st.just(other[0]), other[1])))
    def check(kwargs, kwargs2, other):
        record, twin = both(cls, kwargs)
        same, same_twin = both(cls, kwargs)
        record2, twin2 = both(cls, kwargs2)
        foreign, foreign_twin = both(*other)
        values = tuple(kwargs[name] for name in cls._fields)
        assert repr(record) == repr(twin)
        assert record == same and record is not same
        assert record != foreign and record != values
        for right, twin_right in [
            (same, same_twin), (record2, twin2), (foreign, foreign_twin), (values, values),
            (ANY, ANY),  # equal to anything, once the record's __eq__ says NotImplemented
        ]:
            assert (record == right, record != right) == (twin == twin_right, twin != twin_right)
        if frozen:
            assert hash(record) == hash(twin) == hash(same)
            for obj in (record, twin):
                for name in cls._fields:
                    with pytest.raises(AttributeError):
                        setattr(obj, name, 0)
                    with pytest.raises(AttributeError):
                        delattr(obj, name)
            assert repr(record) == repr(twin)
        else:
            for obj in (record, twin):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(obj)
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and clone == record and repr(clone) == repr(twin)
            if frozen:
                assert hash(clone) == hash(record)
        assert cls(*values) == record

    check()


def test_total_and_partial_order_with_the_same_data_stay_unequal():
    total = TermOrder(2, (0, 1, 2, 3))
    partial = PartialTermOrder(2, (0, 1, 2, 3))
    assert total.level == partial.level
    assert total != partial and partial != total
    assert not total == partial


def test_the_validity_memo_stays_out_of_equality_hash_repr():
    order = TermOrder(2, (0, 1, 2, 3))
    fresh = TermOrder(2, (0, 1, 2, 3))
    assert is_valid(order) and "_valid" in vars(order) and "_valid" not in vars(fresh)
    assert order == fresh and hash(order) == hash(fresh) and repr(order) == repr(fresh)
    assert pickle.loads(pickle.dumps(order)).__dict__ == order.__dict__


def test_passing_validation_report_has_an_empty_reason():
    report = validate(TermOrder(2, (0, 1, 2, 3)))
    assert report.ok and report.reason == ""
    assert ValidationReport(True).reason == ""
    assert ValidationReport(False, ["gap"]).reason == "gap"
