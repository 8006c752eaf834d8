import math

import pytest

from booltermorders.cli import main
from booltermorders.core import TermOrder, canonicalize
from booltermorders.enumeration import count_orders, enumerate_orders
from oracles import brute_force_orders


def test_class_counts_small(canonical_orders):
    assert [len(canonical_orders[n]) for n in range(1, 6)] == [1, 1, 2, 14, 546]


def test_count_orders_totals():
    for n in (1, 2, 3, 4):
        result = count_orders(n)
        assert result.total_count == result.class_count * math.factorial(n)


def test_enumeration_matches_brute_force_n3():
    enumerated = {o.rank for o in enumerate_orders(3, mode="all")}
    brute = {o.rank for o in brute_force_orders(3)}
    assert enumerated == brute
    assert len(enumerated) == 12


def test_all_mode_size():
    for n in (2, 3, 4):
        alls = list(enumerate_orders(n, mode="all"))
        classes = list(enumerate_orders(n, mode="canonical"))
        assert len(alls) == len(classes) * math.factorial(n)
        assert len({o.rank for o in alls}) == len(alls)


def test_canonical_mode_emits_canonical_forms():
    for order in enumerate_orders(4, mode="canonical"):
        assert canonicalize(order) == order


def test_unknown_mode():
    with pytest.raises(ValueError):
        list(enumerate_orders(3, mode="bogus"))


def test_empty_ground_set(capsys):
    for mode in ("all", "canonical"):
        assert list(enumerate_orders(0, mode=mode)) == [TermOrder(0, (0,))]
    result = count_orders(0)
    assert (result.class_count, result.total_count) == (1, 1)
    assert main(["enumerate", "--n", "0", "--count-only"]) == 0
    assert capsys.readouterr().out == "classes=1 total=1\n"
