import itertools
import math

import pytest

from booltermorders.cli import main
from booltermorders.core import TermOrder, canonicalize
from booltermorders.enumeration import (
    _chains,
    _extension_chains,
    count_orders,
    enumerate_orders,
)
from conftest import extended
from oracles import brute_force_orders, extension_chains_dict


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


def _n6_prefix_matches_dict_oracle(wanted):
    for parent in _chains(5):
        got = list(itertools.islice(_extension_chains(parent, 6), wanted))
        assert got == list(itertools.islice(extension_chains_dict(parent, 6), wanted))
        wanted -= len(got)
        if not wanted:
            return


def test_bitset_search_matches_dict_oracle():
    """Chain for chain, in order: every extension for n <= 5, then n=6."""
    for n in range(2, 6):
        for parent in _chains(n - 1):
            got = list(_extension_chains(parent, n))
            assert got == list(extension_chains_dict(parent, n))
    _n6_prefix_matches_dict_oracle(500)


@extended
def test_bitset_search_matches_dict_oracle_n6():
    _n6_prefix_matches_dict_oracle(5000)


def test_count_orders_n6():
    assert count_orders(6).class_count == 169444
