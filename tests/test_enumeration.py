import hashlib
import itertools
import math
import random

import pytest

from booltermorders.cli import main
from booltermorders.core import TermOrder, canonicalize
from booltermorders.enumeration import (
    _chains,
    _merge_leaves,
    count_orders,
    enumerate_orders,
)
from conftest import extended
from oracles import brute_force_orders, extension_chains_dict


def test_class_counts_small(canonical_orders):
    assert [len(canonical_orders[n]) for n in range(1, 6)] == [1, 1, 2, 14, 546]


def test_count_orders_totals(canonical_orders):
    # the leaf count agrees with the orders the search builds and checks
    for n in (1, 2, 3, 4, 5):
        result = count_orders(n)
        assert result.class_count == len(canonical_orders[n])
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
        got = list(itertools.islice(map(tuple, _merge_leaves(parent, 6)), wanted))
        assert got == list(itertools.islice(extension_chains_dict(parent, 6), wanted))
        wanted -= len(got)
        if not wanted:
            return


def test_bitset_search_matches_dict_oracle():
    """Chain for chain, in order: every extension for n <= 5, then n=6."""
    for n in range(2, 6):
        for parent in _chains(n - 1):
            got = list(map(tuple, _merge_leaves(parent, n)))
            assert got == list(extension_chains_dict(parent, n))
    _n6_prefix_matches_dict_oracle(500)


@extended
def test_bitset_search_matches_dict_oracle_n6():
    _n6_prefix_matches_dict_oracle(5000)


def test_count_orders_n6():
    assert count_orders(6).class_count == 169444


def test_n6_chain_stream_digest():
    """The half search yields the full search's 169444 n=6 chains, in order."""
    digest = hashlib.sha256()
    for chain in _chains(6):
        digest.update(bytes(chain))
    assert digest.hexdigest() == "32dd442c35eba0338c7a55da112cb1044a1c5bb22dec695dc7eeebc165061187"


@extended
def test_half_search_matches_dict_oracle_n7():
    """Chain for chain, in order, on a seeded sample of n=6 parents."""
    wanted = set(random.Random(7).sample(range(169444), 4))  # about 50 s each
    for k, parent in enumerate(_chains(6)):
        if k in wanted:
            got = list(map(tuple, _merge_leaves(parent, 7)))
            assert got == list(extension_chains_dict(parent, 7))
