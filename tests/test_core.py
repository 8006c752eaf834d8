import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import booltermorders

from booltermorders.core import (
    DisjointPair,
    OrderError,
    ParseError,
    TermOrder,
    _gather,
    _subset_names,
    canonicalize,
    complement,
    elements,
    format_subset,
    full_mask,
    is_valid,
    mask_of,
    parse_order,
    read_levels,
    relabel,
    serialize_order,
    union_violation,
    validate,
)
from booltermorders.enumeration import enumerate_orders
from oracles import (
    canonicalize_brute_force,
    first_violation_list_scan,
    is_canonical,
    is_union_violation,
    is_valid_all_gammas,
    read_levels_scan,
    reduced_pair,
    relabel_image_table,
)


def lex_order(n):
    # the order of weights 1, 2, 4, ...: subsets by numeric mask
    return TermOrder.from_chain(n, range(1 << n))


def test_from_chain_roundtrip():
    order = lex_order(3)
    assert order.chain == tuple(range(8))
    assert order.rank[0] == 0


def test_invalid_chain_rejected():
    assert not validate(TermOrder.from_chain(2, [1, 0, 2, 3]))  # empty set not minimal
    assert validate(TermOrder(2, (0, 1, 1, 3))).structural  # not a permutation
    with pytest.raises(OrderError):
        TermOrder(2, (0, 1, 2))  # wrong length


def test_from_chain_refuses_a_chain_that_is_not_a_permutation():
    # -1 would index mask 3, and 5 lies past the end of the rank array
    for chain in ([0, 1, 2, -1], [0, 1, 2, 5], [0, 1, 1, 3]):
        with pytest.raises(OrderError, match="not a permutation"):
            TermOrder.from_chain(2, chain)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_from_chain_refuses_exactly_what_sorted_refuses(n):
    # every sequence of length 2^n over -1..2^n + 1: 4, 25 and 2401 of them
    size = 1 << n
    for seq in itertools.product(range(-1, size + 2), repeat=size):
        if sorted(seq) == list(range(size)):
            assert TermOrder.from_chain(n, seq).chain == seq
        else:
            with pytest.raises(OrderError, match="not a permutation"):
                TermOrder.from_chain(n, seq)


def test_validate_catches_union_violation():
    # swap {1,3} and {2,3}: then 1 < 2 but 2,3 < 1,3
    chain = [0b000, 0b001, 0b010, 0b011, 0b100, 0b110, 0b101, 0b111]
    order = TermOrder.from_chain(3, chain)
    report = validate(order)
    assert not report
    [triple] = report.violations
    assert is_union_violation(order.rank, triple)
    assert order.rank[triple[0]] < order.rank[triple[1]]
    assert not is_valid(order)


def test_union_axiom_exhaustive_n3():
    for order in enumerate_orders(3, mode="all"):
        rank = order.rank
        fm = full_mask(3)
        for a in range(8):
            for b in range(8):
                if a & b:
                    continue
                g = fm & ~(a | b)
                s = g
                while True:
                    assert (rank[a] < rank[b]) == (rank[a | s] < rank[b | s])
                    if s == 0:
                        break
                    s = (s - 1) & g


def test_is_valid_matches_oracles_on_every_n3_chain():
    """All 7! chains with the empty set first: singleton check = all gammas = validate."""
    found = 0
    for perm in itertools.permutations(range(1, 8)):
        order = TermOrder.from_chain(3, (0,) + perm)
        valid = is_valid(order)
        report = validate(order)
        assert valid == is_valid_all_gammas(order) == report.ok
        assert len(report.violations) == (not valid)
        for triple in report.violations:
            assert is_union_violation(order.rank, triple)
            assert order.rank[triple[0]] < order.rank[triple[1]]
        found += valid
    assert found == 12


@pytest.mark.parametrize("n", [8, 9])  # the last byte scan, the first list scan
def test_lex_orders_at_the_byte_boundary(n):
    size = 1 << n
    chain = list(range(size))
    swapped = {
        "neighbours": (3, 4),  # {1,2} above {3}, but {1,2,4} below {3,4}
        "middle": (size // 2 - 1, size // 2),  # [n-1] and {n}, complements
        # [n-2] and {n-1}: each element but n lies in one of them, so only
        # the scan for n sees the swap
        "last": (size // 4 - 1, size // 4),
    }
    orders = [lex_order(n)]
    for i, j in swapped.values():
        moved = chain[:]
        moved[i], moved[j] = moved[j], moved[i]
        orders.append(TermOrder.from_chain(n, moved))
    verdicts = []
    for order in orders:
        expected = first_violation_list_scan(order.rank, order.rank, order.chain, n)
        report = validate(order)
        assert report.violations == ([] if expected is None else [expected])
        assert union_violation(order.rank, n) == expected
        assert is_valid(order) == report.ok == is_valid_all_gammas(order)
        verdicts.append(report.ok)
    assert verdicts == [True, False, True, False]
    assert is_union_violation(orders[1].rank, validate(orders[1]).violations[0])


def test_import_builds_no_byte_tables():
    """Importing fills none of the per-n caches: scan tables, gathers, name tables."""
    src = Path(booltermorders.__file__).parents[1]
    code = (
        "import booltermorders\n"
        "from booltermorders import core\n"
        "for cache in (core._byte_tables, core._gather, core._subset_names):\n"
        "    print(cache.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=src,
    )
    assert out.stdout.split() == ["0", "0", "0"]


def test_subset_names_match_format_subset():
    for n in range(11):
        assert _subset_names(n) == {format_subset(m): m for m in range(1 << n)}


def test_n9_relabel_and_read_add_no_cache_entry():
    # above n = 8 the gather and the name table are built per call, as before
    order = lex_order(9)
    before = (_gather.cache_info(), _subset_names.cache_info())
    moved = relabel(order, [8, 0, 1, 2, 3, 4, 5, 6, 7])
    assert parse_order(serialize_order(moved)) == moved
    assert moved.rank[1 << 8] == order.rank[1]
    assert (_gather.cache_info(), _subset_names.cache_info()) == before


def test_relabel_gathers_through_one_cached_table():
    order = TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7])  # invalid, relabeled all the same
    expected = relabel_image_table(order, [2, 0, 1])
    assert relabel(order, [2, 0, 1]) == expected
    hits = _gather.cache_info().hits
    assert relabel(order, (2, 0, 1)) == expected  # a list and a tuple share one entry
    assert relabel(lex_order(3), (2, 0, 1)) == relabel_image_table(lex_order(3), (2, 0, 1))
    assert _gather.cache_info().hits == hits + 2


def test_shared_name_table_survives_other_spellings_and_errors():
    names = _subset_names(6)
    lines = serialize_order(lex_order(6)).splitlines()
    for old, spelling, message in [
        ("1", "01", None),
        ("1,2", " 1 , 2 ", None),
        ("1,2", "1,02", None),
        ("1,2", "1", "line 5: duplicate subset '1'"),
        ("1,2", "1,7", "line 5: element 7 out of range 1..6"),
        ("1,2", "0", "line 5: element 0 out of range 1..6"),
        ("1,2", "-1", "line 5: element -1 out of range 1..6"),
        ("1,2", "2,0", "line 5: element 0 out of range 1..6"),
        ("1,2", "2,1", "line 5: elements must be strictly increasing in '2,1'"),
    ]:
        at = lines.index(old)
        text = "\n".join(lines[:at] + [spelling] + lines[at + 1 :])
        if message is None:
            assert read_levels(text) == read_levels_scan(text) == (6, lex_order(6).rank)
            continue
        for read in (read_levels, read_levels_scan):
            with pytest.raises(ParseError) as info:
                read(text)
            assert str(info.value) == message
    assert _subset_names(6) is names
    assert names == {format_subset(m): m for m in range(1 << 6)}


def test_n16_file_round_trips():
    chain = list(range(1 << 16))
    chain[3], chain[4] = chain[4], chain[3]
    order = TermOrder.from_chain(16, chain)
    assert parse_order(serialize_order(order)) == order


def test_is_valid_rejects_bad_rank_arrays():
    assert not is_valid(TermOrder(2, (0, 1, 1, 3)))  # not a permutation
    assert not is_valid(TermOrder.from_chain(2, [1, 0, 2, 3]))  # empty set not first
    assert is_valid(TermOrder(0, (0,)))


def test_validity_memo_is_invisible():
    for valid, order in [
        (True, TermOrder.from_chain(3, [0, 1, 2, 3, 4, 5, 6, 7])),
        (False, TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7])),
    ]:
        twin = TermOrder(order.n, order.rank)
        before = (hash(order), repr(order))
        assert is_valid(order) is valid
        assert (hash(order), repr(order)) == before == (hash(twin), repr(twin))
        assert order == twin and twin == order
        assert is_valid(order) is valid  # from the memo


def test_relabel_carries_no_validity():
    invalid = TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7])
    assert not is_valid(invalid)
    for perm in itertools.permutations(range(3)):
        moved = relabel(invalid, perm)
        assert not is_valid(moved)
        assert not is_valid_all_gammas(moved)


def test_relabel_moves_elements():
    order = next(enumerate_orders(4, mode="canonical"))
    for perm in itertools.permutations(range(4)):
        moved = relabel(order, perm)
        for mask in range(16):
            image = mask_of(perm[e - 1] + 1 for e in elements(mask))
            assert moved.rank[image] == order.rank[mask]


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 1],  # a repeated position
        [0, 1, 2, 3],  # one position too many
        [0, 1],  # one position too few
        [3, 1, 0],  # a position outside 0..2
    ],
)
def test_relabel_rejects_non_permutations(perm):
    relabel(lex_order(2), [0, 1])  # checked and cached as a permutation for n = 2, not for n = 3
    order = lex_order(3)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=r"perm must be a permutation of 0\.\.2, got "):
            relabel(order, perm)


def test_complement_duality():
    for n in (2, 3, 4):
        for order in enumerate_orders(n, mode="canonical"):
            top = (1 << n) - 1
            for mask in range(1 << n):
                assert order.rank[mask] + order.rank[complement(mask, n)] == top


def test_disjoint_pair_invariants():
    with pytest.raises(ValueError):
        DisjointPair(0b011, 0b010)
    with pytest.raises(ValueError):
        DisjointPair(0, 0)
    assert str(DisjointPair(0b1000, 0b0011)) == "4 < 1,2"
    with pytest.raises(ValueError, match="nonnegative"):
        DisjointPair(-2, 1)  # once accepted, then str() spun forever


def test_negative_masks_are_rejected():
    with pytest.raises(ValueError, match="negative mask"):
        elements(-1)
    with pytest.raises(ValueError, match="negative mask"):
        format_subset(-1)


def test_reduced_pair():
    assert reduced_pair(0b0111, 0b1101) == (0b0010, 0b1000)


def test_canonicalize_matches_brute_force():
    for n in (2, 3, 4):
        for order in enumerate_orders(n, mode="all"):
            assert canonicalize(order) == canonicalize_brute_force(order)


def test_canonical_orbit():
    order = next(enumerate_orders(4, mode="canonical"))
    assert is_canonical(order)
    for perm in itertools.permutations(range(4)):
        assert canonicalize(relabel(order, perm)) == order


def test_parse_serialize_roundtrip():
    for order in enumerate_orders(3, mode="canonical"):
        assert parse_order(serialize_order(order)) == order


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_order("n=2\n-\n1\n2\n")  # missing 1,2
    with pytest.raises(ParseError):
        parse_order("")
    with pytest.raises(ParseError):
        parse_order("n=2\n-\n1\n3\n1,2\n")  # element out of range


def test_parse_without_header():
    text = "-\n1\n2\n1,2\n"
    order = parse_order(text)
    assert order.n == 2
    assert order.chain == (0, 1, 2, 3)


def test_mask_of():
    assert mask_of([1, 3]) == 0b101
