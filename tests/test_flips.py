import itertools

import pytest

from booltermorders import core, enumeration
from booltermorders.catalog import (
    coherence_isolated_six,
    five_facet_four,
    five_flippable_six,
    noncoherent_five,
)
from booltermorders.coherence import is_coherent, order_from_weight
from booltermorders.core import (
    DisjointPair,
    OrderError,
    TermOrder,
    canonicalize,
    mask_of,
    relabel,
)
from booltermorders.enumeration import enumerate_orders
from booltermorders.flips import (
    FlipError,
    deficient_extension,
    flip,
    flip_graph,
    flippable_pairs,
    lex_product,
    primitive_pairs,
    unit_order,
)
from oracles import relabel_image_table


def pair(l, r):
    return DisjointPair(mask_of(int(c) for c in l), mask_of(int(c) for c in r))


def test_example_pair_counts():
    order = noncoherent_five()
    assert len(primitive_pairs(order)) == 11
    assert len(flippable_pairs(order)) == 5


def test_five_facet_flippable_pairs():
    got = flippable_pairs(five_facet_four())
    expected = [
        pair("1", "2"),
        pair("2", "3"),
        pair("3", "12"),
        pair("23", "4"),
        pair("4", "123"),
    ]
    assert got == expected


def test_flip_involution():
    for order in enumerate_orders(4, mode="all"):
        for p in flippable_pairs(order):
            if p.left == 0:
                continue
            flipped = flip(order, p)
            assert flipped != order
            assert flip(flipped, p.reversed()) == order


def test_flip_preserves_other_comparisons():
    order = noncoherent_five()
    p = pair("4", "12")
    flipped = flip(order, p)
    rest = (1 << 5) - 1 & ~(p.left | p.right)
    for a in range(1 << 5):
        for b in range(1 << 5):
            if a & b:
                continue
            translate = {(p.left | l, p.right | l) for l in _submasks(rest)}
            if (a, b) in translate or (b, a) in translate:
                continue
            assert (order.rank[a] < order.rank[b]) == (
                flipped.rank[a] < flipped.rank[b]
            )


def _submasks(mask):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def test_flip_rejects_empty_left():
    order = noncoherent_five()
    with pytest.raises(FlipError):
        flip(order, DisjointPair(0, 1))


def test_flip_rejects_nonflippable():
    order = noncoherent_five()
    nonflippable = [
        p for p in primitive_pairs(order) if p not in flippable_pairs(order)
    ]
    with pytest.raises(FlipError):
        flip(order, nonflippable[0])


def test_flip_errors_follow_flippable_pairs():
    """Every disjoint pair: flippable ones flip, the rest raise as before."""
    orders = [o for n in (2, 3, 4) for o in enumerate_orders(n, mode="canonical")]
    orders.append(noncoherent_five())
    kinds = set()
    for order in orders:
        n = order.n
        flippable = set(flippable_pairs(order))
        primitive = set(primitive_pairs(order))
        for left in range(1 << (n + 1)):
            rest = ((1 << (n + 1)) - 1) & ~left
            for right in _submasks(rest):
                if left == right == 0:
                    continue
                p = DisjointPair(left, right)
                if left == 0:
                    with pytest.raises(FlipError, match="^cannot flip a pair with empty left"):
                        flip(order, p)
                    continue
                if p in flippable:
                    kinds.add("flippable")
                    assert flip(flip(order, p), p.reversed()) == order
                    continue
                kinds.add("primitive" if p in primitive else "other")
                with pytest.raises(FlipError) as err:
                    flip(order, p)
                assert str(err.value) == f"pair {p} is not flippable in this order"
    assert kinds == {"flippable", "primitive", "other"}


def test_flip_requires_a_valid_order():
    # {1,2} < {3} sit at consecutive ranks with no translates, but {2,3} < {1,3}
    invalid = TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7])
    with pytest.raises(OrderError):
        flip(invalid, DisjointPair(0b011, 0b100))


def test_primitive_pair_determination():
    """An order is determined by its primitive pairs (exhaustive, n <= 4)."""
    for n in (2, 3, 4):
        seen = {}
        for order in enumerate_orders(n, mode="all"):
            key = tuple(primitive_pairs(order))
            assert key not in seen, (order.chain, seen[key].chain)
            seen[key] = order


def test_lex_product_identity():
    order = noncoherent_five()
    assert lex_product(order, TermOrder(0, (0,))) == order


def test_lex_product_structure():
    product = lex_product(noncoherent_five(), unit_order())
    assert product == coherence_isolated_six()
    assert product.n == 6
    # the second factor's element 1 is the finest tie-break
    assert product.rank[0b000001] == 1


def test_deficient_extension_flip_counts():
    base = five_flippable_six()
    assert len(flippable_pairs(base)) == 5
    for n in (7, 8):
        ext = deficient_extension(base, n)
        assert len(flippable_pairs(ext)) == 5 + (n - 6)
        assert len(flippable_pairs(ext)) < n


def test_products_beyond_max_ground_are_refused_before_building(monkeypatch):
    # the size is checked before the 2^n chain is built, not by the order's shape
    lex9 = order_from_weight([1 << i for i in range(9)], 9)
    lex8 = order_from_weight([1 << i for i in range(8)], 8)

    def unreachable(*args):
        raise AssertionError("a chain beyond MAX_GROUND was built")

    monkeypatch.setattr(TermOrder, "from_chain", unreachable)
    too_big = rf"ground-set size must be in 0\.\.{core.MAX_GROUND}, got 17"
    with pytest.raises(ValueError, match=too_big):
        lex_product(lex9, lex8)
    with pytest.raises(ValueError, match=too_big):
        deficient_extension(lex8, 17)


def test_coherent_orders_have_at_least_n_flippable():
    for n, orders in ((3, None), (4, None)):
        for order in enumerate_orders(n, mode="canonical"):
            if is_coherent(order):
                assert len(flippable_pairs(order)) >= n


def test_flip_graph_small():
    g = flip_graph(4, mode="canonical")
    assert len(g.vertices) == 14
    assert g.is_connected()
    assert sum(g.degree_histogram().values()) == 14


def test_flip_graph_labeled_consistent():
    g = flip_graph(3, mode="labeled")
    assert len(g.vertices) == 12
    assert g.is_connected()


def test_flip_graph_labeled_refuses_n6_before_enumerating(monkeypatch):
    # n = 6 has 121,999,680 labeled orders; none may be listed
    def unreachable(*args, **kwargs):
        raise AssertionError("enumerate_orders reached")

    monkeypatch.setattr(enumeration, "enumerate_orders", unreachable)
    with pytest.raises(ValueError, match="labeled mode needs n <= 5, got 6"):
        flip_graph(6, mode="labeled")
    with pytest.raises(AssertionError, match="reached"):
        flip_graph(2, mode="labeled")


@pytest.mark.parametrize("n, edges", [(1, 0), (2, 0), (3, 1), (4, 21), (5, 1457)])
def test_flip_graph_matches_image_table_relabeling(n, edges):
    """The class flip graph, rebuilt with canonical forms taken through the
    image-table relabeling, has the same vertices and adjacency."""
    g = flip_graph(n, mode="canonical")
    assert g.vertices == list(enumerate_orders(n, mode="canonical"))
    index = {o.rank: i for i, o in enumerate(g.vertices)}
    adjacency = [set() for _ in g.vertices]
    for i, order in enumerate(g.vertices):
        for pair in flippable_pairs(order):
            if pair.left:
                moved = flip(order, pair)
                singles = sorted(range(n), key=lambda e: moved.rank[1 << e])
                j = index[relabel_image_table(moved, [singles.index(e) for e in range(n)]).rank]
                if j != i:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    assert g.adjacency == adjacency
    assert sum(map(len, adjacency)) // 2 == edges


def test_library_built_orders_are_scanned_once(monkeypatch):
    """A scan runs where an order enters, never on an order the library built."""
    scans = []
    validate = core.validate
    monkeypatch.setattr(core, "validate", lambda order: scans.append(order) or validate(order))
    flip_graph(5)
    assert len(scans) == 546  # the search's self-check, once per class
    scans.clear()
    order = next(itertools.islice(enumerate_orders(6, mode="canonical"), 40, None))
    moved = relabel(order, (3, 0, 5, 1, 4, 2))
    assert canonicalize(moved) == order
    for pair in flippable_pairs(moved):
        if pair.left:
            canonicalize(flip(moved, pair))
    weighted = order_from_weight((3, 5, 6, 7), 4)
    flippable_pairs(lex_product(weighted, unit_order()))
    flippable_pairs(deficient_extension(weighted, 6))
    assert scans == []
    entered = TermOrder(order.n, order.rank)
    flippable_pairs(entered)
    flippable_pairs(entered)
    assert scans == [entered]
