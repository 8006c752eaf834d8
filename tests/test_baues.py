import itertools
import random

import pytest

from booltermorders.baues import (
    PartialTermOrder,
    _extreme_rays,
    _positive_rays,
    coherent_above_only_trivial,
    coherent_coarsenings_nontrivial,
    find_partial_weight,
    is_coherent_partial,
    parse_partial,
    refines,
    serialize_partial,
    validate_partial,
)
from booltermorders.catalog import (
    five_facet_four,
    noncoherent_five,
    rigid_noncoherent_six,
)
from booltermorders.coherence import (
    find_weight,
    is_coherent,
    order_from_weight,
)
from booltermorders.core import OrderError, ParseError, full_mask, submasks
from booltermorders.enumeration import enumerate_orders
from booltermorders.flips import deficient_extension, flip, flippable_pairs
from booltermorders.omatroid import mu_from_order, partial_order_from_signature
from conftest import extended
from oracles import (
    cone_is_zero_full_rows,
    difference_rows,
    extreme_rays_by_null_vectors,
    has_positive_cone_point,
    is_union_violation,
    validate_partial_quadruples,
)


def test_from_weight_groups_ties():
    p = PartialTermOrder.from_weight((1, 1))
    assert p.levels == [[0], [1, 2], [3]]
    assert not p.is_total()


def test_from_total_roundtrip():
    for order in enumerate_orders(3, mode="canonical"):
        p = PartialTermOrder.from_total(order)
        assert p.is_total()
        assert p.to_total() == order


def test_level_constraints():
    with pytest.raises(OrderError):
        PartialTermOrder(1, (1, 0))  # empty set not at the bottom
    with pytest.raises(OrderError):
        PartialTermOrder(1, (0, 2))  # gap in levels
    with pytest.raises(OrderError):
        PartialTermOrder(2, (0, 0, 1, 2))  # empty set shares its level


def test_validate_partial_routes_agree():
    # both validation routes agree on valid and invalid inputs
    good = PartialTermOrder.from_weight((1, 2, 4))
    assert validate_partial(good) and validate_partial_quadruples(good)
    tied = PartialTermOrder.from_weight((1, 1, 3))
    assert validate_partial(tied) and validate_partial_quadruples(tied)
    # {1}={1,2} tie without {-}={2} tie breaks the union axiom
    bad = PartialTermOrder(2, (0, 1, 2, 1))
    assert not validate_partial(bad)
    assert not validate_partial_quadruples(bad)
    # all 13 ordered partitions of the nonempty subsets of [2] above the empty set
    partitions = {
        (0,) + tuple(sorted(set(levels)).index(lvl) + 1 for lvl in levels)
        for levels in itertools.product(range(1, 4), repeat=3)
    }
    assert len(partitions) == 13
    for level in partitions:
        order = PartialTermOrder(2, level)
        report = validate_partial(order)
        assert report.ok == validate_partial_quadruples(order).ok
        assert len(report.violations) == (not report.ok)
        for triple in report.violations:
            assert is_union_violation(level, triple)
            assert level[triple[0]] <= level[triple[1]]


def test_refinement():
    total = PartialTermOrder.from_weight((1, 2, 4))
    coarse = PartialTermOrder.from_weight((1, 1, 3))
    trivial = PartialTermOrder.trivial(3)
    assert refines(total, coarse)
    assert refines(total, trivial)
    assert refines(coarse, trivial)
    assert not refines(coarse, total)


def test_partial_weight_roundtrip():
    p = PartialTermOrder.from_weight((2, 3, 3))
    w = find_partial_weight(p)
    assert w is not None
    assert PartialTermOrder.from_weight(w).level == p.level
    assert is_coherent_partial(p)


def test_partial_weight_of_total_orders():
    # a total order is the all-singleton partial order: same lex-min weight
    for order in enumerate_orders(4, mode="canonical"):
        assert find_partial_weight(PartialTermOrder.from_total(order)) == find_weight(order)
    assert find_partial_weight(PartialTermOrder.from_total(noncoherent_five())) is None


def test_trivial_partial_order_is_coherent():
    for n in range(4):
        trivial = PartialTermOrder.trivial(n)
        assert find_partial_weight(trivial) == (0,) * n
        assert is_coherent_partial(trivial)


def test_rigid_order_cone_is_trivial():
    rigid = rigid_noncoherent_six()
    for order in (rigid, deficient_extension(rigid, 7)):
        assert coherent_above_only_trivial(order)
        assert coherent_coarsenings_nontrivial(order) == []


def test_first_boundary_class_n6_is_rigid():
    # the cone is not {0}, but its only ray ties the empty set with {1},
    # {2} and {3}, so no partial term order lies above the class
    order = next(itertools.islice(enumerate_orders(6, mode="canonical"), 1434, None))
    rows = difference_rows(order)
    assert _extreme_rays(rows, 6) == [(0, 0, 0, 1, 1, 2)]
    assert not cone_is_zero_full_rows(rows, 6)
    assert coherent_above_only_trivial(order)
    assert coherent_coarsenings_nontrivial(order) == []


# the positive extreme rays of the cone, sorted
PINNED_COARSENINGS = {
    noncoherent_five: [(1, 1, 2, 2, 2), (2, 3, 4, 5, 6)],
    five_facet_four: [(1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 3), (1, 1, 2, 4)],
}

# the levels that maximizing signed coordinates over a box-cut cone reached
BOX_LP_COARSENINGS = {
    noncoherent_five: [
        [[0], [1, 2], [3, 4, 8, 16], [5, 6, 9, 10, 17, 18], [7, 11, 12, 19, 20, 24],
         [13, 14, 21, 22, 25, 26], [15, 23, 27, 28], [29, 30], [31]],
    ],
    five_facet_four: [
        [[0], [1, 2, 4], [3, 5, 6, 8], [7, 9, 10, 12], [11, 13, 14], [15]],
        [[0], [1, 2], [3, 4], [5, 6, 8], [7, 9, 10], [11, 12], [13, 14], [15]],
    ],
}


def test_nonrigid_orders_have_coarsenings():
    for make, pinned in PINNED_COARSENINGS.items():
        order = make()
        assert not coherent_above_only_trivial(order)
        found = coherent_coarsenings_nontrivial(order)
        assert [find_partial_weight(coarse) for coarse in found] == pinned
        assert [PartialTermOrder.from_weight(ray) for ray in pinned] == found
        levels = [coarse.levels for coarse in found]
        assert all(old in levels for old in BOX_LP_COARSENINGS[make])
        for coarse in found:
            assert refines(PartialTermOrder.from_total(order), coarse)


def check_coarsenings(order) -> int:
    """Each coarsening is coherent with its ray as lex-min weight, refined
    by the order, and rebuilt from its signature; the rays are sorted, and
    there is none exactly when the cone is {0} (for n <= 5; not at n = 6).
    The rays are those of the cone cut by the difference rows alone."""
    rows = difference_rows(order)
    rays = _positive_rays(order)
    assert rays == [ray for ray in _extreme_rays(rows, order.n) if all(ray)]
    found = coherent_coarsenings_nontrivial(order)
    weights = [find_partial_weight(coarse) for coarse in found]
    assert None not in weights and weights == sorted(weights) == rays
    fine = PartialTermOrder.from_total(order)
    for coarse in found:
        assert refines(fine, coarse) and coarse.num_levels > 1
        assert partial_order_from_signature(mu_from_order(coarse)) == coarse
    assert coherent_above_only_trivial(order) == (not found)
    assert (not found) == cone_is_zero_full_rows(rows, order.n)
    return len(found)


def test_coherent_coarsenings_never_raise(canonical_orders):
    assert check_coarsenings(order_from_weight((1, 2, 4), 3)) == 1
    totals = [sum(map(check_coarsenings, canonical_orders[n])) for n in range(1, 6)]
    assert totals == [1, 1, 3, 38, 2444]


def check_rays_by_null_vectors(orders) -> int:
    total = 0
    for order in orders:
        rows = difference_rows(order)
        rays = _extreme_rays(rows, order.n)
        assert rays == extreme_rays_by_null_vectors(rows, order.n)
        total += sum(all(ray) for ray in rays)
    return total


def test_extreme_rays_match_null_vector_oracle(canonical_orders):
    orders = [order for n in range(1, 5) for order in canonical_orders[n]]
    assert check_rays_by_null_vectors(orders) == 1 + 1 + 3 + 38
    check_rays_by_null_vectors(random.Random(13).sample(canonical_orders[5], 25))


@extended
def test_extreme_rays_match_null_vector_oracle_n5(canonical_orders):
    assert check_rays_by_null_vectors(canonical_orders[5]) == 2444


@extended
def test_positive_rays_match_farkas_oracle_n6():
    total = no_ray = zero_cone = 0
    for order in enumerate_orders(6, mode="canonical"):
        rows = difference_rows(order)
        rays = [ray for ray in _extreme_rays(rows, 6) if all(ray)]
        assert _positive_rays(order) == rays
        assert bool(rays) == has_positive_cone_point(list(dict.fromkeys(map(tuple, rows))))
        total += len(rays)
        if not rays:
            no_ray += 1
            zero_cone += cone_is_zero_full_rows(rows, 6)
    assert (no_ray, zero_cone, total) == (8340, 5202, 965992)


def walls(order):
    """Each flippable pair with a nonempty left side, with the partial order
    that merges every translate of the pair into one level: the facet
    between the order and its flip."""
    for pair in flippable_pairs(order):
        if not pair.left:
            continue
        rest = full_mask(order.n) & ~(pair.left | pair.right)
        upper = {order.rank[pair.right | l] for l in submasks(rest)}
        merged = list(itertools.accumulate(r in upper for r in range(len(order.rank))))
        yield pair, PartialTermOrder(order.n, tuple(r - merged[r] for r in order.rank))


def check_walls(orders) -> int:
    # a wall is coherent iff the two chambers it separates are
    count = 0
    for order in orders:
        for pair, wall in walls(order):
            count += 1
            weight = find_partial_weight(wall)
            assert (weight is not None) == (is_coherent(order) and is_coherent(flip(order, pair)))
    return count


def test_walls_are_coherent_iff_both_sides_are(canonical_orders):
    assert check_walls(canonical_orders[3] + canonical_orders[4]) == 62


@extended
def test_walls_are_coherent_iff_both_sides_are_n5(canonical_orders):
    assert check_walls(canonical_orders[5]) == 3162


def test_parse_serialize_roundtrip():
    p = PartialTermOrder.from_weight((1, 1, 3))
    assert parse_partial(serialize_partial(p)).level == p.level


def test_parse_partial_rejects_invalid():
    with pytest.raises(ParseError):
        parse_partial("n=2\n-\n1\n2=1,2\n")  # {2}={1,2} without {-}={1}
    with pytest.raises(ParseError):
        parse_partial("n=2\n-\n1\n2\n")  # missing subset
