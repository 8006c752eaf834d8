import random
from fractions import Fraction

import pytest

from booltermorders.baues import (
    PartialTermOrder,
    coherent_above_only_trivial,
    find_partial_weight,
)
from booltermorders.catalog import (
    coherence_isolated_six,
    coherence_isolated_six_certificate,
    five_facet_four,
    noncoherent_five,
    noncoherent_five_certificate,
)
from booltermorders.coherence import (
    Certificate,
    _constraints,
    _difference_rows,
    CoherentOrderError,
    TieError,
    find_weight,
    is_coherent,
    noncoherence_certificate,
    order_from_weight,
    verify_certificate,
)
from booltermorders.core import DisjointPair, parse_order, relabel
from booltermorders.enumeration import enumerate_orders
from booltermorders import lp
from oracles import (
    certificate_full_rows,
    has_positive_cone_point,
    lex_min_weight_full_rows,
)


def test_constraints_of_total_orders(canonical_orders):
    # a total order's program: the distinct consecutive steps and w_i, each
    # >= 1 and kept at its first occurrence; no tie rows
    for orders in canonical_orders.values():
        for order in orders:
            n, chain = order.n, order.chain
            steps = [
                tuple(((b >> i) & 1) - ((a >> i) & 1) for i in range(n))
                for a, b in zip(chain, chain[1:])
            ]
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            rows = [list(row) for row in dict.fromkeys(steps + units)]
            assert _constraints(order) == (rows, [1] * len(rows))


def assert_matches_full_rows(order):
    """Distinct comparisons decide, weigh and certify as every row does."""
    weight = lex_min_weight_full_rows(order)
    if isinstance(order, PartialTermOrder):
        assert find_partial_weight(order) == weight
        return
    assert is_coherent(order) == (weight is not None)
    assert find_weight(order) == weight
    if weight is None:
        assert noncoherence_certificate(order) == certificate_full_rows(order)
    assert coherent_above_only_trivial(order) != has_positive_cone_point(
        _difference_rows(order)
    )


def test_distinct_comparisons_match_full_rows(canonical_orders):
    rng = random.Random(20261018)
    for orders in canonical_orders.values():
        for order in orders:
            assert_matches_full_rows(order)
    for _ in range(40):
        order = rng.choice(canonical_orders[rng.randint(2, 5)])
        assert_matches_full_rows(relabel(order, rng.sample(range(order.n), order.n)))
    for n in range(1, 6):
        for _ in range(20):
            weights = [rng.randint(1, 4) for _ in range(n)]
            assert_matches_full_rows(PartialTermOrder.from_weight(weights))


def test_order_from_weight_basic():
    order = order_from_weight((1, 2, 4), 3)
    assert order.chain == (0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111)


def test_order_from_weight_tie():
    with pytest.raises(TieError):
        order_from_weight((1, 2, 3), 3)


def test_find_weight_roundtrip():
    for order in enumerate_orders(4, mode="canonical"):
        w = find_weight(order)
        assert w is not None
        assert order_from_weight(w, 4) == order


def test_find_weight_deterministic():
    order = order_from_weight((7, 10, 16, 20, 22), 5)
    assert find_weight(order) == find_weight(order)


# find_weight on every canonical class for n <= 4, keyed by chain.  The
# lexicographic minimum of the weight polytope is unique, so every exact
# way of computing it must give these vectors.
PINNED_WEIGHTS = {
    (0, 1): (1,),
    (0, 1, 2, 3): (1, 2),
    (0, 1, 2, 3, 4, 5, 6, 7): (1, 2, 4),
    (0, 1, 2, 4, 3, 5, 6, 7): (2, 3, 4),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15): (1, 2, 4, 8),
    (0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15): (2, 3, 6, 10),
    (0, 1, 2, 3, 4, 5, 8, 6, 9, 7, 10, 11, 12, 13, 14, 15): (2, 4, 7, 10),
    (0, 1, 2, 3, 4, 5, 8, 9, 6, 7, 10, 11, 12, 13, 14, 15): (1, 4, 6, 8),
    (0, 1, 2, 3, 4, 8, 5, 6, 9, 10, 7, 11, 12, 13, 14, 15): (3, 4, 8, 10),
    (0, 1, 2, 3, 4, 8, 5, 9, 6, 10, 7, 11, 12, 13, 14, 15): (2, 4, 7, 8),
    (0, 1, 2, 4, 3, 5, 6, 7, 8, 9, 10, 12, 11, 13, 14, 15): (2, 3, 4, 10),
    (0, 1, 2, 4, 3, 5, 6, 8, 7, 9, 10, 12, 11, 13, 14, 15): (2, 3, 4, 8),
    (0, 1, 2, 4, 3, 5, 8, 6, 9, 7, 10, 12, 11, 13, 14, 15): (2, 4, 5, 8),
    (0, 1, 2, 4, 3, 5, 8, 9, 6, 7, 10, 12, 11, 13, 14, 15): (2, 6, 7, 10),
    (0, 1, 2, 4, 3, 8, 5, 6, 9, 10, 7, 12, 11, 13, 14, 15): (3, 4, 6, 8),
    (0, 1, 2, 4, 3, 8, 5, 9, 6, 10, 7, 12, 11, 13, 14, 15): (3, 6, 8, 10),
    (0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15): (4, 5, 6, 8),
    (0, 1, 2, 4, 8, 3, 5, 9, 6, 10, 12, 7, 11, 13, 14, 15): (3, 5, 6, 7),
}


def test_find_weight_pinned():
    orders = [o for n in range(1, 5) for o in enumerate_orders(n, mode="canonical")]
    assert sorted(o.chain for o in orders) == sorted(PINNED_WEIGHTS)
    for order in orders:
        assert find_weight(order) == PINNED_WEIGHTS[order.chain]
    assert find_weight(five_facet_four()) == (2, 3, 4, 8)
    readme = order_from_weight((7, 10, 16, 20, 22), 5)
    assert find_weight(readme) == (7, 10, 16, 20, 22)


def test_empty_order_is_coherent():
    order = parse_order("n=0\n-\n")
    assert is_coherent(order)
    assert find_weight(order) == ()
    assert coherent_above_only_trivial(order)


def test_noncoherent_example():
    order = noncoherent_five()
    assert not is_coherent(order)
    assert find_weight(order) is None


def test_bundled_certificates_verify():
    assert verify_certificate(noncoherent_five(), noncoherent_five_certificate())
    assert verify_certificate(
        coherence_isolated_six(), coherence_isolated_six_certificate()
    )


def test_solver_certificate_verifies():
    order = noncoherent_five()
    cert = noncoherence_certificate(order)
    assert verify_certificate(order, cert)


def test_certificate_soundness():
    """Any verified certificate forces incoherence (check on all n=4 classes)."""
    for order in enumerate_orders(4, mode="canonical"):
        assert is_coherent(order)
        with pytest.raises(CoherentOrderError):
            noncoherence_certificate(order)


def test_certificate_rejects_wrong_order():
    # the bundled certificate is tied to its order; against a coherent
    # order some pair must be decreasing
    cert = noncoherent_five_certificate()
    coherent = order_from_weight((7, 10, 16, 20, 22), 5)
    assert not verify_certificate(coherent, cert)


def test_certificate_rejects_noncancelling():
    cert = Certificate(
        pairs=(DisjointPair(0b0001, 0b0010),), multiplicities=(1,)
    )
    assert not verify_certificate(noncoherent_five(), cert)


def test_lp_exactness():
    # fractions survive the pipeline exactly
    A = [[1, 1], [1, -1], [1, 0], [0, 1]]
    b = [1, 0, 0, 0]
    x = lp.feasible_ge(A, b)
    assert x is not None
    assert all(isinstance(v, Fraction) for v in x)
    assert x[0] + x[1] >= 1 and x[0] - x[1] >= 0


def test_farkas_dichotomy():
    A = [[1], [-1]]
    b = [1, 0]  # x >= 1 and x <= 0: infeasible
    assert lp.feasible_ge(A, b) is None
    lam = lp.farkas_ge(A, b)
    assert lam is not None
    assert lam[0] * 1 + lam[1] * -1 == 0
    assert lam[0] * 1 + lam[1] * 0 == 1
