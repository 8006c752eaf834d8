import hashlib
import itertools
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from booltermorders.baues import (
    PartialTermOrder,
    coherent_above_only_trivial,
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
    _program,
    CoherentOrderError,
    TieError,
    find_weight,
    is_coherent,
    noncoherence_certificate,
    order_from_weight,
    verify_certificate,
)
from booltermorders.core import DisjointPair, OrderError, TermOrder, parse_order, relabel, validate
from booltermorders.enumeration import enumerate_orders
from booltermorders import coherence, lp
from conftest import extended
from oracles import (
    certificate_full_rows,
    coherent_by_farkas,
    comparisons_level_array,
    difference_rows,
    has_positive_cone_point,
    lex_min_ge,
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
            rows = list(dict.fromkeys(steps + units))
            assert _program(order)[1:] == (rows, [1] * len(rows))


def test_import_builds_no_code_tables():
    """Importing fills no row table; each n's tables are built on first use."""
    src = Path(coherence.__file__).parents[1]
    code = (
        "import booltermorders.cli, booltermorders.baues\n"
        "from booltermorders import coherence\n"
        "print(coherence._code_tables.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src
    )
    assert out.stdout.split() == ["0"]


def test_n9_program_adds_no_cache_entry():
    # above n = 8 the tables are built per call and each row from its code
    order = order_from_weight([1 << i for i in range(9)], 9)
    before = coherence._code_tables.cache_info()
    codes, rows, rhs = _program(order)
    comps = comparisons_level_array(order)
    assert rows == [tuple((r >> j & 1) - (l >> j & 1) for j in range(9)) for l, r, _ in comps]
    assert rhs == [1] * len(comps)
    assert find_weight(order) == tuple(1 << i for i in range(9))
    assert coherence._code_tables.cache_info() == before


def assert_matches_full_rows(order):
    """Distinct comparisons decide, weigh and certify as every row does."""
    weight = lex_min_weight_full_rows(order)
    if isinstance(order, PartialTermOrder):
        assert find_weight(order) == weight
        return
    assert is_coherent(order) == (weight is not None)
    assert find_weight(order) == weight
    if weight is None:
        assert noncoherence_certificate(order) == certificate_full_rows(order)
    assert coherent_above_only_trivial(order) != has_positive_cone_point(
        difference_rows(order)
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


def _answer_bytes(order, weight):
    """The weight, or for a noncoherent total order the certificate's pairs and
    multiplicities, as bytes for a digest."""
    if weight is not None:
        return repr(weight).encode()
    cert = noncoherence_certificate(order)
    return repr(([(p.left, p.right) for p in cert.pairs], cert.multiplicities)).encode()


# sha256 over _answer_bytes of every canonical class in search order, each
# answer followed by a newline; a kernel change that moves any lex-min
# weight or any certificate changes it
WEIGHTS_AND_CERTIFICATES_SHA256 = {
    5: "0fc8b855dd69913246f0dbf6f5612f440ba1607bbc18615c9539d10c0a17e54c",
    6: "142f28c23f488ad3d006bf4c6f58992dde03fe9ec1eab4845653c92a1d8aa253",  # first 5000 n=6
}


def test_every_n5_weight_and_certificate_is_pinned(canonical_orders):
    digest = hashlib.sha256()
    noncoherent = 0
    for order in canonical_orders[5]:
        weight = find_weight(order)
        noncoherent += weight is None
        digest.update(_answer_bytes(order, weight) + b"\n")
    assert (len(canonical_orders[5]), noncoherent) == (546, 30)
    assert digest.hexdigest() == WEIGHTS_AND_CERTIFICATES_SHA256[5]


def _n6_weights_match_full_rows(count):
    """find_weight on the first n=6 classes: the lex-min by pins, None iff
    noncoherent; returns the sha256 of their answers (:func:`_answer_bytes`)."""
    digest = hashlib.sha256()
    for order in itertools.islice(enumerate_orders(6, mode="canonical"), count):
        weight = find_weight(order)
        assert weight == lex_min_weight_full_rows(order)
        assert (weight is None) == (not is_coherent(order))
        digest.update(_answer_bytes(order, weight) + b"\n")
    return digest.hexdigest()


def test_find_weight_matches_full_rows_n6():
    _n6_weights_match_full_rows(300)


@extended
def test_find_weight_matches_full_rows_n6_extended():
    assert _n6_weights_match_full_rows(5000) == WEIGHTS_AND_CERTIFICATES_SHA256[6]


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


def test_find_weight_serves_partial_orders():
    # w = 0 induces the one-level order, tied weights their own ties, and a
    # tie-free partial order has its total order's weight
    for n in range(5):
        trivial = PartialTermOrder.trivial(n)
        assert find_weight(trivial) == (0,) * n
        assert is_coherent(trivial)
    tied = PartialTermOrder.from_weight((1, 1, 2))
    assert find_weight(tied) == (1, 1, 2)
    assert is_coherent(tied)
    for n in range(5):
        for order in enumerate_orders(n):
            partial = PartialTermOrder.from_total(order)
            assert find_weight(partial) == find_weight(order)
            assert is_coherent(partial) == is_coherent(order)


def test_weight_route_refuses_an_invalid_partial_order():
    # {} < {1} < {2} = {1,2}: adding {2} to the step {} < {1} gives a tie
    order = PartialTermOrder(2, (0, 1, 2, 2))
    reason = validate(order).reason
    for answer in (find_weight, is_coherent):
        with pytest.raises(OrderError, match=re.escape(reason)):
            answer(order)


def test_noncoherent_example():
    order = noncoherent_five()
    assert not is_coherent(order)
    assert find_weight(order) is None


def test_bundled_certificates_verify():
    assert verify_certificate(noncoherent_five(), noncoherent_five_certificate())
    assert verify_certificate(
        coherence_isolated_six(), coherence_isolated_six_certificate()
    )


def test_certificate_of_an_invalid_order_is_refused():
    # swapping {1,2,3} with its chain successor breaks the union axiom, yet every
    # certificate pair stays increasing and the pairs still cancel
    chain = list(noncoherent_five().chain)
    i = chain.index(0b00111)
    chain[i], chain[i + 1] = chain[i + 1], chain[i]
    broken = TermOrder.from_chain(5, chain)
    assert not validate(broken)
    with pytest.raises(OrderError):
        verify_certificate(broken, noncoherent_five_certificate())


def test_solver_certificate_verifies():
    order = noncoherent_five()
    cert = noncoherence_certificate(order)
    assert verify_certificate(order, cert)


def test_noncoherence_certificate_of_a_partial_order():
    # a tie-free partial order gets its total order's certificate; a tie row
    # would give a pair that does not increase strictly, so ties are refused
    total = noncoherent_five()
    cert = noncoherence_certificate(PartialTermOrder.from_total(total))
    assert cert == noncoherence_certificate(total)
    with pytest.raises(ValueError, match="needs a total order"):
        noncoherence_certificate(PartialTermOrder.from_weight((1, 1, 2)))


def test_verify_certificate_reads_levels():
    cert = noncoherent_five_certificate()
    assert verify_certificate(PartialTermOrder.from_total(noncoherent_five()), cert)
    # {1} < {2} and {2} < {1} cancel, but the two tie
    tied = Certificate((DisjointPair(0b01, 0b10), DisjointPair(0b10, 0b01)), (1, 1))
    check = verify_certificate(PartialTermOrder.from_weight((1, 1, 2)), tied)
    assert not check and check.reason == f"pair {tied.pairs[0]} is not increasing in the order"


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


def test_certificate_without_pairs_or_with_a_side_outside_n_fails():
    # no pairs cancel trivially yet prove nothing; a side outside [5] has no rank
    order = noncoherent_five()
    check = verify_certificate(order, Certificate((), ()))
    assert not check and check.reason == "the certificate has no pairs"
    for pair in (DisjointPair(1, 64), DisjointPair(64, 1), DisjointPair(0, 32)):
        check = verify_certificate(order, Certificate((pair,), (1,)))
        assert not check and check.reason == f"pair {pair} has a side outside [5]"
    # the range is checked before the order, pair by pair
    late = Certificate((DisjointPair(1, 2), DisjointPair(2, 1 << 9)), (1, 1))
    assert verify_certificate(order, late).reason == f"pair {late.pairs[1]} has a side outside [5]"


def test_oversized_weight_vectors_are_refused_before_any_sum(monkeypatch):
    # 17 weights would build 2^17 sums (and then answer TieError for 1..17), and
    # 40 would try 2^40: both routes refuse the ground-set size first
    def no_sums(w):
        raise AssertionError(f"{len(w)} weights reached the subset sums")

    monkeypatch.setattr(coherence, "_weight_sums", no_sums)
    for n in (17, 40):
        weights = range(1, n + 1)
        with pytest.raises(OrderError, match=rf"ground-set size must be in 0\.\.16, got {n}"):
            order_from_weight(weights, n)
        with pytest.raises(OrderError, match=rf"ground-set size must be in 0\.\.16, got {n}"):
            PartialTermOrder.from_weight(weights)


def test_float_weights_are_refused():
    # rounded sums put {3} below {1,2}, though 1/10 + 2/10 = 3/10 exactly
    for weights in [(0.1, 0.2, 0.3), (1, 2.0, 4), (Decimal("0.1"), 2, 4)]:
        with pytest.raises(ValueError, match="weights must be integers or fractions"):
            order_from_weight(weights, 3)
        with pytest.raises(ValueError, match="weights must be integers or fractions"):
            PartialTermOrder.from_weight(weights)
    exact = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10))
    with pytest.raises(TieError):
        order_from_weight(exact, 3)
    level = PartialTermOrder.from_weight(exact).level
    assert level[0b100] == level[0b011]
    halves = (Fraction(1, 2), 1, Fraction(5, 2))
    assert order_from_weight(halves, 3) == order_from_weight((1, 2, 5), 3)


def test_lp_exactness():
    # fractions survive the pipeline exactly
    A = [[1, 1], [1, -1], [1, 0], [0, 1]]
    b = [1, 0, 0, 0]
    x = lp.feasible_ge(A, b)
    assert x is not None
    assert all(isinstance(v, Fraction) for v in x)
    assert x[0] + x[1] >= 1 and x[0] - x[1] >= 0


def test_lex_min_ge_edge_cases():
    # zero unknowns: feasible exactly when no right-hand side is positive
    assert lex_min_ge([], [], 0) == []
    assert lex_min_ge([[], []], [0, -1], 0) == []
    assert lex_min_ge([[], []], [0, 1], 0) is None
    assert lex_min_ge([[1, 0], [0, 1], [1, 1]], [1, 1, 3], 2) == [1, 2]
    assert lex_min_ge([[1], [-1]], [1, 0], 1) is None  # infeasible


def test_lex_min_ge_needs_every_unit_row():
    # without some e_i among the rows, a coordinate may be unbounded below
    for A, b, n in [
        ([], [], 2),  # zero rows
        ([[1, 1]], [1], 2),
        ([[1, 0]], [0], 2),
        ([[1, 1], [1, 0], [-1, -1]], [1, 0, -3], 2),
        ([[1, 0], [1, 1]], [1, 3], 2),  # e_2 missing, though a minimum (1, 2) exists
        ([[-1, 0], [0, 1]], [0, 0], 2),  # -e_1 is not e_1
    ]:
        with pytest.raises(ValueError, match="unit row"):
            lex_min_ge(A, b, n)


def test_lex_min_ge_starts_from_the_unit_rows(monkeypatch):
    # an order with the empty set alone at the bottom has the rows w_i >= 1, and
    # the one-level order the ties w_i >= 0, so no weight solve and no decision
    # reaches the two-phase solve, which only the certificate runs
    calls = []
    solve = lp._solve_eq
    monkeypatch.setattr(lp, "_solve_eq", lambda *args: calls.append(args) or solve(*args))
    assert find_weight(order_from_weight((7, 10, 16, 20, 22), 5)) == (7, 10, 16, 20, 22)
    assert find_weight(noncoherent_five()) is None
    assert is_coherent(order_from_weight((7, 10, 16, 20, 22), 5))
    assert not is_coherent(noncoherent_five())
    assert is_coherent(parse_order("n=0\n-\n"))
    assert find_weight(PartialTermOrder.from_weight((1, 1, 2))) == (1, 1, 2)
    assert find_weight(PartialTermOrder.trivial(3)) == (0, 0, 0)
    assert calls == []
    assert verify_certificate(noncoherent_five(), noncoherence_certificate(noncoherent_five()))
    assert len(calls) == 1


def test_is_coherent_matches_the_farkas_route(canonical_orders):
    # the weight solve decides as the two-phase Farkas dual does, on every
    # n <= 5 class under a seeded relabeling
    rng = random.Random(20261019)
    for orders in canonical_orders.values():
        for order in orders:
            order = relabel(order, rng.sample(range(order.n), order.n))
            assert is_coherent(order) == coherent_by_farkas(order)


@extended
def test_is_coherent_matches_the_farkas_route_n6_extended():
    rng = random.Random(20261019)
    for order in itertools.islice(enumerate_orders(6, mode="canonical"), 2000):
        order = relabel(order, rng.sample(range(6), 6))
        assert is_coherent(order) == coherent_by_farkas(order)


def test_farkas_dichotomy():
    A = [[1], [-1]]
    b = [1, 0]  # x >= 1 and x <= 0: infeasible
    assert lp.feasible_ge(A, b) is None
    lam = lp.farkas_ge(A, b)
    assert lam is not None
    assert lam[0] * 1 + lam[1] * -1 == 0
    assert lam[0] * 1 + lam[1] * 0 == 1
