"""Acceptance suite: one criterion per test, one printed PASS line each.

Extended (non-gating) runs at n = 6 are skipped unless BTO_EXTENDED=1.
"""

import math
import random

import pytest

from booltermorders.catalog import (
    coherence_isolated_six,
    five_flippable_six,
    noncoherent_five,
    noncoherent_five_certificate,
    nonorder_localization_three,
    rigid_noncoherent_six,
)
from booltermorders.coherence import (
    TieError,
    find_weight,
    is_coherent,
    noncoherence_certificate,
    order_from_weight,
    verify_certificate,
)
from booltermorders.core import DisjointPair, mask_of, relabel, validate
from booltermorders.enumeration import enumerate_orders
from booltermorders.flips import (
    flip,
    flip_graph,
    flippable_pairs,
    primitive_pairs,
)
from booltermorders.omatroid import (
    check_localization,
    check_mu_conditions,
    mu_from_order,
)
from booltermorders.baues import coherent_above_only_trivial
from conftest import extended
from oracles import (
    brute_force_orders,
    char_poly_mobius,
    flippable_count_histogram,
    signature_from_positives,
)


def _pair(l, r):
    return DisjointPair(mask_of(int(c) for c in l), mask_of(int(c) for c in r))


def test_criterion_01_counts_table(canonical_orders, coherent_counts):
    classes = [len(canonical_orders[n]) for n in range(1, 6)]
    coherent = [coherent_counts[n] for n in range(1, 6)]
    assert classes == [1, 1, 2, 14, 546]
    assert coherent == [1, 1, 2, 14, 516]
    print(f"ACCEPTANCE 1: PASS — classes n=1..5 {classes}, coherent {coherent}")


@extended
def test_criterion_01_extended_n6():
    classes = 0
    coherent = 0
    for order in enumerate_orders(6, mode="canonical"):
        classes += 1
        if is_coherent(order):
            coherent += 1
    assert classes == 169444
    assert coherent == 124187
    print(f"ACCEPTANCE 1 (extended): PASS — n=6 classes {classes}, coherent {coherent}")


@extended
def test_criterion_02_flippable_distribution_n6():
    hist = flippable_count_histogram(6)
    expected = {
        5: 107,
        6: 14699,
        7: 46626,
        8: 56707,
        9: 35555,
        10: 12763,
        11: 2633,
        12: 334,
        13: 20,
    }
    assert hist == expected
    print(f"ACCEPTANCE 2 (extended): PASS — n=6 flippable distribution {hist}")


def test_criterion_03_noncoherence_certificate():
    order = noncoherent_five()
    assert not is_coherent(order)
    bundled = noncoherent_five_certificate()
    assert verify_certificate(order, bundled)
    solver = noncoherence_certificate(order)
    assert verify_certificate(order, solver)
    print(
        "ACCEPTANCE 3: PASS — example order incoherent; bundled 4-pair "
        "certificate and solver certificate both verify"
    )


def test_criterion_04_flip_reproduction():
    flipped = flip(noncoherent_five(), _pair("4", "12"))
    weights = find_weight(flipped)
    assert weights is not None
    assert order_from_weight((7, 10, 16, 20, 22), 5) == flipped
    print(
        f"ACCEPTANCE 4: PASS — flip across 4 < 1,2 is coherent, w={weights}, "
        "and (7,10,16,20,22) induces it exactly"
    )


def test_criterion_05_characteristic_polynomials(char_polys):
    expected = {
        1: (1, -1),
        2: (1, -4, 3),
        3: (1, -13, 47, -35),
        4: (1, -40, 542, -2648, 2145),
        5: (1, -121, 5590, -117670, 985129, -872929),
    }
    factored = {
        1: "(x-1)",
        2: "(x-1)(x-3)",
        3: "(x-1)(x-5)(x-7)",
        4: "(x-1)(x-11)(x-13)(x-15)",
        5: "(x-1)(x-29)(x-31)(x^2 - 60x + 971)",
    }
    for n in range(1, 6):
        assert char_polys[n].coefficients == expected[n]
        assert char_polys[n].factored_str() == factored[n]
    for n in (1, 2, 3):
        assert char_poly_mobius(n).coefficients == expected[n]
    print(
        "ACCEPTANCE 5: PASS — characteristic polynomials n=1..5 exact; "
        "intersection-lattice oracle agrees for n<=3"
    )


def test_criterion_06_region_identity(char_polys, coherent_counts):
    for n in range(2, 6):
        regions = abs(char_polys[n](-1))
        assert regions == (1 << n) * math.factorial(n) * coherent_counts[n]
    print(
        "ACCEPTANCE 6: PASS — |chi(-1)| = 2^n n! (coherent classes) for n=2..5"
    )


def test_criterion_07_localization_all_orders():
    for n in (1, 2, 3, 4):
        for order in enumerate_orders(n, mode="all"):
            mu = mu_from_order(order)
            assert check_localization(mu)
            assert check_mu_conditions(mu)
    print(
        "ACCEPTANCE 7: PASS — all valid orders at n<=4 pass localization "
        "and the mu-characterization (exhaustive)"
    )


def test_criterion_07_localization_n5(canonical_orders):
    classes = canonical_orders[5]
    assert len(classes) == 546
    for order in classes:
        assert check_localization(mu_from_order(order))
    # S_n permutes B_n, so a relabeled class must give the same verdict
    rng = random.Random(7)
    for order in rng.sample(classes, 30):
        perm = rng.sample(range(5), 5)
        assert check_localization(mu_from_order(relabel(order, perm)))
    print(
        "ACCEPTANCE 7: PASS — all 546 classes at n=5 (and 30 seeded "
        "relabelings) pass localization"
    )


@extended
def test_criterion_07_localization_n6():
    classes = 0
    for order in enumerate_orders(6, mode="canonical"):
        classes += 1
        assert check_localization(mu_from_order(order))
    assert classes == 169444
    print("ACCEPTANCE 7 (extended): PASS — all 169444 classes at n=6 pass localization")


@extended
def test_criterion_07_mu_conditions_n5(canonical_orders):
    for order in canonical_orders[5]:
        assert check_mu_conditions(mu_from_order(order))


def test_criterion_08_nonorder_extension():
    sig = signature_from_positives(3, nonorder_localization_three())
    assert check_localization(sig)
    report = check_mu_conditions(sig)
    assert not report and report.failed_condition == 2
    fmt = lambda v: "".join({1: "+", -1: "-", 0: "0"}[s] for s in v)
    witness = ", ".join(fmt(v) for v in report.witness)
    print(
        "ACCEPTANCE 8: PASS — 13-vector set is a localization but fails "
        f"condition {report.failed_condition}; witness (x, y, composite): {witness}"
    )


def test_criterion_09_flip_deficiency():
    order = five_flippable_six()
    deficient = flippable_pairs(order)
    assert len(deficient) == 5 < 6
    # (6,14,15,18,28,38) is non-generic (6+14+18 = 38), so the comparison is
    # made against its two generic integer completions of the tie; both order
    # every one of the deficient order's flippable pairs the same way, yet
    # differ from it as orders (they must: coherent orders on [6] have at
    # least 6 flippable pairs).
    for weights in ((12, 28, 30, 36, 56, 77), (12, 28, 30, 36, 56, 75)):
        coherent = order_from_weight(weights, 6)
        assert coherent != order
        assert len(flippable_pairs(coherent)) >= 6
        for pair in deficient:
            assert coherent.rank[pair.left] < coherent.rank[pair.right]
    print(
        "ACCEPTANCE 9: PASS — n=6 order has exactly 5 < 6 flippable pairs; "
        "generic completions of the reference weights order all five pairs "
        "identically while differing as orders (literal reading is "
        "unattainable; see criterion 9 literal)"
    )


@pytest.mark.xfail(
    strict=True,
    raises=TieError,
    reason=(
        "literal criterion is unattainable: (6,14,15,18,28,38) has the tie "
        "6+14+18 = 38, so it induces no total order; moreover a coherent "
        "order on [6] has at least 6 flippable pairs, so no coherent order "
        "can share the 5-pair flippable set"
    ),
)
def test_criterion_09_literal_reading():
    order_from_weight((6, 14, 15, 18, 28, 38), 6)


def test_criterion_10_rigid_below_no_coherent():
    order = rigid_noncoherent_six()
    assert coherent_above_only_trivial(order)
    flipped = flip(order, _pair("5", "134"))
    assert flipped == order_from_weight((2, 9, 12, 28, 48, 70), 6)
    print(
        "ACCEPTANCE 10: PASS — rigid order lies below no nontrivial coherent "
        "partial order; flip across 5 < 1,3,4 gives the (2,9,12,28,48,70) order"
    )


def test_criterion_11_isolation_from_coherence():
    order = coherence_isolated_six()
    assert not is_coherent(order)
    neighbors = [
        flip(order, pair) for pair in flippable_pairs(order) if pair.left != 0
    ]
    assert neighbors
    assert all(not is_coherent(nb) for nb in neighbors)
    print(
        f"ACCEPTANCE 11: PASS — all {len(neighbors)} flip neighbors of the "
        "product order are incoherent"
    )


def test_criterion_12_flip_connectivity():
    for n in (2, 3, 4, 5):
        assert flip_graph(n, mode="canonical").is_connected()
    print("ACCEPTANCE 12: PASS — class flip graph connected for n=2..5")


@extended
def test_criterion_12_extended_n6():
    graph = flip_graph(6, mode="canonical")
    assert graph.is_connected()
    assert sum(map(len, graph.adjacency)) // 2 == 663602
    print("ACCEPTANCE 12 (extended): PASS — class flip graph connected at n=6, 663602 edges")


def test_criterion_13_property_suites():
    # axiom validity of everything enumerated
    for order in enumerate_orders(3, mode="all"):
        assert validate(order)
    # complement duality
    for order in enumerate_orders(4, mode="canonical"):
        top = (1 << 4) - 1
        for mask in range(1 << 4):
            assert order.rank[mask] + order.rank[top ^ mask] == top
    # flip involution
    for order in enumerate_orders(4, mode="canonical"):
        for pair in flippable_pairs(order):
            if pair.left == 0:
                continue
            assert flip(flip(order, pair), pair.reversed()) == order
    # primitive-pair determination, exhaustive n <= 4
    for n in (2, 3, 4):
        seen = set()
        for order in enumerate_orders(n, mode="all"):
            key = tuple(primitive_pairs(order))
            assert key not in seen
            seen.add(key)
    # certificate soundness: a verified certificate forces incoherence
    order = noncoherent_five()
    assert verify_certificate(order, noncoherent_five_certificate())
    assert not is_coherent(order)
    # enumeration vs brute force at n = 3
    assert {o.rank for o in enumerate_orders(3, mode="all")} == {
        o.rank for o in brute_force_orders(3)
    }
    print(
        "ACCEPTANCE 13: PASS — validity, duality, flip involution, "
        "primitive-pair determination, certificate soundness, brute-force "
        "agreement all hold"
    )
