import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from booltermorders.baues import PartialTermOrder
from booltermorders.catalog import nonorder_localization_three, noncoherent_five
from booltermorders.core import TermOrder, relabel
from booltermorders.enumeration import enumerate_orders
from booltermorders.omatroid import (
    MAX_SIGNATURE,
    Signature,
    check_localization,
    check_mu_conditions,
    mu_from_order,
    negate,
    partial_order_from_signature,
    sign_vectors,
)
from oracles import (
    cocircuit,
    mu_from_order_checked,
    partial_order_from_signature_pairs,
    signature_from_positives,
)


def signs(text):
    return tuple({"+": 1, "-": -1, "0": 0}[c] for c in text)


def test_cocircuit_pinned_values():
    # coordinates: e1..en, then sums in lex order, then differences in lex order
    assert cocircuit(signs("++0")) == signs("++0+++0++")
    assert cocircuit(signs("+-")) == signs("+-0+")


def test_cocircuit_antipodal():
    for x in sign_vectors(3):
        assert cocircuit(negate(x)) == negate(cocircuit(x))


def test_signature_antisymmetry_enforced():
    values = {x: 1 for x in sign_vectors(2)}
    with pytest.raises(ValueError, match="not antisymmetric"):
        Signature(2, values)


def test_signature_values_are_signs():
    # an all-2 signing used to pass check_mu_conditions and break check_localization
    canonical = [x for x in sign_vectors(2) if x > negate(x)]
    with pytest.raises(ValueError, match=r"signature value 2 at \(1, 1\) is not -1, 0 or 1"):
        Signature(2, {x: 2 for x in canonical})
    # a value given on the negative is negated before it is named
    with pytest.raises(ValueError, match=r"value -3 at \(0, 1\)"):
        Signature(2, {x: 1 for x in canonical if x != signs("0+")} | {signs("0-"): 3})
    # bools and the ints -1, 0, 1 are signs
    assert Signature(2, {x: True for x in canonical}) == Signature(2, {x: 1 for x in canonical})
    assert Signature(2, {x: False for x in canonical}) == Signature(2, {x: 0 for x in canonical})


def test_signature_requires_every_value():
    # a vector counts as given when it or its negative is, so drop both
    values = {x: 0 for x in sign_vectors(2) if x not in (signs("+-"), signs("-+"))}
    with pytest.raises(ValueError, match="missing value"):
        Signature(2, values)


def test_mu_from_orders_pass_both_checks():
    for n in (1, 2, 3):
        for order in enumerate_orders(n, mode="all"):
            mu = mu_from_order(order)
            assert check_localization(mu)
            assert check_mu_conditions(mu)


def test_mu_from_order_matches_checked_construction():
    rng = random.Random(12)
    orders = [o for n in range(1, 5) for o in enumerate_orders(n, mode="canonical")]
    orders += rng.sample(list(enumerate_orders(5, mode="canonical")), 40)
    orders += rng.sample(list(itertools.islice(enumerate_orders(6, mode="canonical"), 2000)), 10)
    orders = [relabel(o, rng.sample(range(o.n), o.n)) for o in orders]
    orders += [PartialTermOrder.from_weight(w) for w in [(1, 1, 3), (1, 2, 3, 3), (2, 2, 2, 3, 5)]]
    for order in orders:
        mu, expected = mu_from_order(order), mu_from_order_checked(order)
        assert mu.n == expected.n
        assert list(mu.values.items()) == list(expected.values.items())


def test_mu_from_partial_order():
    p = PartialTermOrder.from_weight((1, 1, 3))
    mu = mu_from_order(p)
    assert mu(signs("+-0")) == 0  # {1} and {2} share a level
    assert check_localization(mu)
    assert check_mu_conditions(mu)


def test_nonorder_localization():
    sig = signature_from_positives(3, nonorder_localization_three())
    assert check_localization(sig)
    report = check_mu_conditions(sig)
    assert not report
    assert report.failed_condition == 2
    x, y, z = report.witness
    assert sig(x) == 1 and sig(y) == 1 and sig(z) != 1


def test_partial_order_roundtrip():
    order = noncoherent_five()
    mu = mu_from_order(order)
    assert partial_order_from_signature(mu).level == order.rank

    p = PartialTermOrder.from_weight((1, 1, 3))
    assert partial_order_from_signature(mu_from_order(p)).level == p.level


def test_nonorder_signature_fails_reconstruction():
    sig = signature_from_positives(3, nonorder_localization_three())
    with pytest.raises(ValueError):
        partial_order_from_signature(sig)


def rebuilt_levels(rebuild, sigma):
    """The level array ``rebuild`` makes of sigma, or None when it raises."""
    try:
        return rebuild(sigma).level
    except ValueError:
        return None


def assert_rebuilds_agree(sigma):
    expected = rebuilt_levels(partial_order_from_signature_pairs, sigma)
    assert rebuilt_levels(partial_order_from_signature, sigma) == expected
    return expected


def test_signature_rebuild_matches_pair_oracle():
    orders = [o for n in range(5) for o in enumerate_orders(n, mode="canonical")]
    orders += [
        PartialTermOrder.from_weight(w)
        for n in range(1, 6)
        for w in itertools.combinations_with_replacement(range(1, 4), n)
    ]
    for order in orders:
        assert assert_rebuilds_agree(mu_from_order(order)) == order.level
    assert assert_rebuilds_agree(signature_from_positives(3, nonorder_localization_three())) is None
    # the signing of a level map that breaks the union axiom: the sort
    # meets every disjoint comparison but puts {1,3} below {3}
    broken = PartialTermOrder(3, (0, 1, 2, 3, 2, 1, 2, 1))
    assert assert_rebuilds_agree(mu_from_order(broken)) is None


@functools.lru_cache(maxsize=None)
def classes(n):
    return list(enumerate_orders(n, mode="canonical"))


@st.composite
def signatures_one_pair_changed(draw):
    """The signature of a relabeled class or a tied partial order (n = 1..4)
    with one antipodal pair of values set to another sign."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        order = relabel(draw(st.sampled_from(classes(n))), draw(st.permutations(range(n))))
    else:
        order = PartialTermOrder.from_weight(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    values = dict(mu_from_order(order).values)
    x = draw(st.sampled_from(sign_vectors(n)))
    v = draw(st.sampled_from([s for s in (1, 0, -1) if s != values[x]]))
    values[x], values[negate(x)] = v, -v
    return Signature(n, values)


@given(signatures_one_pair_changed())
def test_changed_signature_rebuild_matches_pair_oracle(sigma):
    assert_rebuilds_agree(sigma)


def test_mu_from_order_is_bounded_in_n():
    assert mu_from_order(TermOrder.from_chain(MAX_SIGNATURE, range(1 << MAX_SIGNATURE))).n == 8
    with pytest.raises(ValueError, match="at most 8"):
        mu_from_order(TermOrder.from_chain(9, range(1 << 9)))


def test_signature_is_bounded_in_n_before_enumerating():
    for n in (9, -1):
        with pytest.raises(ValueError, match=r"n must be in 0\.\.8 for a signature"):
            Signature(n, {})
