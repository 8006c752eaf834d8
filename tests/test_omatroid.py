import itertools
import random

import pytest

from booltermorders.baues import PartialTermOrder
from booltermorders.catalog import nonorder_localization_three, noncoherent_five
from booltermorders.core import relabel
from booltermorders.enumeration import enumerate_orders
from booltermorders.omatroid import (
    Signature,
    check_localization,
    check_mu_conditions,
    cocircuit,
    mu_from_order,
    negate,
    partial_order_from_signature,
    sign_vectors,
)
from oracles import mu_from_order_checked


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
    with pytest.raises(ValueError):
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
    sig = Signature.from_positives(3, nonorder_localization_three())
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
    sig = Signature.from_positives(3, nonorder_localization_three())
    with pytest.raises(ValueError):
        partial_order_from_signature(sig)
