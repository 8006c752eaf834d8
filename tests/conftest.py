import os

import pytest
from hypothesis import settings

from booltermorders.coherence import is_coherent
from booltermorders.enumeration import enumerate_orders

# The property tests run exact solvers whose time varies a lot between
# examples, so no per-example deadline applies.
settings.register_profile("bto", deadline=None)
settings.load_profile("bto")

EXTENDED = os.environ.get("BTO_EXTENDED") == "1"

extended = pytest.mark.skipif(
    not EXTENDED, reason="extended run; set BTO_EXTENDED=1 to enable"
)


@pytest.fixture(scope="session")
def canonical_orders():
    """Canonical representatives for n = 1..5, computed once."""
    return {n: list(enumerate_orders(n, mode="canonical")) for n in range(1, 6)}


@pytest.fixture(scope="session")
def coherence_flags(canonical_orders):
    """Coherence of every canonical class for n = 1..5 (the expensive LP sweep)."""
    return {
        n: [is_coherent(o) for o in orders]
        for n, orders in canonical_orders.items()
    }


@pytest.fixture(scope="session")
def coherent_counts(coherence_flags):
    return {n: sum(flags) for n, flags in coherence_flags.items()}


@pytest.fixture(scope="session")
def char_polys():
    """Finite-field characteristic polynomials for n = 1..5, computed once."""
    from booltermorders.arrangement import char_poly

    return {n: char_poly(n) for n in range(1, 6)}
