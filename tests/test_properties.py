"""Property tests for the order LPs (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from booltermorders import lp
from booltermorders.baues import _cone_is_zero
from booltermorders.coherence import TieError, find_weight, order_from_weight


def cone_is_zero_by_box_lps(rows, n):
    """Oracle: maximize each signed coordinate over the cone cut by -1 <= w <= 1."""
    box = []
    for i in range(n):
        unit = [int(j == i) for j in range(n)]
        box += [unit, [-v for v in unit]]
    A = rows + box
    b = [0] * len(rows) + [-1] * len(box)
    for i in range(n):
        for sign in (1, -1):
            c = [0] * n
            c[i] = -sign
            status, _, obj = lp.minimize_ge(A, b, c)
            assert status == "optimal"
            if obj < 0:
                return False
    return True


@st.composite
def sign_matrices(draw):
    n = draw(st.integers(0, 4))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=10)), n


@settings(deadline=None)
@given(sign_matrices())
def test_cone_test_matches_box_lps(case):
    rows, n = case
    assert _cone_is_zero(rows, n) == cone_is_zero_by_box_lps(rows, n)


@settings(deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
def test_find_weight_induces_generic_order(weights):
    n = len(weights)
    try:
        order = order_from_weight(weights, n)
    except TieError:
        assume(False)
    assert order_from_weight(find_weight(order), n) == order
