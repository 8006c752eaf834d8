"""Property tests for the order LPs and the order-file boundary (hypothesis)."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from booltermorders import lp
from booltermorders.baues import (
    PartialTermOrder,
    _cone_is_zero,
    find_partial_weight,
    parse_partial,
    serialize_partial,
)
from booltermorders.cli import main
from booltermorders.coherence import TieError, find_weight, order_from_weight
from booltermorders.core import (
    ParseError,
    TermOrder,
    format_subset,
    parse_order,
    serialize_order,
)


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


@settings(deadline=None)
@given(st.lists(st.integers(1, 5), max_size=4))
def test_find_partial_weight_induces_tied_levels(weights):
    p = PartialTermOrder.from_weight(weights)
    assert PartialTermOrder.from_weight(find_partial_weight(p)).level == p.level


@st.composite
def order_texts(draw):
    """Text near the order-file format: header, '='-joined levels, comments, noise."""
    n = draw(st.integers(0, 3))
    masks = draw(st.permutations(range(1 << n)))
    lines = []
    while masks:
        k = draw(st.integers(1, 3))
        lines.append("=".join(format_subset(m) for m in masks[:k]))
        masks = masks[k:]
    if draw(st.booleans()):
        lines.insert(0, f"n={draw(st.integers(-2, 20))}")
    noise = st.text(alphabet="0123456789,-=#n \t", max_size=8)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines)


file_texts = st.one_of(st.text(max_size=60), order_texts())


@settings(deadline=None)
@given(file_texts)
def test_any_text_parses_or_raises_parse_error(text):
    for parse in (parse_order, parse_partial):
        try:
            order = parse(text)
        except ParseError:
            continue
        assert isinstance(order, (TermOrder, PartialTermOrder))


@st.composite
def rank_arrays(draw):
    """Any total order shape, valid or not."""
    n = draw(st.integers(0, 4))
    return TermOrder.from_chain(n, draw(st.permutations(range(1 << n))))


@given(rank_arrays())
def test_parse_order_inverts_serialize(order):
    assert parse_order(serialize_order(order)) == order


@given(st.lists(st.integers(1, 4), max_size=4))
def test_parse_partial_inverts_serialize(weights):
    p = PartialTermOrder.from_weight(weights)
    assert parse_partial(serialize_partial(p)).level == p.level


@settings(deadline=None)
@given(
    st.sampled_from(["validate", "coherence", "flips", "localize", "baues"]),
    file_texts,
)
def test_cli_exit_codes_on_any_file(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "order.bto"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
    assert code in (0, 1, 2)
