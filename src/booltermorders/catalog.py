"""Bundled example orders and certificates used in tests and CLI demos.

Each order is stored as the first half of its chain; the second half is the
complement of the first in reverse (a consequence of the union axiom), so
:func:`complete_by_duality` reconstructs the full chain.
"""

from __future__ import annotations

from .coherence import Certificate
from .core import DisjointPair, TermOrder, complement, mask_of


def complete_by_duality(n: int, prefix: list[int]) -> TermOrder:
    """Build a full order from the first 2^(n-1) chain entries."""
    half = 1 << (n - 1)
    if len(prefix) < half:
        raise ValueError(f"need at least {half} leading subsets, got {len(prefix)}")
    head = prefix[:half]
    tail = [complement(mask, n) for mask in reversed(head)]
    chain = head + tail
    if len(set(chain)) != 1 << n:
        raise ValueError("prefix is not closed under complement duality")
    return TermOrder.from_chain(n, chain)


def _mask(text: str) -> int:
    """A subset written as its digits, or ``-`` for the empty set."""
    return 0 if text == "-" else mask_of(int(c) for c in text)


def _chain(*subsets: str) -> list[int]:
    return [_mask(s) for s in subsets]


def _certificate(*pairs: tuple[str, str]) -> Certificate:
    """Pairs written as (left, right) digit strings, each once."""
    return Certificate(
        pairs=tuple(DisjointPair(_mask(left), _mask(right)) for left, right in pairs),
        multiplicities=(1,) * len(pairs),
    )


def noncoherent_five() -> TermOrder:
    """The classic noncoherent order on five elements.

    Smallest-scale example of an antisymmetric comparative probability
    order with no agreeing additive measure; certified noncoherent by
    :func:`noncoherent_five_certificate`.
    """
    return TermOrder.from_chain(
        5,
        _chain(
            "-", "1", "2", "3", "4", "12", "5", "13",
            "23", "14", "15", "24", "25", "34", "123", "124",
            "35", "45", "125", "134", "135", "234", "235", "145",
            "245", "1234", "345", "1235", "1245", "1345", "2345", "12345",
        ),
    )


def noncoherent_five_certificate() -> Certificate:
    """Four-pair cancellation certificate for :func:`noncoherent_five`."""
    return _certificate(("4", "12"), ("23", "14"), ("15", "24"), ("124", "35"))


def five_facet_four() -> TermOrder:
    """Coherent order on four elements whose cone has five facets.

    The maximum facet count for a full-dimensional region in dimension
    four; its five flippable pairs are (1,2), (2,3), (3,12), (23,4),
    (4,123).
    """
    return complete_by_duality(
        4, _chain("-", "1", "2", "3", "12", "13", "23", "4")
    )


def five_flippable_six() -> TermOrder:
    """Noncoherent order on six elements with only five flippable pairs.

    Exhibits flip deficiency (fewer flippable pairs than the dimension);
    its ordered flippable-pair set coincides with that of the coherent
    order induced by (6, 14, 15, 18, 28, 38), although the orders differ.
    """
    return complete_by_duality(
        6,
        _chain(
            "-", "1", "2", "12", "3", "13", "4", "23",
            "14", "123", "24", "5", "124", "34", "15", "25",
            "6", "134", "234", "125", "35", "16", "26", "1234",
            "135", "45", "235", "126", "145", "36", "1235", "136",
        ),
    )


def rigid_noncoherent_six() -> TermOrder:
    """Noncoherent order on six elements below no coherent partial order.

    The relaxed weight cone of this order is {0}, so the only coherent
    partial order above it in the refinement poset is the trivial one.
    Flipping across {5} < {1,3,4} nevertheless reaches the coherent order
    induced by (2, 9, 12, 28, 48, 70).
    """
    return complete_by_duality(
        6,
        _chain(
            "-", "1", "2", "12", "3", "13", "23", "123",
            "4", "14", "24", "124", "34", "5", "134", "234",
            "15", "25", "1234", "125", "35", "135", "235", "6",
            "1235", "16", "45", "145", "26", "126", "36", "136",
        ),
    )


def coherence_isolated_six() -> TermOrder:
    """Noncoherent order on six elements none of whose flip neighbors is coherent.

    The lexicographic product of :func:`noncoherent_five` with the
    one-element order; its four-pair certificate survives every flip.
    """
    from .flips import lex_product, unit_order

    return lex_product(noncoherent_five(), unit_order())


def coherence_isolated_six_certificate() -> Certificate:
    return _certificate(("5", "23"), ("34", "25"), ("26", "35"), ("235", "46"))


def nonorder_localization_three() -> list[tuple[int, ...]]:
    """Thirteen sign vectors whose positive span is a valid localization.

    As a signing of the cocircuits of the rank-3 root-system matroid this
    passes weak cocircuit elimination, yet no (partial) term order induces
    it: the first three vectors already force a 3-cycle on singletons.
    """
    text = [
        "-+0", "0-+", "+0-", "+00", "0+0", "00+", "0++",
        "+0+", "++0", "+++", "++-", "+-+", "-++",
    ]
    signs = {"+": 1, "-": -1, "0": 0}
    return [tuple(signs[c] for c in row) for row in text]
