"""Generalized (partial) term orders and the refinement poset.

A partial term order is an ordered partition of the subsets of [n] into
levels, with the empty set alone at the bottom, that is compatible with
disjoint unions: for disjoint gamma, the comparison of alpha and beta
(below, same level, above) is preserved when both sides gain gamma.
Total orders are the tie-free case: ``core.validate``,
``core.serialize_order``, ``coherence.find_weight`` and
``coherence.is_coherent`` take either kind, and weight vectors induce
partial orders by grouping equal subset sums.  Above a total order,
whether any nontrivial coherent partial order lies is one lex-min solve
of the order's weight cone plus a recheck of the point it finds; the
list of those orders comes from the cone's positive extreme rays, by
double description.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .core import (
    LevelArray,
    OrderError,
    ParseError,
    TermOrder,
    _Frozen,
    _shape,
    _vouch,
    read_levels,
    require_valid,
    structural_fault,
)


class PartialOrderError(ParseError, OrderError):
    """A well-formed order file whose levels break the order axioms."""


class PartialTermOrder(LevelArray, _Frozen):
    """Levels of an ordered partition of the subsets of [n].

    ``level[mask]`` is the 0-based level of the subset.  The constructor
    checks the shape and the structure (:func:`core.structural_fault`):
    levels are contiguous and the empty set sits alone at level 0, except
    in the trivial one-level partition.  Use :func:`core.validate` for
    the union axiom.
    """

    _fields = ("n", "level")

    def __init__(self, n: int, level: Sequence[int]):
        level = _shape(n, level)
        fault = structural_fault(level)
        if fault is not None:
            raise OrderError(fault)
        self.__dict__.update(n=n, level=level)

    @classmethod
    def from_total(cls, order: TermOrder) -> "PartialTermOrder":
        require_valid(order)
        return _vouch(cls(order.n, order.level))

    @classmethod
    def from_weight(cls, weights: Sequence) -> "PartialTermOrder":
        """Partial order grouping equal weight sums, valid once the constructor
        accepts it: w(a) < w(b) iff w(a + g) < w(b + g) for g disjoint from both."""
        from .coherence import _exact, _induced_level
        return _vouch(cls(len(weights), _induced_level(_exact(weights))))

    @classmethod
    def trivial(cls, n: int) -> "PartialTermOrder":
        """Everything on one level."""
        return _vouch(cls(n, (0,) * (1 << n)))

    def to_total(self) -> TermOrder:
        if not self.is_total():
            raise OrderError("partial order has ties; not a total order")
        return _vouch(TermOrder(self.n, self.level), self.__dict__.get("_valid"))


def refines(fine: PartialTermOrder, coarse: PartialTermOrder) -> bool:
    """True when every strict comparison of ``coarse`` holds in ``fine``.

    That is, the coarse level is a non-decreasing function of the fine
    level (:func:`_monotone`).
    """
    if fine.n != coarse.n:
        raise ValueError("ground sets differ")
    return _monotone(fine.level, coarse.level)


def _monotone(level, values) -> bool:
    """Whether ``values`` is a non-decreasing function of ``level``: sorted by
    level, the values never fall, and they are equal within one level."""
    steps = sorted(zip(level, values))
    return not any(c > c2 or (f == f2 and c != c2) for (f, c), (f2, c2) in zip(steps, steps[1:]))


def _extreme_rays(rows, n: int) -> list[tuple[int, ...]]:
    """The extreme rays of {w >= 0 : row.w >= 0 for every row}, sorted.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996): the
    unit vectors span the orthant, and each distinct row with a negative
    entry cuts the cone in turn (w >= 0 already implies a row without one).
    Rays on its nonnegative side stay.  Two rays on opposite strict
    sides combine into one on the row when they are adjacent: no third
    ray is tight on every constraint both are tight on, and those are at
    least n - 2, the rank of a 2-face's equalities.  Each ray is a
    gcd-reduced integer vector with the bitmask of its tight constraints:
    bit i for w_i >= 0, bit n + k for the k-th row that cuts.
    """
    from .coherence import _coprime
    rays = [
        (tuple(int(i == j) for j in range(n)), ((1 << n) - 1) & ~(1 << i)) for i in range(n)
    ]
    cuts = [row for row in dict.fromkeys(map(tuple, rows)) if min(row, default=0) < 0]
    for k, row in enumerate(cuts):
        bit = 1 << (n + k)
        pos, neg, kept = [], [], []
        for ray, tight in rays:
            value = sum(map(operator.mul, ray, row))
            if value > 0:
                pos.append((ray, tight, value))
                kept.append((ray, tight))
            elif value < 0:
                neg.append((ray, tight, -value))
            else:
                kept.append((ray, tight | bit))
        for p, tp, vp in pos:
            for q, tq, vq in neg:
                common = tp & tq
                if common.bit_count() < n - 2 or any(
                    t & common == common and t != tp and t != tq for _, t in rays
                ):
                    continue
                kept.append((_coprime([vq * a + vp * b for a, b in zip(p, q)]), common | bit))
        rays = kept
    return sorted(ray for ray, _ in rays)


def _positive_rays(order: TermOrder) -> list[tuple[int, ...]]:
    """The extreme rays with every coordinate positive of the order's cone.

    The cone holds the weights w with A w >= 0, for A the rows of the
    weight program :func:`coherence._program`: w(a) <= w(b) for each of
    the order's distinct comparisons a < b, then w_i >= 0, the orthant the
    double description starts from.  On the cone w(s) >= w(s_1) for every
    nonempty subset s and the first singleton s_1.  So a point of it
    induces a partial term order (the empty set alone at the bottom) iff
    its coordinates are positive, and some point is positive iff some
    extreme ray is.
    """
    from .coherence import _program
    require_valid(order)
    return [ray for ray in _extreme_rays(_program(order)[1], order.n) if all(ray)]


def coherent_above_only_trivial(order: TermOrder) -> bool:
    """Whether the trivial partition is the only coherent coarsening.

    Any positive point of the order's weight cone (see
    :func:`_positive_rays`) induces a nontrivial coherent partial order
    refined by the order, so the answer is yes iff the cone has none.  On
    the cone every coordinate is at least w(s_1), for s_1 = {j} the lowest
    singleton, so a positive point exists iff w_j >= 1 is feasible: one
    lex-min solve (:func:`coherence._lex_min`) decides, and the point it
    finds is rechecked against the level array: positive, with subset sums
    a non-decreasing function of the level (:func:`_monotone`, the check of
    :func:`refines`).  The rays are left to
    :func:`coherent_coarsenings_nontrivial`, which lists them.  At n = 0
    the empty set is the only subset, so no partition is nontrivial.
    """
    from .coherence import _lex_min, _weight_sums
    require_valid(order)
    n, level = order.n, order.level
    if n == 0:
        return True
    j = min(range(n), key=lambda i: level[1 << i])
    solution = _lex_min(order, 3**j)
    if solution is None:
        return True
    w = solution[1]
    if min(w) <= 0 or not _monotone(level, _weight_sums(w)):
        raise AssertionError("LP produced a cone point that is not positive or not on the cone")
    return False


def coherent_coarsenings_nontrivial(order: TermOrder) -> list[PartialTermOrder]:
    """The coarsest nontrivial coherent partial orders refined by the order.

    One for each positive extreme ray of the order's weight cone, induced
    by the ray and listed in the order of the rays; the ray is the
    partial order's :func:`coherence.find_weight`.  Every nontrivial
    coherent coarsening is induced by a positive point of the cone, whose
    face contains one of these rays.
    """
    return [PartialTermOrder.from_weight(ray) for ray in _positive_rays(order)]


# ---------------------------------------------------------------------------
# order-file format with levels


def parse_partial(text: str) -> PartialTermOrder:
    """Parse a total or partial order file (see :func:`core.read_levels`).

    A malformed file raises :class:`ParseError`; well-formed levels that
    are not a partial term order raise :class:`PartialOrderError`, with
    :func:`core.validate`'s reason.
    """
    n, level = read_levels(text)
    try:
        order = PartialTermOrder(n, level)
        require_valid(order)
    except OrderError as exc:
        raise PartialOrderError(str(exc)) from None
    return order
