"""Generalized (partial) term orders and the refinement poset.

A partial term order is an ordered partition of the subsets of [n] into
levels, with the empty set alone at the bottom, that is compatible with
disjoint unions: for disjoint gamma, the comparison of alpha and beta
(below, same level, above) is preserved when both sides gain gamma.
Total orders are the tie-free case and share ``core``'s level-array
checks and ``coherence``'s weight answer, so ``validate_partial``,
``serialize_partial``, ``find_partial_weight`` and ``is_coherent_partial``
are ``core.validate``, ``core.serialize_order``, ``coherence.find_weight``
and ``coherence.is_coherent``; weight vectors induce partial orders by
grouping equal subset sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .core import (
    LevelArray,
    OrderError,
    ParseError,
    TermOrder,
    _shape,
    _vouch,
    read_levels,
    require_valid,
    serialize_order,
    structural_fault,
    validate,
)
from .coherence import _constraints, _induced_level, find_weight, is_coherent


class PartialOrderError(ParseError, OrderError):
    """A well-formed order file whose levels break the order axioms."""


@dataclass(frozen=True)
class PartialTermOrder(LevelArray):
    """Levels of an ordered partition of the subsets of [n].

    ``level[mask]`` is the 0-based level of the subset.  The constructor
    checks the shape and the structure (:func:`core.structural_fault`):
    levels are contiguous and the empty set sits alone at level 0, except
    in the trivial one-level partition.  Use :func:`validate_partial` for
    the union axiom.
    """

    n: int
    level: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "level", _shape(self.n, self.level))
        fault = structural_fault(self.level)
        if fault is not None:
            raise OrderError(fault)

    @classmethod
    def from_total(cls, order: TermOrder) -> "PartialTermOrder":
        require_valid(order)
        return cls(order.n, order.level)

    @classmethod
    def from_weight(cls, weights: Sequence) -> "PartialTermOrder":
        """Partial order grouping equal weight sums, valid once the constructor
        accepts it: w(a) < w(b) iff w(a + g) < w(b + g) for g disjoint from both."""
        return _vouch(cls(len(weights), _induced_level(weights)))

    @classmethod
    def trivial(cls, n: int) -> "PartialTermOrder":
        """Everything on one level."""
        return cls(n, (0,) * (1 << n))

    def to_total(self) -> TermOrder:
        if not self.is_total():
            raise OrderError("partial order has ties; not a total order")
        return TermOrder(self.n, self.level)


# one validator, one writer and one weight answer serve total and partial orders
validate_partial = validate
serialize_partial = serialize_order
find_partial_weight = find_weight
is_coherent_partial = is_coherent


def refines(fine: PartialTermOrder, coarse: PartialTermOrder) -> bool:
    """True when every strict comparison of ``coarse`` holds in ``fine``.

    That is, the coarse level is a non-decreasing function of the fine
    level: among the distinct (fine, coarse) level pairs, sorted, the fine
    levels increase strictly and the coarse levels never decrease.
    """
    if fine.n != coarse.n:
        raise ValueError("ground sets differ")
    pairs = sorted(set(zip(fine.level, coarse.level)))
    return all(f < f2 and c <= c2 for (f, c), (f2, c2) in zip(pairs, pairs[1:]))


def _extreme_rays(rows, n: int) -> list[tuple[int, ...]]:
    """The extreme rays of {w >= 0 : row.w >= 0 for every row}, sorted.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996): the
    unit vectors span the orthant, and each distinct row cuts the cone in
    turn.  Rays on its nonnegative side stay.  Two rays on opposite strict
    sides combine into one on the row when they are adjacent: no third
    ray is tight on every constraint both are tight on, and those are at
    least n - 2, the rank of a 2-face's equalities.  Each ray is a
    gcd-reduced integer vector with the bitmask of its tight constraints:
    bit i for w_i >= 0, bit n + k for the k-th row.
    """
    rays = [
        (tuple(int(i == j) for j in range(n)), ((1 << n) - 1) & ~(1 << i)) for i in range(n)
    ]
    for k, row in enumerate(dict.fromkeys(map(tuple, rows))):
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
                ray = [vq * a + vp * b for a, b in zip(p, q)]
                g = math.gcd(*ray)
                kept.append((tuple(v // g for v in ray), common | bit))
        rays = kept
    return sorted(ray for ray, _ in rays)


def _positive_rays(order: TermOrder) -> list[tuple[int, ...]]:
    """The extreme rays with every coordinate positive of the order's cone.

    The cone holds the weights w with A w >= 0, for A the rows of the
    weight program :func:`coherence._constraints`: w(a) <= w(b) for each of
    the order's distinct comparisons a < b, then w_i >= 0, the orthant the
    double description starts from.  On the cone w(s) >= w(s_1) for every
    nonempty subset s and the first singleton s_1.  So a point of it
    induces a partial term order (the empty set alone at the bottom) iff
    its coordinates are positive, and some point is positive iff some
    extreme ray is.
    """
    require_valid(order)
    return [ray for ray in _extreme_rays(_constraints(order)[0], order.n) if all(ray)]


def coherent_above_only_trivial(order: TermOrder) -> bool:
    """Whether the trivial partition is the only coherent coarsening.

    Any positive point of the order's weight cone (see
    :func:`_positive_rays`) induces a nontrivial coherent partial order
    refined by the order, so the answer is yes iff no extreme ray of the
    cone is positive.
    """
    return not _positive_rays(order)


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
    :func:`validate_partial`'s reason.
    """
    n, level = read_levels(text)
    try:
        order = PartialTermOrder(n, level)
        require_valid(order)
    except OrderError as exc:
        raise PartialOrderError(str(exc)) from None
    return order
