"""Generalized (partial) term orders and the refinement poset.

A partial term order is an ordered partition of the subsets of [n] into
levels, with the empty set alone at the bottom, that is compatible with
disjoint unions: for disjoint gamma, the comparison of alpha and beta
(below, same level, above) is preserved when both sides gain gamma.
Total orders are the partitions into singleton levels; weight vectors
induce partial orders by grouping equal subset sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .core import (
    MAX_GROUND,
    OrderError,
    ParseError,
    TermOrder,
    ValidationReport,
    format_subset,
    read_levels,
    require_valid,
    union_violation,
)
from .coherence import _difference_rows, _lex_min_weight, subset_sum


class PartialOrderError(ParseError, OrderError):
    """A well-formed order file whose levels break the order axioms."""


@dataclass(frozen=True)
class PartialTermOrder:
    """Levels of an ordered partition of the subsets of [n].

    ``level[mask]`` is the 0-based level of the subset; levels are
    contiguous and the empty set sits alone at level 0 (except in the
    trivial one-level partition).
    """

    n: int
    level: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND:
            raise OrderError(f"n must be in 0..{MAX_GROUND}, got {self.n}")
        size = 1 << self.n
        if len(self.level) != size:
            raise OrderError(
                f"level array must have 2^{self.n} = {size} entries, got {len(self.level)}"
            )
        top = max(self.level)
        if sorted(set(self.level)) != list(range(top + 1)):
            raise OrderError("levels must be contiguous starting from 0")
        if self.level[0] != 0:
            raise OrderError("the empty set must lie at the bottom level")
        if top > 0 and self.level.count(0) != 1:
            raise OrderError("the empty set must be alone at the bottom level")

    @classmethod
    def from_total(cls, order: TermOrder) -> "PartialTermOrder":
        require_valid(order)
        return cls(order.n, order.rank)

    @classmethod
    def from_weight(cls, weights: Sequence) -> "PartialTermOrder":
        """Partial order grouping subsets with equal weight sums."""
        n = len(weights)
        sums = [subset_sum(weights, mask) for mask in range(1 << n)]
        distinct = sorted(set(sums))
        index = {s: i for i, s in enumerate(distinct)}
        return cls(n, tuple(index[s] for s in sums))

    @classmethod
    def trivial(cls, n: int) -> "PartialTermOrder":
        """Everything on one level."""
        return cls(n, (0,) * (1 << n))

    @property
    def num_levels(self) -> int:
        return max(self.level) + 1

    @property
    def levels(self) -> list[list[int]]:
        """Subsets grouped by level, each group sorted by mask."""
        out: list[list[int]] = [[] for _ in range(self.num_levels)]
        for mask, lvl in enumerate(self.level):
            out[lvl].append(mask)
        return out

    def is_total(self) -> bool:
        return self.num_levels == len(self.level)

    def to_total(self) -> TermOrder:
        if not self.is_total():
            raise OrderError("partial order has ties; not a total order")
        return TermOrder(self.n, self.level)


def validate_partial(order: PartialTermOrder) -> ValidationReport:
    """Check disjoint-union compatibility of the level map.

    For disjoint alpha, beta, gamma the comparison of alpha and beta must
    equal that of alpha + gamma and beta + gamma.  One violating triple is
    reported, found by :func:`core.union_violation`.
    """
    found = union_violation(order.level, order.n)
    if found is None:
        return ValidationReport(True)
    return ValidationReport(False, violations=[found])


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


def is_coherent_partial(order: PartialTermOrder) -> bool:
    """Whether some weight vector induces exactly these levels."""
    return find_partial_weight(order) is not None


def find_partial_weight(order: PartialTermOrder):
    """An integer weight vector inducing the partial order, or None.

    The lexicographic minimum of the weight program, found as for a total
    order by :func:`coherence.find_weight`: strict level steps are rows
    >= 1, ties are pairs of opposite rows >= 0.  The weights are positive
    except for the one-level order, whose weight is 0.
    """
    weights = _lex_min_weight(order)
    if weights is not None and PartialTermOrder.from_weight(weights).level != order.level:
        raise AssertionError("LP produced a weight vector that does not induce the levels")
    return weights


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

    The cone holds the weights w with w(a) <= w(b) for each two consecutive
    subsets a, b; summing its rows gives w >= 0 and w(s) >= w(s_1) for the
    first singleton s_1.  So a point of it induces a partial term order
    (the empty set alone at the bottom) iff its coordinates are positive,
    and some point is positive iff some extreme ray is.
    """
    require_valid(order)
    return [ray for ray in _extreme_rays(_difference_rows(order), order.n) if all(ray)]


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
    partial order's :func:`find_partial_weight`.  Every nontrivial
    coherent coarsening is induced by a positive point of the cone, whose
    face contains one of these rays.
    """
    return [PartialTermOrder.from_weight(ray) for ray in _positive_rays(order)]


# ---------------------------------------------------------------------------
# order-file format with levels


def serialize_partial(order: PartialTermOrder) -> str:
    """Order-file text; subsets on a shared level are joined with '='."""
    lines = [f"n={order.n}"]
    for group in order.levels:
        lines.append("=".join(format_subset(mask) for mask in group))
    return "\n".join(lines) + "\n"


def parse_partial(text: str) -> PartialTermOrder:
    """Inverse of :func:`serialize_partial`; the format is :func:`core.read_levels`.

    A malformed file raises :class:`ParseError`; well-formed levels that
    are not a partial term order raise :class:`PartialOrderError`.
    """
    n, levels = read_levels(text)
    level = [0] * (1 << n)
    for lvl, group in enumerate(levels):
        for mask in group:
            level[mask] = lvl
    try:
        order = PartialTermOrder(n, tuple(level))
    except OrderError as exc:
        raise PartialOrderError(str(exc)) from None
    report = validate_partial(order)
    if not report:
        a, b, g = report.violations[0]
        raise PartialOrderError(
            f"comparison of {format_subset(a)} and {format_subset(b)} changes under "
            f"{format_subset(g)}"
        )
    return order
