"""Coherence of term orders: weight vectors and noncoherence certificates.

A term order is coherent when some positive weight vector induces it by
subset sums.  Deciding this is an exact rational LP over the consecutive
pairs of the order; the Farkas dual of an infeasible program yields a
cancellation certificate in the style of Kraft, Pratt, and Seidenberg: a
multiset of ordered disjoint pairs whose left and right sides coincide as
multisets of ground elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from . import lp
from .core import (
    DisjointPair,
    OrderError,
    TermOrder,
    format_subset,
    reduced_pair,
    require_valid,
)


class TieError(ValueError):
    """A weight vector with two equal subset sums is not generic."""

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        super().__init__(
            f"subsets {format_subset(a)} and {format_subset(b)} have equal weight"
        )


class CoherentOrderError(ValueError):
    """Raised when a noncoherence certificate is requested for a coherent order."""


@dataclass(frozen=True)
class Certificate:
    """Multiset of ordered disjoint pairs witnessing noncoherence.

    The pairs, with multiplicities, cancel: summing multiplicity times
    (indicator of right minus indicator of left) over all pairs gives the
    zero vector, while every pair is strictly increasing in the order under
    test.  Multiplying the comparisons then forces a product to precede
    itself, which no weight vector allows.
    """

    pairs: tuple[DisjointPair, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.multiplicities):
            raise ValueError("pairs and multiplicities must have equal length")
        if any(m <= 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")


def subset_sum(w: Sequence, mask: int):
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += w[i]
        mask >>= 1
        i += 1
    return total


def order_from_weight(w: Sequence, n: int) -> TermOrder:
    """Sort subsets by weight sum; raises TieError for non-generic weights."""
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if any(v <= 0 for v in w):
        raise ValueError("weights must be positive")
    sums = [(subset_sum(w, mask), mask) for mask in range(1 << n)]
    sums.sort()
    for (s1, m1), (s2, m2) in zip(sums, sums[1:]):
        if s1 == s2:
            raise TieError(m1, m2)
    return TermOrder.from_chain(n, [mask for _, mask in sums])


def _difference_rows(order: TermOrder) -> list[list[int]]:
    """Indicator differences of the consecutive pairs of the order."""
    n = order.n
    rows = []
    for a, b in zip(order.chain, order.chain[1:]):
        rows.append([((b >> i) & 1) - ((a >> i) & 1) for i in range(n)])
    return rows


def _constraints(order: TermOrder) -> tuple[list[list[int]], list[int]]:
    # consecutive-pair rows plus w_i >= 1; transitivity supplies the rest
    n = order.n
    rows = _difference_rows(order)
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(unit)
    return rows, [1] * len(rows)


def _to_integer_weights(w: list[Fraction]) -> tuple[int, ...]:
    denom = reduce(math.lcm, (v.denominator for v in w), 1)
    ints = [int(v * denom) for v in w]
    g = reduce(math.gcd, ints, 0)
    return tuple(v // g for v in ints)


def find_weight(order: TermOrder):
    """A positive integer weight vector inducing the order, or None.

    Feasibility is decided by the Farkas dual, as in :func:`is_coherent`.
    The result is the lexicographic minimum of the feasible region, scaled
    to coprime integers, so outputs are reproducible.  By strong duality
    each coordinate's minimum, with the earlier ones pinned, is a dual
    optimum (n rows); a pin w_i = opt is a pair of opposite rows, that is a
    free dual column.  The minimum is the vector of these optima, so no
    primal program is solved.
    """
    require_valid(order)
    n = order.n
    rows, rhs = _constraints(order)
    if lp.farkas_ge(rows, rhs) is not None:
        return None
    w = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        status, _, opt = lp.maximize_dual(rows, rhs, unit)
        assert status == "optimal"
        w.append(opt)
        rows = rows + [unit, [-v for v in unit]]
        rhs = rhs + [opt, -opt]
    weights = _to_integer_weights(w)
    check = order_from_weight(weights, n)
    if check != order:
        raise AssertionError("LP produced a weight vector that does not induce the order")
    return weights


def noncoherence_certificate(order: TermOrder) -> Certificate:
    """Extract a cancellation certificate from the Farkas dual.

    Raises CoherentOrderError if the order is coherent.  The dual solution
    is cleared to integers and duplicate reduced pairs are merged; the
    result always passes :func:`verify_certificate`.
    """
    require_valid(order)
    rows, rhs = _constraints(order)
    lam = lp.farkas_ge(rows, rhs)
    if lam is None:
        raise CoherentOrderError("order is coherent; no certificate exists")
    denom = reduce(math.lcm, (v.denominator for v in lam), 1)
    mults = [int(v * denom) for v in lam]
    g = reduce(math.gcd, mults)
    chain = order.chain
    n = order.n
    combined: dict[tuple[int, int], int] = {}
    for k, m in enumerate(mults):
        if m == 0:
            continue
        if k < len(chain) - 1:
            left, right = reduced_pair(chain[k], chain[k + 1])
        else:
            left, right = 0, 1 << (k - (len(chain) - 1))  # unit row: {} < {i}
        combined[(left, right)] = combined.get((left, right), 0) + m // g
    cert = Certificate(
        pairs=tuple(DisjointPair(l, r) for l, r in sorted(combined)),
        multiplicities=tuple(combined[key] for key in sorted(combined)),
    )
    check = verify_certificate(order, cert)
    if not check:
        raise AssertionError(f"extracted certificate failed verification: {check.reason}")
    return cert


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(order: TermOrder, cert: Certificate) -> CertificateCheck:
    """Check both certificate invariants against the order."""
    n = order.n
    counts = [0] * n
    for pair, mult in zip(cert.pairs, cert.multiplicities):
        if order.rank[pair.left] >= order.rank[pair.right]:
            return CertificateCheck(False, f"pair {pair} is not increasing in the order")
        for i in range(n):
            counts[i] += mult * (((pair.right >> i) & 1) - ((pair.left >> i) & 1))
    if any(counts):
        return CertificateCheck(
            False, f"left and right element multisets differ: {counts}"
        )
    return CertificateCheck(True)


def is_coherent(order: TermOrder) -> bool:
    """Decide coherence through the Farkas dual.

    The dual system has only n + 1 equality rows versus the primal's
    2^n - 1 + n, so it is much faster to solve; by Farkas' lemma exactly
    one of the two systems is feasible, and both are solved in exact
    rational arithmetic.  The empty order (n = 0) is coherent.
    """
    require_valid(order)
    rows, rhs = _constraints(order)
    return lp.farkas_ge(rows, rhs) is None
