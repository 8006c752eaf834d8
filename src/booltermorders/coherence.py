"""Coherence of term orders: weight vectors and noncoherence certificates.

A total or partial term order is coherent when some weight vector induces
its levels by subset sums.  Deciding this is an exact rational LP over the
distinct comparisons of consecutive levels, solved on the dual side: one
lexicographic solve decides it and gives the least weight, and the Farkas
dual of an infeasible program a cancellation certificate in the style of
Kraft, Pratt, and Seidenberg: a multiset of ordered disjoint pairs whose
left and right sides coincide as multisets of ground elements.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat
from numbers import Rational
from operator import and_, xor

from . import lp
from .core import (
    DisjointPair,
    TermOrder,
    _Frozen,
    _Verdict,
    _ground,
    _vouch,
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


class Certificate(_Frozen):
    """Multiset of ordered disjoint pairs witnessing noncoherence.

    The pairs, with multiplicities, cancel: summing multiplicity times
    (indicator of right minus indicator of left) over all pairs gives the
    zero vector, while every pair is strictly increasing in the order under
    test.  Multiplying the comparisons then forces a product to precede
    itself, which no weight vector allows.
    """

    _fields = ("pairs", "multiplicities")

    def __init__(self, pairs: tuple[DisjointPair, ...], multiplicities: tuple[int, ...]):
        if len(pairs) != len(multiplicities):
            raise ValueError("pairs and multiplicities must have equal length")
        if any(m <= 0 for m in multiplicities):
            raise ValueError("multiplicities must be positive")
        self.__dict__.update(pairs=pairs, multiplicities=multiplicities)


def subset_sum(w: Sequence, mask: int):
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += w[i]
        mask >>= 1
        i += 1
    return total


def _weight_sums(w: Sequence) -> list:
    """Every subset's weight sum, by mask; floats, whose sums round, are refused."""
    if not all(isinstance(v, Rational) for v in w):
        raise ValueError(f"weights must be integers or fractions, got {tuple(w)}")
    sums = [0]
    for v in w:
        sums += [s + v for s in sums]  # the subsets with v after those without
    return sums


def _induced_level(w: Sequence) -> tuple[int, ...]:
    """The level array w induces (equal sums on one level), once len(w) is in bounds."""
    _ground(len(w))
    sums = _weight_sums(w)
    index = {s: i for i, s in enumerate(sorted(set(sums)))}
    return tuple(map(index.__getitem__, sums))


def order_from_weight(w: Sequence, n: int) -> TermOrder:
    """Sort subsets by weight sum; raises TieError for non-generic weights."""
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    level = _induced_level(w)
    if any(v <= 0 for v in w):
        raise ValueError("weights must be positive")
    if max(level) + 1 < len(level):
        chain = sorted(range(1 << n), key=level.__getitem__)  # ties by mask
        raise TieError(*next((a, b) for a, b in zip(chain, chain[1:]) if level[a] == level[b]))
    return _vouch(TermOrder(n, level))


def _comparisons(order) -> list[tuple[int, int, int]]:
    """The weight program as distinct comparisons w(right) - w(left) >= rhs.

    In first-occurrence order: the reduced pair of each two consecutive
    levels (first subsets) with rhs 1, then ({}, {i}, 1) when the empty set
    is alone at the bottom, then both directions of each tie with its
    level's first subset, rhs 0.  Transitivity supplies the rest, so the
    solutions induce exactly the levels (the one-level order forces w = 0).
    Under either entering rule of ``lp`` a repeated row never enters a basis,
    so dropping repeats leaves every pivot, weight and certificate unchanged.
    """
    levels = () if order.is_total() else order.levels
    firsts = [group[0] for group in levels] or order.chain
    common = list(map(and_, firsts, firsts[1:]))
    comps = list(zip(map(xor, firsts, common), map(xor, firsts[1:], common), repeat(1)))
    if order.level.count(0) == 1:
        comps += [(0, 1 << i, 1) for i in range(order.n)]
    for group in levels:
        for other in group[1:]:
            left, right = reduced_pair(group[0], other)
            comps += [(left, right, 0), (right, left, 0)]
    return list(dict.fromkeys(comps))


def _columns(comps, n: int) -> list[list[int]]:
    """The weight program's n columns (bit j of right minus bit j of left), then b."""
    columns = [[(r >> j & 1) - (l >> j & 1) for l, r, _ in comps] for j in range(n)]
    return columns + [[rhs for _, _, rhs in comps]]


def _constraints(order) -> tuple[list[list[int]], list[int]]:
    """The weight program A w >= b, one row per :func:`_comparisons` entry."""
    *columns, rhs = _columns(_comparisons(order), order.n)
    return list(map(list, zip(*columns))), rhs


def _coprime(numerators) -> tuple[int, ...]:
    """Numerators over one positive denominator, divided by their gcd (zeros stay zeros)."""
    g = math.gcd(*numerators) or 1
    return tuple(v // g for v in numerators)


def find_weight(order):
    """An integer weight vector inducing a total or partial order's levels, or None.

    The lexicographic minimum of :func:`_constraints` by one dual solve, as
    coprime integers, so outputs are reproducible; positive except for the
    one-level order's 0, and rechecked against the level array it induces.
    """
    require_valid(order)
    comps = _comparisons(order)
    pairs = [comp[:2] for comp in comps]
    basis = [pairs.index((0, 1 << j)) for j in range(order.n)]
    *columns, rhs = _columns(comps, order.n)
    solution = lp._lex_min(columns, basis, rhs)
    if solution is None:
        return None
    weights = _coprime(solution[1])
    if _induced_level(weights) != order.level:
        raise AssertionError("LP produced a weight vector that does not induce the order")
    return weights


def noncoherence_certificate(order) -> Certificate:
    """Extract a cancellation certificate from the Farkas dual.

    Raises CoherentOrderError if the order is coherent, and ValueError if
    it has ties, whose rows would give pairs that do not increase.  The
    dual solution's numerators, divided by their gcd, are the multiplicities
    of the distinct comparisons; the result always passes :func:`verify_certificate`.
    """
    require_valid(order)
    if not order.is_total():
        raise ValueError("a noncoherence certificate needs a total order; this one has ties")
    comps = _comparisons(order)
    # the Farkas dual lam.A = 0, lam.b = 1, lam >= 0 of lp.farkas_ge, on integers
    rows = [row + [0] for row in _columns(comps, order.n)]
    rows[-1][-1] = 1
    lam = lp._solve_eq(rows, [0] * len(comps))[2]
    if lam is None:
        raise CoherentOrderError("order is coherent; no certificate exists")
    mults = _coprime(lam)
    used = sorted((left, right, m) for (left, right, _), m in zip(comps, mults) if m)
    cert = Certificate(
        pairs=tuple(DisjointPair(left, right) for left, right, _ in used),
        multiplicities=tuple(m for _, _, m in used),
    )
    check = verify_certificate(order, cert)
    if not check:
        raise AssertionError(f"extracted certificate failed verification: {check.reason}")
    return cert


class CertificateCheck(_Frozen, _Verdict):
    _fields = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = ""):
        self.__dict__.update(ok=ok, reason=reason)


def verify_certificate(order, cert: Certificate) -> CertificateCheck:
    """Pairs must exist, lie in [n], increase strictly in ``order.level`` and cancel
    (ruling out any inducing weight, ties or not); an invalid order raises OrderError."""
    require_valid(order)
    n, level = order.n, order.level
    if not cert.pairs:
        return CertificateCheck(False, "the certificate has no pairs")
    counts = [0] * n
    for pair, mult in zip(cert.pairs, cert.multiplicities):
        if (pair.left | pair.right) >> n:
            return CertificateCheck(False, f"pair {pair} has a side outside [{n}]")
        if level[pair.left] >= level[pair.right]:
            return CertificateCheck(False, f"pair {pair} is not increasing in the order")
        for i in range(n):
            counts[i] += mult * (((pair.right >> i) & 1) - ((pair.left >> i) & 1))
    if any(counts):
        return CertificateCheck(
            False, f"left and right element multisets differ: {counts}"
        )
    return CertificateCheck(True)


def is_coherent(order) -> bool:
    """Whether some weight vector induces the order's levels.

    Decided by :func:`find_weight`'s lexicographic solve, so every yes is
    rechecked by the level array the weight induces.  The empty order
    (n = 0) is coherent.
    """
    return find_weight(order) is not None
