"""Coherence of term orders: weight vectors and noncoherence certificates.

A total or partial term order is coherent when some weight vector induces
its levels by subset sums.  Deciding this is an exact rational LP over the
distinct comparisons of consecutive levels, solved on the dual side: one
lexicographic solve decides it and gives the least weight, and the Farkas
dual of an infeasible program a cancellation certificate in the style of
Kraft, Pratt, and Seidenberg: a multiset of ordered disjoint pairs whose
left and right sides coincide as multisets of ground elements.

One builder, :func:`_program`, reads the weight program off the level
array's chain for the weight solve, the certificate and ``baues``' cone:
each comparison is one integer code, so repeats drop by code, and each
row comes from a table cached per n <= 8 (:func:`_code_tables`).  Per
class (medians of 41 interleaved batches; 2 cores, Python 3.11.7),
:func:`find_weight` takes about 73 us on a coherent and 52 us on a
noncoherent n=5 class, and 97 and 73 us at n = 6 (first 600 classes);
:func:`noncoherence_certificate` about 136 and 171 us, and
``baues._positive_rays`` on a noncoherent class 93 and 136 us.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from numbers import Rational
from operator import sub

from . import lp
from .core import (
    DisjointPair,
    TermOrder,
    _Frozen,
    _Verdict,
    _ground,
    _vouch,
    format_subset,
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
    distinct = sorted(set(sums))
    index = dict(zip(distinct, range(len(distinct))))
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


def _row(code: int, n: int) -> tuple[int, ...]:
    """The row of a comparison's code: its n balanced-ternary digits, lowest first."""
    row = []
    for _ in range(n):
        digit = (code + 1) % 3 - 1
        row.append(digit)
        code = (code - digit) // 3
    return tuple(row)


@functools.lru_cache(maxsize=None)
def _code_tables(n: int) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
    """The weight program's per-n tables: each mask's code, the row of each
    code (``rows[c]``, a negative c from the end) and the unit rows' codes.

    A subset's code is the sum of 3^j over its elements j, so a comparison
    ``right > left`` has code code(right) - code(left), the balanced-ternary
    number whose digit j is bit j of right minus bit j of left: one integer
    per row, shared by every pair with the same reduced pair.  Built on first
    use and cached for n <= 8 (3^n rows: 0.07 MB at n = 6, 0.74 MB at n = 8);
    above, built per call without rows.
    """
    units = [3**j for j in range(n)]
    half = 3**n // 2
    codes = [*range(half + 1), *range(-half, 0)] if n <= 8 else []
    return _weight_sums(units), [_row(c, n) for c in codes], units


def _program(order) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
    """The weight program A w >= b as the codes, rows and right-hand sides of
    its distinct comparisons w(right) - w(left) >= rhs (see :func:`_code_tables`).

    In first-occurrence order: the comparison of each two consecutive levels
    (first subsets) with rhs 1, then w_i >= 1 when the empty set is alone at
    the bottom, then both directions of each tie with its level's first
    subset, rhs 0.  Transitivity supplies the rest, so the solutions induce
    exactly the levels (the one-level order forces w = 0).  Under either
    entering rule of ``lp`` a repeated row never enters a basis, so dropping
    repeats leaves every pivot, weight and certificate unchanged.
    """
    n = order.n
    masks, table, units = (_code_tables if n <= 8 else _code_tables.__wrapped__)(n)
    levels = () if order.is_total() else order.levels
    firsts = [masks[group[0]] for group in levels] or list(map(masks.__getitem__, order.chain))
    ones = dict.fromkeys(map(sub, firsts[1:], firsts))
    if order.level.count(0) == 1:
        ones.update(dict.fromkeys(units))
    ties = []
    for group in levels:
        low = masks[group[0]]
        for other in group[1:]:
            ties += [masks[other] - low, low - masks[other]]
    codes = [*ones, *dict.fromkeys(ties)]
    rows = list(map(table.__getitem__, codes)) if n <= 8 else [_row(c, n) for c in codes]
    return codes, rows, [1] * len(ones) + [0] * (len(codes) - len(ones))


def _pair(row) -> tuple[int, int]:
    """The reduced pair (left, right) of a program row: its -1 and +1 entries as masks."""
    left = right = 0
    for j, v in enumerate(row):
        if v < 0:
            left |= 1 << j
        elif v:
            right |= 1 << j
    return left, right


def _coprime(numerators) -> tuple[int, ...]:
    """Numerators over one positive denominator, divided by their gcd (zeros stay zeros)."""
    g = math.gcd(*numerators) or 1
    return tuple(v // g for v in numerators)


def find_weight(order):
    """An integer weight vector inducing a total or partial order's levels, or None.

    The lexicographic minimum of :func:`_program` by one dual solve, as
    coprime integers, so outputs are reproducible; positive except for the
    one-level order's 0, and rechecked against the level array it induces.
    """
    require_valid(order)
    n = order.n
    codes, rows, rhs = _program(order)
    basis = [codes.index(3**j) for j in range(n)]
    solution = lp._lex_min([*zip(*rows)], basis, rhs)
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
    _, rows, rhs = _program(order)
    # the Farkas dual lam.A = 0, lam.b = 1, lam >= 0 of lp.farkas_ge, on integers
    dual = [[*column, 0] for column in zip(*rows)]
    dual.append([*rhs, 1])
    lam = lp._solve_eq(dual, [0] * len(rows))[2]
    if lam is None:
        raise CoherentOrderError("order is coherent; no certificate exists")
    mults = _coprime(lam)
    used = sorted((*_pair(row), m) for row, m in zip(rows, mults) if m)
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
