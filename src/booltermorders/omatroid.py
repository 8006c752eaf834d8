"""Cocircuit signatures of the root-system matroid and localization checks.

Nonzero sign vectors in {+,0,-}^n are in bijection with the cocircuits of
the rank-n matroid of the root system (e_i, e_i+e_j, e_i-e_j): the
cocircuit entry at a root is the sign of the root's pairing with the
vector.  A (partial) term order signs every cocircuit by comparing the
negative support against the positive support; such a signing is always a
localization (one-element extension), and conversely a signing comes from
an order exactly when it passes the two addition conditions.

Localization is tested on the colines (rank-2 contractions), by Las
Vergnas (1978): a signing is a localization iff on every coline its 8
signs are all 0, or 0 on one antipodal pair and constant on each open
half-arc, or nowhere 0 with exactly two sign changes around the cycle.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping

from .core import _Verdict, is_valid

SignVector = tuple[int, ...]

MAX_SIGNATURE = 8  # the largest n for mu_from_order, which signs 3^n - 1 vectors


def sign_vectors(n: int) -> list[SignVector]:
    """All 3^n - 1 nonzero sign vectors."""
    return [v for v in itertools.product((1, 0, -1), repeat=n) if any(v)]


def negate(x: SignVector) -> SignVector:
    return tuple(-v for v in x)


def from_parts(pos: int, neg: int, n: int) -> SignVector:
    assert not pos & neg
    return tuple(1 if pos >> i & 1 else (-1 if neg >> i & 1 else 0) for i in range(n))


class Signature:
    """An antisymmetric signing of all nonzero sign vectors by -1, 0 and 1."""

    def __init__(self, n: int, values: Mapping[SignVector, int]):
        if not 0 <= n <= MAX_SIGNATURE:  # before 3^n - 1 sign vectors are built
            raise ValueError(f"n must be in 0..{MAX_SIGNATURE} for a signature, got {n}")
        self.n = n
        full = {}
        for x in sign_vectors(n):
            if x in values:
                full[x] = values[x]
            elif negate(x) in values:
                full[x] = -values[negate(x)]
            else:
                raise ValueError(f"signature missing value for {x}")
            if full[x] not in (-1, 0, 1):
                raise ValueError(f"signature value {full[x]!r} at {x} is not -1, 0 or 1")
        for x, v in full.items():
            if full[negate(x)] != -v:
                raise ValueError(f"signature not antisymmetric at {x}")
        self.values = full

    def __call__(self, x: SignVector) -> int:
        return self.values[tuple(x)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.values == other.values


def mu_from_order(order) -> Signature:
    """The signature comparing negative against positive supports.

    Reads the ``level`` array of a total or partial order, which is not
    validated here; the value at x is + when the negative support lies
    below the positive one.  The values are antisymmetric by construction,
    so the signature is built without the checks of :class:`Signature`.
    """
    level = order.level
    n = order.n
    if n > MAX_SIGNATURE:
        raise ValueError(f"n must be at most {MAX_SIGNATURE} for a signature, got {n}")
    # (x, positive part, negative part), the first coordinate varying slowest
    parts = [((), 0, 0)]
    for i in reversed(range(n)):
        bit = 1 << i
        parts = [
            ((s,) + x, pos | bit * (s > 0), neg | bit * (s < 0))
            for s in (1, 0, -1)
            for x, pos, neg in parts
        ]
    sigma = Signature.__new__(Signature)
    sigma.n = n
    sigma.values = {
        x: (level[pos] > level[neg]) - (level[pos] < level[neg])
        for x, pos, neg in parts
        if pos or neg
    }
    return sigma


class LocalizationReport(_Verdict):
    _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple | None = None):
        # witness: (X, Y, signs), a failing coline and sigma on its 8 cocircuits
        self.ok, self.witness = ok, witness


def _coline_ok(cycle: SignVector) -> bool:
    """Whether 8 signs around a coline are those of a loop, of an element
    on one of its lines, or of one in general position (see
    :func:`check_localization`)."""
    zeros = [k for k, s in enumerate(cycle) if s == 0]
    if not zeros:
        return sum(cycle[k - 1] != cycle[k] for k in range(8)) == 2
    if len(zeros) == 2:  # an antipodal pair k, k + 4
        k = zeros[0]
        return len(set(cycle[k + 1 : k + 4])) == 1
    return len(zeros) == 8


# sigma on X, X+Y, Y, Y-X decides a coline by antisymmetry: all 81 patterns
_COLINE_OK = {
    signs: _coline_ok(signs + negate(signs))
    for signs in itertools.product((1, 0, -1), repeat=4)
}


@functools.lru_cache(maxsize=None)
def _colines(n: int) -> list[tuple[SignVector, ...]]:
    """Each coline of B_n once, as its cocircuits X, X+Y, Y, Y-X.

    X and Y have disjoint supports and first nonzero entry +, and X's
    support starts first; their coline's cocircuits run X, X+Y, Y, Y-X,
    -X, -X-Y, -Y, X-Y around a circle.
    """
    start = {v: next(i for i, s in enumerate(v) if s) for v in sign_vectors(n)}
    heads = [v for v, i in start.items() if v[i] > 0]
    return [
        (x, tuple(a + b for a, b in zip(x, y)), y, tuple(b - a for a, b in zip(x, y)))
        for x in heads
        for y in heads
        if start[x] < start[y] and not any(a and b for a, b in zip(x, y))
    ]


def check_localization(sigma: Signature) -> LocalizationReport:
    """Whether sigma is a localization, tested on every rank-2 contraction.

    By Las Vergnas (1978; Bjorner, Las Vergnas, Sturmfels, White and
    Ziegler, *Oriented Matroids*, 7.1), a signing of the cocircuits is a
    localization iff it is one on every coline.  On a coline's 8
    cocircuits the signs must be all 0; or 0 on exactly one antipodal
    pair, with each open half-arc of one sign; or nowhere 0, with exactly
    two sign changes around the cycle.  The witness is the first failing
    coline in ``_colines`` order, as (X, Y, its 8 signs).
    """
    values = sigma.values
    for x, s, y, d in _colines(sigma.n):
        signs = (values[x], values[s], values[y], values[d])
        if not _COLINE_OK[signs]:
            return LocalizationReport(False, (x, y, signs + negate(signs)))
    return LocalizationReport(True)


class MuReport(_Verdict):
    _fields = ("ok", "failed_condition", "witness")

    def __init__(self, ok: bool, failed_condition: int | None = None,
                 witness: tuple | None = None):
        self.ok, self.failed_condition, self.witness = ok, failed_condition, witness


def _compose(x: SignVector, y: SignVector) -> SignVector:
    # defined when y agrees with -x wherever both are nonzero
    return tuple(xi if yi == 0 else (yi if xi == 0 else 0) for xi, yi in zip(x, y))


def check_mu_conditions(mu: Signature) -> MuReport:
    """The addition conditions characterizing order signatures, 2 and 3.

    Condition 1, antisymmetry, holds for every :class:`Signature`: its
    constructor rejects a map that breaks it, and :func:`mu_from_order`
    signs antisymmetrically by construction.
    """
    vectors = sign_vectors(mu.n)
    for x in vectors:
        mx = mu(x)
        if mx < 0:
            continue
        for y in vectors:
            if mu(y) != 1:
                continue
            if any(xi != 0 and xi == yi for xi, yi in zip(x, y)):
                continue
            z = _compose(x, y)
            if not any(z):
                continue
            if mu(z) != 1:
                condition = 2 if mx == 1 else 3
                return MuReport(False, condition, (x, y, z))
    return MuReport(True)


def partial_order_from_signature(mu: Signature):
    """Rebuild the level structure a passing signature encodes.

    Subsets compare through the sign vector of their disjoint reduction.
    One sort by that comparison orders the masks, and each strict step
    starts a new level.  The levels are accepted when they satisfy the
    union axiom and sign back to ``mu``: then every comparison is the
    signature's.  Otherwise the relation is cyclic or its ties are not
    transitive (the signature fails the addition conditions), and
    ValueError is raised.
    """
    from .baues import PartialTermOrder

    n = mu.n
    values = mu.values

    def compare(u, v):  # -1 when u lies below v
        common = u & v
        return -values[from_parts(v & ~common, u & ~common, n)] if u != v else 0

    chain = sorted(range(1 << n), key=functools.cmp_to_key(compare))
    level = [0] * len(chain)
    for a, b in zip(chain, chain[1:]):
        level[b] = level[a] + (compare(a, b) != 0)
    order = PartialTermOrder(n, tuple(level))
    if not is_valid(order) or mu_from_order(order).values != values:
        raise ValueError("signature comparisons are not those of an ordered partition")
    return order
