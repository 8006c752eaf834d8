"""Cocircuit signatures of the root-system matroid and localization checks.

Nonzero sign vectors in {+,0,-}^n are in bijection with the cocircuits of
the rank-n matroid of the root system (e_i, e_i+e_j, e_i-e_j): the
cocircuit entry at a root is the sign of the root's pairing with the
vector.  A (partial) term order signs every cocircuit by comparing the
negative support against the positive support; such a signing is always a
localization (one-element extension), and conversely a signing comes from
an order exactly when it passes the two addition conditions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import TermOrder, require_valid

SignVector = tuple[int, ...]


def sign_vectors(n: int) -> list[SignVector]:
    """All 3^n - 1 nonzero sign vectors."""
    return [
        v for v in itertools.product((1, 0, -1), repeat=n) if any(v)
    ]


def negate(x: SignVector) -> SignVector:
    return tuple(-v for v in x)


def positive_part(x: SignVector) -> int:
    """Mask of coordinates with sign +."""
    mask = 0
    for i, v in enumerate(x):
        if v > 0:
            mask |= 1 << i
    return mask


def negative_part(x: SignVector) -> int:
    return positive_part(negate(x))


def from_parts(pos: int, neg: int, n: int) -> SignVector:
    assert not pos & neg
    return tuple(
        1 if pos >> i & 1 else (-1 if neg >> i & 1 else 0) for i in range(n)
    )


def _sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def cocircuit(x: SignVector) -> SignVector:
    """Signs of the root pairings, in root order (e_i, sums, differences)."""
    if not any(x):
        raise ValueError("zero sign vector has no cocircuit")
    n = len(x)
    out = list(x)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(_sgn(x[i] + x[j]))
    for i in range(n):
        for j in range(i + 1, n):
            out.append(_sgn(x[i] - x[j]))
    return tuple(out)


class Signature:
    """An antisymmetric signing of all nonzero sign vectors."""

    def __init__(self, n: int, values: Mapping[SignVector, int]):
        self.n = n
        full = {}
        for x in sign_vectors(n):
            if x in values:
                full[x] = values[x]
            elif negate(x) in values:
                full[x] = -values[negate(x)]
            else:
                raise ValueError(f"signature missing value for {x}")
        for x, v in full.items():
            if full[negate(x)] != -v:
                raise ValueError(f"signature not antisymmetric at {x}")
        self.values = full

    @classmethod
    def from_positives(cls, n: int, positives: Iterable[SignVector]) -> "Signature":
        """+ on the given vectors, - on their negatives, 0 elsewhere."""
        values = {x: 0 for x in sign_vectors(n)}
        for x in positives:
            values[tuple(x)] = 1
            values[negate(tuple(x))] = -1
        return cls(n, values)

    def __call__(self, x: SignVector) -> int:
        return self.values[tuple(x)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.values == other.values

    def nonnegative(self) -> list[SignVector]:
        return [x for x, v in self.values.items() if v >= 0]


def mu_from_order(order) -> Signature:
    """The signature comparing negative against positive supports.

    Accepts a total order or a partial order with a ``level`` array; the
    value at x is + when the negative support precedes the positive one.
    """
    if isinstance(order, TermOrder):
        require_valid(order)
        level = order.rank
        n = order.n
    else:
        level = order.level
        n = order.n
    values = {}
    for x in sign_vectors(n):
        pos = positive_part(x)
        neg = negative_part(x)
        if level[neg] < level[pos]:
            values[x] = 1
        elif level[pos] < level[neg]:
            values[x] = -1
        else:
            values[x] = 0
    return Signature(n, values)


@dataclass
class LocalizationReport:
    ok: bool
    witness: tuple | None = None  # (X, Y, root index) with no eliminator

    def __bool__(self) -> bool:
        return self.ok


CHUNK = 5  # bits per chunk-table lookup in check_localization


@functools.lru_cache(maxsize=None)
def _localization_tables(n: int):
    """Bitsets over the indices of ``sign_vectors(n)``, built once per n.

    With m = n^2 roots, vector i's cocircuit is the 2m-bit word
    ``words[i]``: bit r for + at root r, bit m + r for - at root r.
    ``zero[r]`` is the bitset of the vectors whose cocircuit vanishes at r.
    ``chunks`` splits the word into CHUNK-bit pieces: for the piece at
    ``shift``, ``table[v]`` is the OR of the bitsets of the vectors having
    a word bit among the bits v sets there.
    """
    vectors = sign_vectors(n)
    m = n * n
    words = []
    zero = [0] * m
    having = [0] * (2 * m)  # word bit -> the vectors whose word has it
    for i, x in enumerate(vectors):
        word = 0
        for r, v in enumerate(cocircuit(x)):
            if v == 0:
                zero[r] |= 1 << i
                continue
            b = r if v > 0 else m + r
            word |= 1 << b
            having[b] |= 1 << i
        words.append(word)
    chunks = []
    for shift in range(0, 2 * m, CHUNK):
        bits = having[shift : shift + CHUNK]
        table = [0] * (1 << len(bits))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | bits[low.bit_length() - 1]
        chunks.append((shift, table))
    return vectors, words, zero, chunks


def check_localization(sigma: Signature) -> LocalizationReport:
    """Weak cocircuit elimination over the nonnegative support of sigma.

    For every X, Y with sigma in {+,0}, not opposite, and every root where
    the cocircuits clash in sign, some Z with sigma in {+,0} must vanish at
    that root and have cocircuit supports inside the union of supports.
    The search runs over all nonzero candidates, not just the constructed
    ones, as bitsets over the sign-vector indices: the candidates are the
    allowed vectors minus those with a cocircuit sign outside the union
    (by chunk-table lookups), and a clashing root e needs one of them in
    ``zero[e]``.  Pairs run in ``sign_vectors`` order and roots from low
    to high, so the witness (X, Y, root index) is the first such failure.
    """
    n = sigma.n
    vectors, words, zero, chunks = _localization_tables(n)
    m = n * n
    full = (1 << 2 * m) - 1
    mask = (1 << CHUNK) - 1
    values = sigma.values
    # each allowed vector as (index, the - half of its word, the bits outside its word)
    rows = [
        (i, w >> m, full & ~w)
        for i, (x, w) in enumerate(zip(vectors, words))
        if values[x] >= 0
    ]
    allowed = sum(1 << i for i, _, _ in rows)
    opposite = len(vectors) - 1  # vectors[i] and vectors[opposite - i] are negatives
    for i, _, cx in rows:
        px = words[i] & (1 << m) - 1
        for j, ny, cy in rows:
            clash = px & ny
            if not clash or i + j == opposite:
                continue
            outside = cx & cy
            banned = 0
            for shift, table in chunks:
                banned |= table[outside >> shift & mask]
            candidates = allowed & ~banned
            while clash:
                bit = clash & -clash
                e = bit.bit_length() - 1
                if not candidates & zero[e]:
                    return LocalizationReport(False, (vectors[i], vectors[j], e))
                clash ^= bit
    return LocalizationReport(True)


def elimination_candidates(x: SignVector, y: SignVector) -> list[SignVector]:
    """The explicitly constructed eliminators for a pair of sign vectors.

    Decomposes the supports into shared, swapped, and private parts and
    returns the standard five composite vectors (six when the shared parts
    are empty), dropping any that vanish.
    """
    xp, xn = positive_part(x), negative_part(x)
    yp, yn = positive_part(y), negative_part(y)
    m = xn & yn
    p = xp & yp
    sx = xn & yp  # negative in x, positive in y
    sy = xp & yn
    a = xn & ~(m | sx)
    b = xp & ~(p | sy)
    c = yn & ~(m | sy)
    d = yp & ~(p | sx)
    n = len(x)
    raw = [
        (p, m),
        (b | p, a | m),
        (d | p, c | m),
        (b | d | p | sy, a | c | m | sx),
        (b | d | p | sx, a | c | m | sy),
    ]
    if m == 0 and p == 0:
        raw.append((b | d, a | c))
    out = []
    for zp, zn in raw:
        if zp or zn:
            z = from_parts(zp, zn, n)
            if z not in out:
                out.append(z)
    return out


@dataclass
class MuReport:
    ok: bool
    failed_condition: int | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _compose(x: SignVector, y: SignVector) -> SignVector:
    # defined when y agrees with -x wherever both are nonzero
    return tuple(
        xi if yi == 0 else (yi if xi == 0 else 0) for xi, yi in zip(x, y)
    )


def check_mu_conditions(mu: Signature) -> MuReport:
    """The antisymmetry and addition conditions characterizing order signatures."""
    n = mu.n
    vectors = sign_vectors(n)
    for x in vectors:
        if mu(negate(x)) != -mu(x):
            return MuReport(False, 1, (x,))
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

    Subsets compare through the sign vector of their disjoint reduction;
    incomparability classes become shared levels.  Raises if the relation
    is not an ordered partition (the signature then fails the addition
    conditions).
    """
    from .baues import PartialTermOrder

    n = mu.n
    size = 1 << n

    def compare(u, v):
        common = u & v
        ru, rv = u & ~common, v & ~common
        if ru == rv:
            return 0
        x = from_parts(rv, ru, n)  # + iff u below v
        return mu(x)

    # group by incomparability, then sort groups
    masks = list(range(size))
    groups: list[list[int]] = []
    for mask in masks:
        for group in groups:
            if compare(mask, group[0]) == 0:
                group.append(mask)
                break
        else:
            groups.append([mask])
    for group in groups:
        for u in group:
            for v in group:
                if compare(u, v) != 0:
                    raise ValueError("incomparability is not transitive")
    groups.sort(key=lambda g: sum(compare(v, g[0]) for v in masks))
    level = [0] * size
    for lvl, group in enumerate(groups):
        for mask in group:
            level[mask] = lvl
    # a cyclic relation survives sorting; reject unless levels agree everywhere
    for u in masks:
        for v in masks:
            cmp = compare(u, v)
            if cmp != (level[v] > level[u]) - (level[v] < level[u]):
                raise ValueError("signature comparisons contain a cycle")
    return PartialTermOrder(n=n, level=tuple(level))
