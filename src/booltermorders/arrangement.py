"""The arrangement of all {0,+1,-1}-normal hyperplanes and its invariants.

The characteristic polynomial is computed by counting, over several prime
fields, the vectors all of whose 2^n subset sums are distinct, then
interpolating; an extra prime cross-validates the result.  The test suite
compares n <= 3 with an independent intersection-lattice Moebius
computation (``tests/oracles.py``).  The absolute value at -1 is the
region count (Zaslavsky), which for this arrangement is 2^n * n! times the
number of coherent order classes.

Points are counted up to the symmetries of the arrangement, B_n (permuting
and negating coordinates) and scaling by F_q^*: the count at an odd prime q
is 2^n * n! * h * N_1 / n, with h = (q-1)/2 and N_1 the (n-1)-subsets S of
{2..h} for which {1} u S has pairwise distinct subset sums mod q (see
:func:`point_count`).  The test suite keeps a direct count over a slab of
F_q^n as an oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt

# the largest n for char_poly: n = 7 needs nine primes above 7^(7/2) > 900,
# far beyond what the point-count search can count
MAX_CHARPOLY = 6


def normals(n: int) -> list[tuple[int, ...]]:
    """Sign-canonical normal vectors: first nonzero entry +1."""
    out = []
    for v in itertools.product((0, 1, -1), repeat=n):
        nz = next((x for x in v if x), None)
        if nz == 1:
            out.append(v)
    return out


class CrossValidationError(RuntimeError):
    def __init__(self, primes, message):
        self.primes = primes
        super().__init__(f"{message} (primes used: {primes})")


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial, coefficients in descending degree."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        value = 0
        for c in self.coefficients:
            value = value * x + c
        return value

    def integer_roots(self) -> tuple[list[int], tuple[int, ...]]:
        """(roots with multiplicity, remaining coefficient tuple)."""
        coeffs = list(self.coefficients)
        roots = []
        while len(coeffs) > 1:
            const = coeffs[-1]
            if const == 0:
                roots.append(0)
                coeffs = coeffs[:-1]
                continue
            for cand in _divisors(abs(const)):
                for root in (cand, -cand):
                    value = 0
                    for c in coeffs:
                        value = value * root + c
                    if value == 0:
                        break
                else:
                    continue
                break
            else:
                break
            # synthetic division by (x - root)
            new = [coeffs[0]]
            for c in coeffs[1:-1]:
                new.append(c + new[-1] * root)
            roots.append(root)
            coeffs = new
        return sorted(roots), tuple(coeffs)

    def __str__(self) -> str:
        terms = []
        deg = self.degree
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            d = deg - i
            if d == 0:
                body = str(abs(c))
            else:
                lead = "" if abs(c) == 1 else str(abs(c))
                body = f"{lead}x" if d == 1 else f"{lead}x^{d}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"

    def factored_str(self) -> str:
        roots, rest = self.integer_roots()
        parts = []
        for root in roots:
            parts.append(f"(x{-root:+d})" if root else "(x)")
        if len(rest) > 1:
            parts.append(f"({CharPoly(rest)})")
        return "".join(parts) if parts else str(self)


def _divisors(c: int) -> list[int]:
    """Divisors of c > 0, increasing, by trial division up to sqrt(c)."""
    small = [d for d in range(1, isqrt(c) + 1) if c % d == 0]
    return small + [c // d for d in reversed(small) if d * d != c]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


def _primes_for(n: int, count: int) -> list[int]:
    # q must divide no nonzero minor of the {0,+-1} normal matrix, so that the
    # intersection lattice mod q is the one over Q and the count is chi(q).
    # A k x k minor is at most k^(k/2) <= n^(n/2) in absolute value (Hadamard).
    # Below 2^n no point has 2^n distinct sums; 2^n is the larger start for
    # n <= 4.
    primes = []
    q = max(1 << n, isqrt(n**n)) + 1
    while len(primes) < count:
        if _is_prime(q):
            primes.append(q)
        q += 1
    return primes


def point_count(n: int, q: int) -> int:
    """Number of v in F_q^n with all 2^n subset sums pairwise distinct.

    q is an odd prime.  Such a v is a point off every hyperplane, and
    validity is kept by permuting and negating coordinates.  Writing each
    nonzero value as +-a with a in {1..h}, h = (q-1)/2, a valid point has
    n distinct values |v_i|, and validity depends only on the set T of
    them: 2^n * n! points per valid n-set T.  Scaling by F_q^* keeps
    validity too, and T = |a T'| matches the pairs (T, a in T) one to one
    with the pairs (T', a) of a valid set T' containing 1 and a in {1..h}.
    So n times the number of valid n-sets is h * N_1 (:func:`_rooted_sets`).
    """
    h = (q - 1) // 2
    return (1 << n) * factorial(n) * h * _rooted_sets(n, q) // n


def _rooted_sets(n: int, q: int) -> int:
    """N_1: the (n-1)-subsets S of {2..h} with {1} u S valid mod q.

    A set is valid when its subset sums are pairwise distinct mod q.  With
    the sums as a q-bit integer, adding x keeps the set valid iff
    ``sums & rot(sums, x) == 0``, that is iff x is no difference of two
    subset sums.  The search keeps those differences, {sum e_t t : e in
    {0,+-1}^T}, as a q-bit integer D instead: the next elements are the
    zero bits of D above the last element, adding x makes D into
    D | rot(D, x) | rot(D, -x), and the last element is a popcount.
    """
    if n == 1:
        return 1
    full = (1 << q) - 1
    window = (1 << (q + 1) // 2) - 1  # bits 0..h

    def search(diffs: int, low: int, left: int) -> int:
        free = window & ~(diffs | (1 << low) - 1)
        if left == 1:
            return free.bit_count()
        total = 0
        while free:
            bit = free & -free
            free ^= bit
            x = bit.bit_length() - 1
            up = (diffs << x | diffs >> q - x) & full
            down = (diffs >> x | diffs << q - x) & full
            total += search(diffs | up | down, x + 1, left - 1)
        return total

    return search(1 | 2 | 1 << q - 1, 2, n - 1)


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Lagrange interpolation; coefficients descending degree."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for xi, yi in points:
        # basis polynomial for xi, ascending-degree product of (x - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, b in enumerate(basis):
                new[d] += b * (-xj)
                new[d + 1] += b
            basis = new
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for d, b in enumerate(basis):
            coeffs[d] += scale * b
    return list(reversed(coeffs))  # descending


def char_poly(n: int) -> CharPoly:
    """Characteristic polynomial via prime-field point counts.

    Counts at the smallest n+2 primes of good reduction (see _primes_for);
    the first n+1 interpolate, the last cross-validates, and the result
    must be monic and vanish at 1.
    """
    if not 1 <= n <= MAX_CHARPOLY:
        raise ValueError(f"n must be in 1..{MAX_CHARPOLY}, got {n}")
    primes = _primes_for(n, n + 2)
    counts = [point_count(n, q) for q in primes]
    coeffs = _interpolate(list(zip(primes[: n + 1], counts[: n + 1])))
    if any(c.denominator != 1 for c in coeffs):
        raise CrossValidationError(primes, "interpolation gave non-integer coefficients")
    poly = CharPoly(tuple(int(c) for c in coeffs))
    if poly.coefficients[0] != 1:
        raise CrossValidationError(primes, "interpolated polynomial is not monic")
    if poly(primes[-1]) != counts[-1]:
        raise CrossValidationError(primes, "validation prime disagrees with interpolation")
    if poly(1) != 0:
        raise CrossValidationError(primes, "polynomial does not vanish at 1")
    return poly


def region_count(n: int) -> int:
    """|chi(-1)|: the number of regions of the arrangement."""
    return abs(char_poly(n)(-1))


# ---------------------------------------------------------------------------
# link to the root system


def root_system(n: int) -> list[tuple[int, ...]]:
    """e_i, then e_i + e_j, then e_i - e_j, both lexicographic in (i, j)."""
    vectors = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vectors.append(tuple(e))
    for sign in (1, -1):
        for i in range(n):
            for j in range(i + 1, n):
                e = [0] * n
                e[i] = 1
                e[j] = sign
                vectors.append(tuple(e))
    return vectors


def spanning_set_for_normal(v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Root-system vectors spanning the hyperplane orthogonal to v.

    Uses the positive/negative/zero support of the normal: e_i for zero
    coordinates, differences within same-sign pairs, sums across opposite
    signs.
    """
    n = len(v)
    pos = [i for i in range(n) if v[i] > 0]
    neg = [i for i in range(n) if v[i] < 0]
    zero = [i for i in range(n) if v[i] == 0]
    span = []
    for i in zero:
        e = [0] * n
        e[i] = 1
        span.append(tuple(e))
    for group in (pos, neg):
        for i, j in itertools.combinations(group, 2):
            e = [0] * n
            e[i] = 1
            e[j] = -1
            span.append(tuple(e))
    for i in pos:
        for j in neg:
            e = [0] * n
            e[i] = 1
            e[j] = 1
            span.append(tuple(e))
    return span


def _rank_det(rows: list[tuple[int, ...]]) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by Bareiss elimination.

    Every update divides exactly by the previous pivot, and a column with
    no pivot left is skipped.  The determinant is the last pivot signed by
    the row swaps when the matrix is square of full rank, and 0 otherwise
    (1 for the empty matrix).
    """
    m = [list(r) for r in rows]
    rank = 0
    prev = sign = 1
    for col in range(len(m[0]) if m else 0):
        swap = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if swap is None:
            continue
        if swap != rank:
            m[rank], m[swap] = m[swap], m[rank]
            sign = -sign
        pivot = m[rank]
        for r in range(rank + 1, len(m)):
            row = m[r]
            f = row[col]
            m[r] = [(v * pivot[col] - f * p) // prev for v, p in zip(row, pivot)]
        prev = pivot[col]
        rank += 1
    square = all(len(r) == len(m) for r in m)
    return rank, sign * prev if square and rank == len(m) else 0


def verify_discriminantal(n: int) -> bool:
    """Both directions of the root-system description of the arrangement.

    Every sign-canonical normal's hyperplane is spanned by root-system
    vectors, and every hyperplane spanned by n-1 independent root-system
    vectors has a {0,+1,-1} normal.
    """
    roots = root_system(n)
    for v in normals(n):
        span = spanning_set_for_normal(v)
        if any(r not in roots and tuple(-x for x in r) not in roots for r in span):
            return False
        if any(sum(a * b for a, b in zip(r, v)) != 0 for r in span):
            return False
        if _rank_det(span)[0] != n - 1:
            return False
    canonical = set(normals(n))
    for subset in itertools.combinations(roots, n - 1):
        mat = [list(r) for r in subset]
        normal = []
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat]
            normal.append((-1) ** j * _rank_det(minor)[1])
        if all(x == 0 for x in normal):
            continue  # not independent, spans no hyperplane
        g = 0
        for x in normal:
            g = gcd(g, abs(x))
        normal = [x // g for x in normal]
        first = next(x for x in normal if x)
        if first < 0:
            normal = [-x for x in normal]
        if any(abs(x) > 1 for x in normal) or tuple(normal) not in canonical:
            return False
    return True
