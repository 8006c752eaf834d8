"""The arrangement of all {0,+1,-1}-normal hyperplanes and its invariants.

The characteristic polynomial is computed by counting, over prime fields
F_q with q above every {0,+-1} minor, the vectors all of whose 2^n subset
sums are distinct, then interpolating in integers (Newton's divided
differences); an extra prime cross-validates the result.  The test suite
compares n <= 3 with an independent intersection-lattice Moebius
computation, and keeps the Fraction Lagrange interpolation and the
rotating count as oracles (``tests/oracles.py``).  The absolute value at
-1 is the region count (Zaslavsky), which for this arrangement is
2^n * n! times the number of coherent order classes.

Points are counted up to the symmetries of the arrangement, B_n (permuting
and negating coordinates) and scaling by F_q^*: the count at an odd prime q
is 2^n * n! * h * N_1 / n, with h = (q-1)/2 and N_1 the (n-1)-subsets S of
{2..h} for which {1} u S has pairwise distinct subset sums mod q (see
:func:`point_count`).  The test suite keeps a direct count over a slab of
F_q^n as an oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from math import factorial, gcd, isqrt

from .core import _Frozen

# the largest n for char_poly: n = 7 would need nine primes above M_7 = 576,
# far beyond what the point-count search can count
MAX_CHARPOLY = 6

# M_n, the largest |det| of a k x k {0,+-1} matrix with k <= n, for n = 0..6;
# the determinant is affine in each entry, so a +-1 matrix reaches it (checked
# by brute force in the test suite)
_MAX_MINOR = (1, 1, 2, 4, 16, 48, 160)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_CHARPOLY:
        raise ValueError(f"n must be in 1..{MAX_CHARPOLY}, got {n}")


def normals(n: int) -> list[tuple[int, ...]]:
    """Sign-canonical normal vectors: first nonzero entry +1."""
    _check_n(n)
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


class CharPoly(_Frozen):
    """Monic integer polynomial, coefficients in descending degree."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        self.__dict__["coefficients"] = coefficients

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
    # intersection lattice mod q is the one over Q and the count is chi(q);
    # q > M_n is enough.  Below 2^n no point has 2^n distinct sums; 2^n is the
    # larger start for n <= 4.
    primes = []
    q = max(1 << n, _MAX_MINOR[n]) + 1
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
    zero bits of D above the last element, and adding x makes D into
    D | rot(D, x) | rot(D, -x).  The last element y in (x, h] is a popcount
    with no rotation, as y - x and y + x both lie in [1, q - 1].
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
            if left == 2:
                total += (free & ~(diffs << x | diffs >> x)).bit_count()
                continue
            up = (diffs << x | diffs >> q - x) & full
            down = (diffs >> x | diffs << q - x) & full
            total += search(diffs | up | down, x + 1, left - 1)
        return total

    return search(1 | 2 | 1 << q - 1, 2, n - 1)


def _interpolate(xs: list[int], ys: list[int]) -> list[int] | None:
    """Integer coefficients, descending degree, of the polynomial through (xs, ys).

    Newton's divided differences of an integer polynomial at integer nodes
    are integers, so each step is an exact division; None when one is not.
    The Newton form is expanded by Horner's rule.
    """
    diffs = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i], rest = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - j])
            if rest:
                return None
    coeffs = [diffs[-1]]
    for x, d in zip(xs[-2::-1], diffs[-2::-1]):
        coeffs = [a - x * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[-1] += d
    return coeffs


def char_poly(n: int) -> CharPoly:
    """Characteristic polynomial via prime-field point counts.

    Counts at the smallest n+2 primes of good reduction (see _primes_for);
    the first n+1 interpolate, the last cross-validates, and the result
    must be monic and vanish at 1.
    """
    _check_n(n)
    primes = _primes_for(n, n + 2)
    counts = [point_count(n, q) for q in primes]
    coeffs = _interpolate(primes[: n + 1], counts[: n + 1])
    if coeffs is None:
        raise CrossValidationError(primes, "interpolation gave non-integer coefficients")
    poly = CharPoly(tuple(coeffs))
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
    """Whether the arrangement is the discriminantal arrangement of the root system.

    The hyperplanes spanned by n - 1 vectors of :func:`root_system` must be
    exactly the {0,+1,-1}-normal ones.  Each (n - 1)-subset of the roots
    gives the cofactor normal of its span, zero when the subset is
    dependent; the nonzero normals, gcd-reduced and sign-canonical, must
    form the set :func:`normals`.
    """
    _check_n(n)
    spanned = set()
    for subset in itertools.combinations(root_system(n), n - 1):
        normal = [
            (-1) ** j * _rank_det([r[:j] + r[j + 1 :] for r in subset])[1] for j in range(n)
        ]
        g = gcd(*normal)
        if g:
            g = g if next(x for x in normal if x) > 0 else -g
            spanned.add(tuple(x // g for x in normal))
    return spanned == set(normals(n))
