"""Test-only oracles: slow, direct versions of library routines.

Each one computes what a library function computes by an independent and
much more expensive route, so the tests can compare the two on small cases.
:func:`solve_eq` and :func:`lex_min_ge` are Fraction front ends of the LP
kernel's integer entry points, for the tests and the oracles here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import index
from typing import Iterator, Sequence

import numpy as np

from booltermorders import lp
from booltermorders.arrangement import CharPoly, _rank_det, normals
from booltermorders.baues import PartialTermOrder
from booltermorders.coherence import Certificate, _program
from booltermorders.core import (
    MAX_GROUND,
    DisjointPair,
    ParseError,
    TermOrder,
    ValidationReport,
    format_subset,
    full_mask,
    parse_subset,
    relabel,
    submasks,
)
from booltermorders.flips import primitive_pairs
from booltermorders.omatroid import (
    LocalizationReport,
    Signature,
    SignVector,
    from_parts,
    negate,
    sign_vectors,
)


def canonicalize_brute_force(order: TermOrder) -> TermOrder:
    """Reference canonicalization: explicit minimum over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(order.n)):
        cand = relabel(order, perm).rank
        if best is None or cand < best:
            best = cand
    return TermOrder(order.n, best)


def is_valid_all_gammas(order: TermOrder) -> bool:
    """Reference for ``core.is_valid``: the union axiom for every gamma.

    For each nonempty gamma, the subsets disjoint from gamma, taken in
    chain order, must keep their order after the union with gamma.
    """
    rank = order.rank
    size = len(rank)
    if sorted(rank) != list(range(size)) or rank[0] != 0:
        return False
    chain = order.chain
    for gamma in range(1, size):
        prev = -1
        for mask in chain:
            if mask & gamma:
                continue
            r = rank[mask | gamma]
            if r <= prev:
                return False
            prev = r
    return True


def is_union_violation(level: Sequence[int], triple: tuple[int, int, int]) -> bool:
    """Whether (a, b, g) witnesses a breach of the union axiom on ``level``.

    The masks must be pairwise disjoint, g nonempty, and the comparison of
    a and b must differ from that of a + g and b + g.
    """
    a, b, g = triple
    if a & b or a & g or b & g or not g:
        return False
    before = (level[a] > level[b]) - (level[a] < level[b])
    after = (level[a | g] > level[b | g]) - (level[a | g] < level[b | g])
    return before != after


def first_violation_list_scan(level, rank, chain, n) -> tuple[int, int, int] | None:
    """Reference for ``core._first_violation``: the list scan at every n.

    For each element e, the ranks of the masks without e, taken in chain
    order with e added, must be sorted; at the first e where they are not,
    the triple comes from the first reversed neighbours, as documented in
    ``core._first_violation``.
    """
    for e in range(n):
        bit = 1 << e
        ranks = [rank[m | bit] for m in chain if not m & bit]
        if ranks != sorted(ranks):
            i = next(i for i in range(len(ranks) - 1) if ranks[i] > ranks[i + 1])
            m, m2 = [m for m in chain if not m & bit][i : i + 2]
            c = m & m2
            a, b = m ^ c, m2 ^ c
            before = (level[a] > level[b]) - (level[a] < level[b])
            if before == (level[m] > level[m2]) - (level[m] < level[m2]):
                c |= bit
            return (b, a, c) if level[a] > level[b] else (a, b, c)
    return None


def union_violation_list_scan(level: Sequence[int], n: int) -> tuple[int, int, int] | None:
    """Reference for ``core.union_violation``: both tie splits through
    :func:`first_violation_list_scan`."""
    size = 1 << n
    for sign in (1, -1):
        chain = sorted(range(size), key=lambda m: (level[m], sign * m))
        rank = [0] * size
        for pos, mask in enumerate(chain):
            rank[mask] = pos
        found = first_violation_list_scan(level, rank, chain, n)
        if found is not None:
            return found
    return None


def singleton_axioms_two_lists(order: TermOrder) -> bool:
    """Reference for ``core.is_valid``'s singleton scan: for each element e, the
    subsets with e, in chain order, are the subsets without e, in chain
    order, each with e added."""
    rank = order.rank
    size = len(rank)
    if sorted(rank) != list(range(size)) or rank[0] != 0:
        return False
    chain = order.chain
    for e in range(order.n):
        bit = 1 << e
        if [m for m in chain if m & bit] != [m | bit for m in chain if not m & bit]:
            return False
    return True


def relabel_image_table(order: TermOrder, perm: Sequence[int]) -> TermOrder:
    """Reference for ``core.relabel``: the image of every mask, by its low bit."""
    size = len(order.rank)
    image = [0] * size  # image[mask] = image[mask without its low bit] | image[low bit]
    for mask in range(1, size):
        low = mask & -mask
        image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
    rank = [0] * size
    for mask, r in enumerate(order.rank):
        rank[image[mask]] = r
    return TermOrder(order.n, tuple(rank))


def is_canonical(order: TermOrder) -> bool:
    """Whether the singletons are ranked in element order, as in a canonical form."""
    rank = order.rank
    return all(rank[1 << i] < rank[1 << (i + 1)] for i in range(order.n - 1))


def read_levels_scan(text: str) -> tuple[int, tuple[int, ...]]:
    """Reference for ``core.read_levels``: every subset through ``parse_subset``."""
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0].strip()
        if body:
            if lines and body.startswith("n="):
                raise ParseError("the n= header must be the first line", no)
            lines.append((no, body))
    if not lines:
        raise ParseError("empty order file")
    header_no = None
    if lines[0][1].startswith("n="):
        header_no, header = lines.pop(0)
        try:
            n = int(header[2:])
        except ValueError:
            raise ParseError(f"bad header {header!r}", header_no) from None
    else:
        n = 0
        for no, body in lines:
            for part in body.replace("=", ",").split(","):
                if part.strip() != "-":
                    try:
                        n = max(n, int(part))
                    except ValueError:
                        raise ParseError(f"bad subset element {part!r}", no) from None
    if not 0 <= n <= MAX_GROUND:
        raise ParseError(f"n={n} out of range 0..{MAX_GROUND}", header_no)
    level = [0] * (1 << n)
    seen = set()
    for lvl, (no, body) in enumerate(lines):
        for part in body.split("="):
            mask = parse_subset(part, n, line=no)
            if mask in seen:
                raise ParseError(f"duplicate subset {part.strip()!r}", no)
            seen.add(mask)
            level[mask] = lvl
    if len(seen) != 1 << n:
        raise ParseError(f"expected {1 << n} subsets, got {len(seen)}")
    return n, tuple(level)


def serialize_order_chain(order: TermOrder) -> str:
    """Reference for ``core.serialize_order`` on a total order: one subset
    per line along the chain."""
    return "\n".join([f"n={order.n}", *map(format_subset, order.chain)]) + "\n"


def serialize_partial_levels(order: PartialTermOrder) -> str:
    """Reference for ``core.serialize_order`` on a partial order: order-file
    text; subsets on a shared level are joined with '='."""
    lines = [f"n={order.n}"]
    for group in order.levels:
        lines.append("=".join(format_subset(mask) for mask in group))
    return "\n".join(lines) + "\n"


def brute_force_orders(n: int) -> list[TermOrder]:
    """Filter all orderings of the nonempty subsets by validity.

    Only usable for tiny n (n=3 already means 7! candidates).
    """
    size = 1 << n
    found = []
    for perm in itertools.permutations(range(1, size)):
        order = TermOrder.from_chain(n, (0,) + perm)
        if is_valid_all_gammas(order):
            found.append(order)
    return found


def _translates_consecutive(order: TermOrder, pair: DisjointPair) -> bool:
    """Whether pair.left | l sits right below pair.right | l for every l."""
    rank = order.rank
    rest = full_mask(order.n) & ~(pair.left | pair.right)
    return all(rank[pair.right | l] == rank[pair.left | l] + 1 for l in submasks(rest))


def flippable_pairs_by_translates(order: TermOrder) -> list[DisjointPair]:
    """Reference for ``flips.flippable_pairs``: each primitive pair's
    2^|rest| translates looked up one at a time."""
    return [pair for pair in primitive_pairs(order) if _translates_consecutive(order, pair)]


def flip_by_translates(order: TermOrder, pair: DisjointPair) -> tuple[int, ...] | None:
    """Reference for ``flips.flip`` on a nonempty left side: the rank array
    with every translate swapped, or None where ``flip`` must refuse (a pair
    outside [n], or a translate that is not consecutive)."""
    full = full_mask(order.n)
    if (pair.left | pair.right) & ~full or not _translates_consecutive(order, pair):
        return None
    rank = list(order.rank)
    for l in submasks(full & ~(pair.left | pair.right)):
        a, b = pair.left | l, pair.right | l
        rank[a], rank[b] = rank[b], rank[a]
    return tuple(rank)


def extension_chains_dict(chain: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Reference for ``enumeration._merge_leaves``: the search on a dict.

    Each cross comparison fixed on the current branch is stored under its
    disjoint reduction, with an undo list per placement.
    """
    m = len(chain)
    top = 1 << (n - 1)
    # fixed[(a, b)] = True if the chain-A set is below the chain-B set for
    # every cross pair reducing to the disjoint pair (a, b)
    fixed: dict[tuple[int, int], bool] = {(0, 0): True}
    out: list[int] = []
    # canonical extensions keep the singleton {n} after the singleton {n-1}
    gate = chain.index(1 << (n - 2)) if n >= 2 else -1

    def reduce(a: int, b: int) -> tuple[int, int]:
        common = a & b
        return a & ~common, b & ~common

    def place(i: int, j: int) -> Iterator[tuple[int, ...]]:
        if i == m and j == m:
            yield tuple(out)
            return
        if i < m:
            a = chain[i]
            added = []
            ok = True
            for k in range(j):
                key = reduce(a, chain[k])
                prev = fixed.get(key)
                if prev is None:
                    fixed[key] = False
                    added.append(key)
                elif prev:
                    ok = False
                    break
            if ok:
                out.append(a)
                yield from place(i + 1, j)
                out.pop()
            for key in added:
                del fixed[key]
        if j < m and (j > 0 or i > 0):
            if not (j == 0 and gate >= i):
                b = chain[j]
                added = []
                ok = True
                for k in range(i):
                    key = reduce(chain[k], b)
                    prev = fixed.get(key)
                    if prev is None:
                        fixed[key] = True
                        added.append(key)
                    elif not prev:
                        ok = False
                        break
                if ok:
                    out.append(b | top)
                    yield from place(i, j + 1)
                    out.pop()
                for key in added:
                    del fixed[key]

    return place(0, 0)


def validate_partial_quadruples(order: PartialTermOrder) -> ValidationReport:
    """Check a partial order through same-level splittings.

    Whenever a + c and b + d share a level (or coincide), with a disjoint
    from c and b disjoint from d, a strict comparison level(b) < level(a)
    must force level(c) < level(d).  Cross-checks ``validate``
    by an independent route; 16^n splitting pairs, so small n only.
    """
    level = order.level
    fm = full_mask(order.n)
    splittings = []  # (a, c, a|c) over disjoint pairs
    for a in range(fm + 1):
        rest = fm & ~a
        c = rest
        while True:
            splittings.append((a, c, a | c))
            if c == 0:
                break
            c = (c - 1) & rest
    for a, c, u in splittings:
        for b, d, v in splittings:
            if level[u] != level[v] and u != v:
                continue
            if level[b] < level[a] and not level[c] < level[d]:
                return ValidationReport(False, violations=[(a, b, c, d)])
    return ValidationReport(True)


def refines_pairs(fine: PartialTermOrder, coarse: PartialTermOrder) -> bool:
    """Reference for ``baues.refines``: every pair of subsets, both ways."""
    lf, lc = fine.level, coarse.level
    size = 1 << fine.n
    for a in range(size):
        for b in range(a + 1, size):
            if lc[a] < lc[b] and not lf[a] < lf[b]:
                return False
            if lc[b] < lc[a] and not lf[b] < lf[a]:
                return False
    return True


def slab_point_count(n: int, q: int) -> int:
    """Number of v in F_q^n with all 2^n subset sums pairwise distinct.

    Counted directly: any valid point has every coordinate nonzero, and
    scaling by a nonzero field element preserves validity, so every point
    of the slab v_1 = 1 is tested and the result multiplied by q - 1.
    q^(n-1) points, so n <= 5 only.
    """
    if n == 1:
        return q - 1
    incidence = np.zeros((n, 1 << n), dtype=np.int64)
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                incidence[i, mask] = 1
    total = 0
    rest = q ** (n - 1)
    chunk = 1 << 18
    for start in range(0, rest, chunk):
        stop = min(start + chunk, rest)
        idx = np.arange(start, stop, dtype=np.int64)
        coords = np.empty((stop - start, n), dtype=np.int64)
        coords[:, 0] = 1
        for i in range(1, n):
            coords[:, i] = idx % q
            idx //= q
        sums = (coords @ incidence) % q
        sums.sort(axis=1)
        distinct = (np.diff(sums, axis=1) > 0).all(axis=1)
        total += int(distinct.sum())
    return total * (q - 1)


def rooted_sets_rotating(n: int, q: int) -> int:
    """Reference for ``arrangement._rooted_sets``: the same search, but the
    last element is taken by one more rotating step per candidate.

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


def lagrange_interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Reference for ``arrangement._interpolate``: Lagrange interpolation
    over the rationals; coefficients descending degree."""
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


def _rref(rows: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    mat = [list(r) for r in rows]
    out = []
    cols = len(mat[0]) if mat else 0
    pivot_col = 0
    while mat and pivot_col < cols:
        pivot = next((r for r in mat if r[pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        mat.remove(pivot)
        inv = Fraction(1) / pivot[pivot_col]
        pivot = [v * inv for v in pivot]
        mat = [
            [v - r[pivot_col] * p for v, p in zip(r, pivot)] if r[pivot_col] else r
            for r in mat
        ]
        out = [
            [v - r[pivot_col] * p for v, p in zip(r, pivot)] if r[pivot_col] else r
            for r in out
        ]
        out.append(pivot)
        pivot_col += 1
    return tuple(tuple(r) for r in out)


def rank_by_rref(rows) -> int:
    """Reference for the rank of ``arrangement._rank_det``: the rank of a
    ``Fraction`` rref."""
    return len(_rref([[Fraction(x) for x in r] for r in rows]))


def det_leibniz(mat) -> int:
    """Reference for the determinant of ``arrangement._rank_det``: the sum
    over all permutations, each signed by its inversions."""
    size = len(mat)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def _in_span(vector, span) -> bool:
    v = [Fraction(x) for x in vector]
    for row in span:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None and v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def char_poly_mobius(n: int) -> CharPoly:
    """Independent oracle: build the intersection lattice and sum Moebius values.

    Flats are identified with the row spans of the normal subsets cutting
    them out; practical for n <= 3 only.
    """
    hyperplanes = [tuple(Fraction(x) for x in v) for v in normals(n)]
    flats: dict[tuple, int] = {}  # rref span -> codimension
    empty = _rref([])
    flats[empty] = 0
    frontier = [empty]
    while frontier:
        new = []
        for span in frontier:
            for h in hyperplanes:
                if _in_span(h, span):
                    continue
                bigger = _rref(list(span) + [list(h)])
                if bigger not in flats:
                    flats[bigger] = len(bigger)
                    new.append(bigger)
        frontier = new
    ordered = sorted(flats, key=len)
    mobius: dict[tuple, int] = {}
    for span in ordered:
        below = sum(
            mobius[other]
            for other in ordered
            if len(other) < len(span) and all(_in_span(row, span) for row in other)
        )
        mobius[span] = 1 if span == empty else -below
    coeffs = [0] * (n + 1)
    for span, mu in mobius.items():
        dim = n - len(span)
        coeffs[n - dim] += mu
    return CharPoly(tuple(coeffs))


def positive_part(x: SignVector) -> int:
    """Mask of coordinates with sign +."""
    mask = 0
    for i, v in enumerate(x):
        if v > 0:
            mask |= 1 << i
    return mask


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


def signature_from_positives(n: int, positives) -> Signature:
    """+ on the given vectors, - on their negatives, 0 elsewhere."""
    values = {x: 0 for x in sign_vectors(n)}
    for x in positives:
        values[tuple(x)] = 1
        values[negate(tuple(x))] = -1
    return Signature(n, values)


def nonnegative(sigma: Signature) -> list[SignVector]:
    """The sign vectors where sigma is + or 0."""
    return [x for x, v in sigma.values.items() if v >= 0]


def mu_from_order_checked(order) -> Signature:
    """Reference for ``omatroid.mu_from_order``: each sign vector's parts
    taken one by one, and the signature built through the checks of
    ``Signature``."""
    level = order.level
    values = {}
    for x in sign_vectors(order.n):
        pos = positive_part(x)
        neg = positive_part(negate(x))
        if level[neg] < level[pos]:
            values[x] = 1
        elif level[pos] < level[neg]:
            values[x] = -1
        else:
            values[x] = 0
    return Signature(order.n, values)


def partial_order_from_signature_pairs(mu: Signature):
    """Reference for ``omatroid.partial_order_from_signature``: rebuild the
    level structure a passing signature encodes, comparing every pair.

    Subsets compare through the sign vector of their disjoint reduction;
    incomparability classes become shared levels.  Raises if the relation
    is not an ordered partition (the signature then fails the addition
    conditions).
    """
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


def check_localization_tuples(sigma: Signature) -> LocalizationReport:
    """Weak cocircuit elimination over the nonnegative support of sigma.

    For every X, Y with sigma in {+,0}, not opposite, and every root where
    the cocircuits clash in sign, some Z with sigma in {+,0} must vanish at
    that root and have cocircuit supports inside the union of supports.
    The search runs over all nonzero candidates, not just the constructed
    ones.
    """
    n = sigma.n
    allowed = nonnegative(sigma)
    coc = {x: cocircuit(x) for x in sign_vectors(n)}
    pos = {x: positive_part(coc[x]) for x in coc}
    neg = {x: positive_part(tuple(-v for v in coc[x])) for x in coc}
    supp = {x: pos[x] | neg[x] for x in coc}
    for x in allowed:
        for y in allowed:
            if coc[y] == tuple(-v for v in coc[x]):
                continue
            clash = pos[x] & neg[y]
            if not clash:
                continue
            punion = pos[x] | pos[y]
            nunion = neg[x] | neg[y]
            candidates = [
                z
                for z in allowed
                if not pos[z] & ~punion and not neg[z] & ~nunion
            ]
            e = 0
            while clash:
                if clash & 1:
                    bit = 1 << e
                    if not any(not supp[z] & bit for z in candidates):
                        return LocalizationReport(False, (x, y, e))
                clash >>= 1
                e += 1
    return LocalizationReport(True)


def rank2_extension_patterns() -> set[tuple[int, ...]]:
    """The signs a linear form takes on 8 rays in cyclic order, two per line.

    A form that is zero everywhere; one vanishing on a single line, + on
    one open side and - on the other; or one vanishing on no ray, + on
    four consecutive rays.  The 17 patterns are the rotations of these.
    """
    rotations = lambda cycle: {cycle[k:] + cycle[:k] for k in range(8)}
    return (
        {(0,) * 8}
        | rotations((0, 1, 1, 1, 0, -1, -1, -1))
        | rotations((1, 1, 1, 1, -1, -1, -1, -1))
    )


class _Unbounded(Exception):
    pass


def _fraction_pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = Fraction(1) / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r, line in enumerate(tab):
        if r != row and line[col] != 0:
            f = line[col]
            tab[r] = [v - f * p for v, p in zip(line, prow)]
    basis[row] = col


def _fraction_simplex(tab, basis, cost):
    m = len(tab)
    width = len(cost)
    red = [Fraction(v) for v in cost] + [Fraction(0)]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            row = tab[r]
            red = [v - cb * a for v, a in zip(red, row)]
    while True:
        enter = -1
        for j in range(width):
            if red[j] < 0:
                enter = j
                break  # Bland: first improving column
        if enter < 0:
            return -red[-1]
        leave = -1
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise _Unbounded
        _fraction_pivot(tab, basis, leave, enter)
        f = red[enter]
        if f != 0:
            prow = tab[leave]
            red = [v - f * p for v, p in zip(red, prow)]


def fraction_solve_eq(A, b, c):
    """Reference for :func:`solve_eq`: the same two-phase simplex over Fraction.

    Same tableau, Bland's rule and phase-1 drive-out, with every entry a
    Fraction divided through at each pivot, so the two must take the same
    pivots and return equal (status, x, objective).
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [Fraction(0)] * m + [rhs])
        tab[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    if _fraction_simplex(tab, basis, cost1) != 0:
        return "infeasible", None, None
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][j] != 0:
                    _fraction_pivot(tab, basis, r, j)
                    break
    keep = [r for r in range(m) if basis[r] < n]
    tab = [[tab[r][j] for j in range(n)] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    cost2 = [Fraction(v) for v in c]
    try:
        obj = _fraction_simplex(tab, basis, cost2)
    except _Unbounded:
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = tab[r][-1]
    return "optimal", x, obj


def solve_eq(A: Sequence[Sequence[int]], b: Sequence[Fraction], c: Sequence[Fraction]):
    """min c.x subject to A x = b, x >= 0, for integer A.

    Returns (status, x, objective) with status one of "optimal",
    "infeasible", "unbounded"; x and the objective are Fractions.
    """
    d = math.lcm(*[v.denominator for v in b])  # scaling the rows changes no pivot
    scale = math.lcm(*[v.denominator for v in c])  # nor does scaling c
    rows = [[d * index(v) for v in a] + [int(d * beta)] for a, beta in zip(A, b)]
    status, d, x, obj = lp._solve_eq(rows, [int(v * scale) for v in c])
    if x is None:
        return status, None, None
    return status, [Fraction(v, d) for v in x], Fraction(obj, d * scale)


def lex_min_ge(A: Sequence[Sequence[int]], b: Sequence[int], n: int):
    """The lexicographic minimum of {x : A x >= b} over n unknowns, or None.

    One dual solve (Dantzig, Orden and Wolfe 1955): the optimum of max b.y
    over y.A = e_1 + eps e_2 + ... + eps^(n-1) e_n, y >= 0 has the
    eps-coefficients x_1 ... x_n.  A must hold every unit row e_i
    (ValueError otherwise): x is then bounded below, so None means
    infeasible; the first copies are a feasible dual basis (no phase 1),
    and no pivot is degenerate: each right-hand-side row is an
    inverse-basis row.
    """
    rows = list(map(list, A))
    try:
        basis = [rows.index([int(i == j) for i in range(n)]) for j in range(n)]
    except ValueError:
        raise ValueError(f"A must hold every unit row e_1 ... e_{n}") from None
    columns = [[index(a[j]) for a in A] for j in range(n)]
    solution = lp._lex_min(columns, basis, list(map(index, b)))
    return None if solution is None else [Fraction(v, solution[0]) for v in solution[1]]


# ---------------------------------------------------------------------------
# the weight program with one row per consecutive comparison, repeats kept


def reduced_pair(left: int, right: int) -> tuple[int, int]:
    """Strip the common part of two masks, giving the disjoint comparison."""
    common = left & right
    return left & ~common, right & ~common


def _indicator_difference(a: int, b: int, n: int) -> list[int]:
    return [((b >> i) & 1) - ((a >> i) & 1) for i in range(n)]


def comparisons_level_array(order) -> list[tuple[int, int, int]]:
    """Reference for ``coherence._program``'s comparisons as (left, right, rhs),
    read off the generic ``levels`` list of lists with one ``reduced_pair``
    call per pair.

    In first-occurrence order: the reduced pair of each two consecutive
    levels (first subsets) with rhs 1, then ({}, {i}, 1) when the empty set
    is alone at the bottom, then both directions of each tie with its
    level's first subset, rhs 0.
    """
    levels = order.levels
    firsts = [group[0] for group in levels]
    comps = [(*reduced_pair(a, b), 1) for a, b in zip(firsts, firsts[1:])]
    if len(levels[0]) == 1:
        comps += [(0, 1 << i, 1) for i in range(order.n)]
    for group in levels:
        for other in group[1:]:
            left, right = reduced_pair(group[0], other)
            comps += [(left, right, 0), (right, left, 0)]
    return list(dict.fromkeys(comps))


def difference_rows(order) -> list[list[int]]:
    """Indicator differences between consecutive levels, first subset of each.

    ``order`` is a :class:`TermOrder` (one subset per level) or a partial
    order with ``levels``.  Repeats are kept, in chain order.
    """
    firsts = [group[0] for group in order.levels]
    return [_indicator_difference(a, b, order.n) for a, b in zip(firsts, firsts[1:])]


def transposed(rows, n: int) -> list[list[int]]:
    """The n columns of ``rows``: the equality rows of the dual program."""
    return [[row[j] for row in rows] for j in range(n)]


def constraints_full_rows(order) -> tuple[list[list[int]], list[int]]:
    """The weight program A w >= b of a total or partial order.

    Rows in order: a step row >= 1 per pair of consecutive levels, then
    w_i >= 1 when the empty set is alone at the bottom, then each tie with
    its level's first subset as a pair of opposite rows >= 0.  Transitivity
    supplies the other comparisons, so the solutions are the weights
    inducing exactly the order's levels.  The empty set shares a level only
    in the one-level order, whose ties force w = 0.
    """
    n = order.n
    levels = order.levels
    rows = difference_rows(order)
    if len(levels[0]) == 1:
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            rows.append(unit)
    rhs = [1] * len(rows)
    for group in levels:
        for other in group[1:]:
            tie = _indicator_difference(group[0], other, n)
            rows += [tie, [-v for v in tie]]
            rhs += [0, 0]
    return rows, rhs


def _to_integer_weights(w: list[Fraction]) -> tuple[int, ...]:
    """Reference for the integer read-off ``coherence._coprime``: Fractions
    cleared by the lcm of their denominators, then divided by the gcd."""
    denom = math.lcm(*(v.denominator for v in w))
    ints = [int(v * denom) for v in w]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints)


def lex_min_by_pins(A, b, n: int):
    """Reference for :func:`lex_min_ge`: 1 + n solves instead of one.

    Feasibility of A x >= b is decided by the Farkas dual.  By strong
    duality each coordinate's minimum, with the earlier ones pinned, is the
    optimum of the dual max rhs.y over y.rows = e_i, y >= 0 (n rows),
    solved by :func:`solve_eq` as min -rhs.y; a pin x_i = opt is a pair of
    opposite rows, that is a free dual column.  The minimum is the vector
    of these optima; a coordinate that is unbounded below (an infeasible
    dual) gives None.
    """
    if lp.farkas_ge(A, b) is not None:
        return None
    rows, rhs, x = list(A), list(b), []
    for i in range(n):
        unit = [int(i == j) for j in range(n)]
        status, _, obj = solve_eq(transposed(rows, n), unit, [-v for v in rhs])
        if status != "optimal":
            return None
        opt = -obj
        x.append(opt)
        rows += [unit, [-v for v in unit]]
        rhs += [opt, -opt]
    return x


def coherent_by_farkas(order) -> bool:
    """Reference for ``coherence.is_coherent``: the weight program is feasible
    iff its two-phase Farkas dual (``lp.farkas_ge``) finds no certificate."""
    _, rows, rhs = _program(order)
    return lp.farkas_ge(rows, rhs) is None


def lex_min_weight_full_rows(order):
    """``coherence.find_weight`` over :func:`constraints_full_rows`, by pins."""
    w = lex_min_by_pins(*constraints_full_rows(order), order.n)
    return None if w is None else _to_integer_weights(w)


def certificate_full_rows(order: TermOrder):
    """The Farkas certificate over :func:`constraints_full_rows`, or None.

    Each nonzero multiplier is mapped back to its chain step or unit row
    by index, and duplicate reduced pairs are merged.
    """
    rows, rhs = constraints_full_rows(order)
    lam = lp.farkas_ge(rows, rhs)
    if lam is None:
        return None
    mults = _to_integer_weights(lam)
    chain = order.chain
    combined: dict[tuple[int, int], int] = {}
    for k, m in enumerate(mults):
        if m == 0:
            continue
        if k < len(chain) - 1:
            left, right = reduced_pair(chain[k], chain[k + 1])
        else:
            left, right = 0, 1 << (k - (len(chain) - 1))  # unit row: {} < {i}
        combined[(left, right)] = combined.get((left, right), 0) + m
    return Certificate(
        pairs=tuple(DisjointPair(l, r) for l, r in sorted(combined)),
        multiplicities=tuple(combined[key] for key in sorted(combined)),
    )


def cone_is_zero_full_rows(rows: list[list[int]], n: int) -> bool:
    """Whether {w : row.w >= 0 for every row} is {0}, every row kept.

    It is when the rows positively span R^n, by Davis (1954) when they
    have rank n and some lam >= 1 has lam.rows = 0: with lam = 1 + mu, an
    LP with n rows.
    """
    if _rank_det(rows)[0] < n:
        return False
    target = [-sum(row[i] for row in rows) for i in range(n)]
    status, _, _ = solve_eq(transposed(rows, n), target, [0] * len(rows))
    return status == "optimal"


def extreme_rays_by_null_vectors(rows, n: int) -> list[tuple[int, ...]]:
    """Reference for ``baues._extreme_rays``: the extreme rays of a pointed
    cone {w : row.w >= 0 for every row}, sorted.

    Each extreme ray is the null space of n - 1 independent rows it is
    tight on.  So every (n - 1)-subset of the distinct rows gives its null
    vector by cofactors (Leibniz determinants), reduced to coprime
    integers; the vector or its negative is a ray when it satisfies every
    row.  Pass the unit rows too for the rays of the cone in the orthant.
    """
    if not n:
        return []
    rows = list(dict.fromkeys(map(tuple, rows)))
    rays = set()
    for subset in itertools.combinations(rows, n - 1):
        null = [
            (-1) ** j * det_leibniz([row[:j] + row[j + 1 :] for row in subset])
            for j in range(n)
        ]
        g = math.gcd(*null)
        if not g:
            continue
        for sign in (1, -1):
            ray = tuple(sign * v // g for v in null)
            if all(sum(a * v for a, v in zip(row, ray)) >= 0 for row in rows):
                rays.add(ray)
    return sorted(rays)


def has_positive_cone_point(rows: list[list[int]]) -> bool:
    """Reference for "some extreme ray of an order's cone is positive".

    ``rows`` are an order's difference rows, first the one of the empty
    set and the first singleton s_1.  On the cone every coordinate is at
    least w(s_1) >= 0, so a positive point is one with w(s_1) >= 1 after
    scaling: the rows with right-hand side 1 on the first row and 0
    elsewhere are feasible iff ``lp.farkas_ge`` finds no certificate.
    """
    return lp.farkas_ge(rows, [1] + [0] * (len(rows) - 1)) is None
