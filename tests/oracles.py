"""Test-only oracles: slow, direct versions of library routines.

Each one computes what a library function computes by an independent and
much more expensive route, so the tests can compare the two on small cases.
"""

from __future__ import annotations

import itertools

import numpy as np

from booltermorders.baues import PartialTermOrder, PartialValidationReport
from booltermorders.core import TermOrder, full_mask, is_valid, relabel


def canonicalize_brute_force(order: TermOrder) -> TermOrder:
    """Reference canonicalization: explicit minimum over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(order.n)):
        cand = relabel(order, perm).rank
        if best is None or cand < best:
            best = cand
    return TermOrder(order.n, best)


def brute_force_orders(n: int) -> list[TermOrder]:
    """Filter all orderings of the nonempty subsets by validity.

    Only usable for tiny n (n=3 already means 7! candidates).
    """
    size = 1 << n
    found = []
    for perm in itertools.permutations(range(1, size)):
        order = TermOrder.from_chain(n, (0,) + perm)
        if is_valid(order):
            found.append(order)
    return found


def validate_partial_quadruples(order: PartialTermOrder) -> PartialValidationReport:
    """Check a partial order through same-level splittings.

    Whenever a + c and b + d share a level (or coincide), with a disjoint
    from c and b disjoint from d, a strict comparison level(b) < level(a)
    must force level(c) < level(d).  Cross-checks ``validate_partial``
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
                return PartialValidationReport(False, [(a, b, c, d)])
    return PartialValidationReport(True, [])


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
