"""Exact rational linear programming (two-phase simplex, Bland's rule).

The tableau holds Python integers over one common positive denominator and
pivots by Edmonds' integer-preserving step (Bareiss), so no floating point
and no :class:`fractions.Fraction` arithmetic enters a pivot; solutions and
objectives are returned as exact Fractions.  Constraint matrices are
integer, right-hand sides and costs may be rational.  Problems here are
tiny (tens of rows and columns), so a dense tableau is plenty.  Programs
``A x >= b`` with n unknowns and a row per distinct comparison of an order
(at most 2^n - 1 + n) are solved on the dual side (:func:`maximize_dual`,
one tableau row per unknown); :func:`minimize_ge` is the primal encoder,
for callers that need a particular optimal vertex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Sequence


class UnboundedError(Exception):
    pass


def _lcm_of_denominators(values) -> int:
    return math.lcm(*[v.denominator for v in values])


def _pivot(tab, basis, d, row, col):
    """Pivot on (row, col) over the denominator d > 0; returns the new one.

    ``tab / d`` is the exact tableau.  With p the pivot entry, the new
    denominator is |p|, the pivot row keeps its entries (negated when p < 0)
    and every other row r becomes (|p| r - r[col] * pivot row) / d, a
    division that is exact for an integer constraint matrix (Bareiss).
    Rows past ``len(basis)``, the reduced-cost row, are pivoted alike.
    """
    prow = tab[row]
    p = prow[col]
    if p < 0:
        p = -p
        prow = tab[row] = [-v for v in prow]
    for r, line in enumerate(tab):
        if r != row:
            f = line[col]
            if f:
                tab[r] = [(p * v - f * q) // d for v, q in zip(line, prow)]
            elif p != d:
                tab[r] = [p * v // d for v in line]
    basis[row] = col
    return p


def _simplex(tab, basis, d, cost):
    """Minimize cost over the tableau's feasible basis.

    ``tab`` rows are integers [a_1 ... a_k | rhs] over the denominator d,
    with the basic columns d times the identity; ``cost`` is rational over
    the structural columns, scaled to integers by the lcm of its
    denominators (a positive scale leaves every pivot as it is).  Returns
    (denominator, objective); ``tab`` and ``basis`` are updated in place.
    """
    m = len(tab)
    width = len(cost)
    scale = _lcm_of_denominators(cost)
    cost = [int(v * scale) for v in cost]
    # reduced-cost row over d * scale, pivoted with the tableau
    red = [d * v for v in cost] + [0]
    for r in range(m):
        cb = cost[basis[r]]
        if cb:
            red = [v - cb * a for v, a in zip(red, tab[r])]
    tab.append(red)
    try:
        while True:
            red = tab[m]
            enter = -1
            for j in range(width):
                if red[j] < 0:
                    enter = j
                    break  # Bland: first improving column
            if enter < 0:
                return d, Fraction(-red[-1], d * scale)
            leave = -1
            for r in range(m):
                a = tab[r][enter]
                if a > 0:
                    rhs = tab[r][-1]
                    # ratios rhs / a compared by cross-multiplying (a > 0)
                    if leave < 0 or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[r] < basis[leave]
                    ):
                        best_rhs, best_a, leave = rhs, a, r
            if leave < 0:
                raise UnboundedError
            d = _pivot(tab, basis, d, leave, enter)
    finally:
        tab.pop()


def solve_eq(
    A: Sequence[Sequence[int]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
):
    """min c.x subject to A x = b, x >= 0, for integer A.

    Returns (status, x, objective) with status one of "optimal",
    "infeasible", "unbounded"; x and the objective are Fractions.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    # the whole tableau, artificial identity included, is scaled by d
    d = _lcm_of_denominators(b)
    tab = []
    for i in range(m):
        row = [d * index(v) for v in A[i]]
        rhs = int(d * b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [0] * m + [rhs])
        tab[i][n + i] = d
    basis = [n + i for i in range(m)]
    # phase 1: drive out artificials
    d, infeasibility = _simplex(tab, basis, d, [0] * n + [1] * m)
    if infeasibility != 0:
        return "infeasible", None, None
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][j] != 0:
                    d = _pivot(tab, basis, d, r, j)
                    break
    keep = [r for r in range(m) if basis[r] < n]
    tab = [tab[r][:n] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    try:
        d, obj = _simplex(tab, basis, d, c)
    except UnboundedError:
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = Fraction(tab[r][-1], d)
    return "optimal", x, obj


def feasible_ge(A: Sequence[Sequence[int]], b: Sequence[int]):
    """A point x with A x >= b (:func:`minimize_ge`'s, for cost 0), or None."""
    n = len(A[0]) if A else 0
    return minimize_ge(A, b, [0] * n)[1]


def maximize_dual(
    A: Sequence[Sequence[int]],
    b: Sequence[Fraction],
    c: Sequence[int],
):
    """max b.y subject to y.A = c, y >= 0: the dual of min c.x over A x >= b.

    Returns (status, y, objective); by strong duality an optimal objective
    equals the primal minimum.
    """
    rows = [[a[j] for a in A] for j in range(len(c))]
    status, y, obj = solve_eq(rows, c, [-v for v in b])
    return status, y, None if obj is None else -obj


def farkas_ge(A: Sequence[Sequence[int]], b: Sequence[int]):
    """A vector lam >= 0 with lam.A = 0 and lam.b = 1, or None.

    By Farkas' lemma exactly one of this system and ``A x >= b`` is
    solvable, so this is the dual route to :func:`feasible_ge`.
    """
    n = len(A[0]) if A else 0
    extended = [list(a) + [beta] for a, beta in zip(A, b)]
    status, lam, _ = maximize_dual(extended, [0] * len(A), [0] * n + [1])
    return lam if status == "optimal" else None


def minimize_ge(
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
):
    """min c.x subject to A x >= b, x free.

    Returns (status, x, objective).
    """
    m = len(A)
    n = len(c)
    rows = []
    for i in range(m):
        a = list(A[i])
        slack = [0] * m
        slack[i] = -1
        rows.append(a + [-v for v in a] + slack)
    cost = list(c) + [-v for v in c] + [0] * m
    status, x, obj = solve_eq(rows, b, cost)
    if status != "optimal":
        return status, None, None
    return status, [x[i] - x[n + i] for i in range(n)], obj
