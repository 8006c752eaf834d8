"""Exact rational linear programming (two-phase simplex, Bland's rule).

Everything runs over :class:`fractions.Fraction`; no floating point enters
any decision.  Problems here are tiny (tens of rows and columns), so a
dense tableau is plenty.  Programs ``A x >= b`` with n unknowns and up to
2^n rows are solved on the dual side (:func:`maximize_dual`, one tableau
row per unknown); :func:`minimize_ge` is the primal encoder, for callers
that need a particular optimal vertex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(Exception):
    pass


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = ONE / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r, line in enumerate(tab):
        if r != row and line[col] != 0:
            f = line[col]
            tab[r] = [v - f * p for v, p in zip(line, prow)]
    basis[row] = col


def _simplex(tab, basis, cost):
    """Minimize cost over the tableau's feasible basis; returns objective.

    ``tab`` rows are [a_1 ... a_k | rhs] with the current basis identity.
    ``cost`` is the objective row over the structural columns.
    """
    m = len(tab)
    width = len(cost)
    # reduced-cost row, updated with each pivot
    red = [Fraction(v) for v in cost] + [ZERO]
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
            raise UnboundedError
        _pivot(tab, basis, leave, enter)
        f = red[enter]
        if f != 0:
            prow = tab[leave]
            red = [v - f * p for v, p in zip(red, prow)]


def solve_eq(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
):
    """min c.x subject to A x = b, x >= 0.

    Returns (status, x, objective) with status one of "optimal",
    "infeasible", "unbounded".
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
        tab.append(row + [ZERO] * m + [rhs])
        tab[i][n + i] = ONE
    basis = [n + i for i in range(m)]
    # phase 1: drive out artificials
    cost1 = [ZERO] * n + [ONE] * m
    if _simplex(tab, basis, cost1) != 0:
        return "infeasible", None, None
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][j] != 0:
                    _pivot(tab, basis, r, j)
                    break
    keep = [r for r in range(m) if basis[r] < n]
    tab = [[tab[r][j] for j in range(n)] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    cost2 = [Fraction(v) for v in c]
    try:
        obj = _simplex(tab, basis, cost2)
    except UnboundedError:
        return "unbounded", None, None
    x = [ZERO] * n
    for r, j in enumerate(basis):
        x[j] = tab[r][-1]
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
        a = [Fraction(v) for v in A[i]]
        neg = [-v for v in a]
        slack = [ZERO] * m
        slack[i] = -ONE
        rows.append(a + neg + slack)
    cost = [Fraction(v) for v in c] + [-Fraction(v) for v in c] + [ZERO] * m
    status, x, obj = solve_eq(rows, [Fraction(v) for v in b], cost)
    if status != "optimal":
        return status, None, None
    return status, [x[i] - x[n + i] for i in range(n)], obj
