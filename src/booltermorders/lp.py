"""Exact rational linear programming (simplex over integers).

The tableau holds Python integers over one common positive denominator d
and pivots by Edmonds' integer-preserving step (Bareiss), so no floating
point and no :class:`fractions.Fraction` enters the one kernel
(:func:`_simplex` over :func:`_pivot`), which returns integer numerators
over d (a pivot on 1 over d = 1 needs no multiply by p and no
division).  The coherence module reads weights and certificates off
those numerators through :func:`_lex_min` and :func:`_solve_eq`; the
public solvers are thin wrappers that return exact Fractions.  Problems
here are tiny (tens of rows and columns), so a dense tableau is plenty.  :func:`lex_min_ge`
(the lexicographic minimum of ``A x >= b``, or None when infeasible) needs
every unit row in A; it starts from their dual columns and enters the
most negative reduced cost.  :func:`farkas_ge` (a certificate of
infeasibility) calls :func:`solve_eq`, which starts from artificial
columns (two phases) and enters by Bland's rule.  No library code calls
the primal encoders :func:`minimize_ge` and :func:`feasible_ge`; the
benchmark and the tests call them (ROADMAP.md plans their removal).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, index, sub
from typing import Sequence


def _pivot(tab, basis, d, row, col):
    """Pivot on (row, col) over the denominator d > 0; returns the new one.

    ``tab / d`` is the exact tableau.  With p the pivot entry, the new
    denominator is |p|, the pivot row keeps its entries (negated when p < 0)
    and every other row r becomes (|p| r - r[col] * pivot row) / d, a
    division that is exact for an integer constraint matrix (Bareiss).
    At |p| = d = 1 (most pivots of the coherence programs) r becomes
    r - r[col] * pivot row, by C-level ``map`` when r[col] is 1 or -1.
    Rows past ``len(basis)``, the reduced-cost row, are pivoted alike.
    """
    prow = tab[row]
    p = prow[col]
    if p < 0:
        p = -p
        prow = tab[row] = [-v for v in prow]
    unit = p == d == 1
    for r, line in enumerate(tab):
        if r != row:
            f = line[col]
            if not f:
                if p != d:
                    tab[r] = [p * v // d for v in line]
            elif not unit:
                tab[r] = [(p * v - f * q) // d for v, q in zip(line, prow)]
            elif f == 1:
                tab[r] = list(map(sub, line, prow))
            elif f == -1:
                tab[r] = list(map(add, line, prow))
            else:
                tab[r] = [v - f * q for v, q in zip(line, prow)]
    basis[row] = col
    return p


def _simplex(tab, basis, d, cost, k, dantzig=False):
    """Minimize an integer cost over the tableau's feasible basis.

    ``tab`` rows are integers [a_1 ... a_w | rhs_1 ... rhs_k] over the
    denominator d, with the basic columns d times the identity; the
    right-hand side rhs_1 + eps rhs_2 + ... (every small eps > 0) is
    lexicographically nonnegative in each row.  The first improving column
    enters (Bland), or with ``dantzig`` the most negative, safe only where
    no pivot is degenerate.  Returns (denominator, numerators over it of the
    objective's k eps-coefficients or None if unbounded); ``tab`` and ``basis`` change.
    """
    m = len(tab)
    width = len(cost)
    # reduced-cost row over d, pivoted with the tableau
    red = [d * v for v in cost] + [0] * k
    for r in range(m):
        cb = cost[basis[r]]
        if cb == 1:
            red = list(map(sub, red, tab[r]))
        elif cb == -1:
            red = list(map(add, red, tab[r]))
        elif cb:
            red = [v - cb * a for v, a in zip(red, tab[r])]
    tab.append(red)
    try:
        while True:
            red = tab[m]
            costs = red[:width]
            low = min(costs, default=0) if dantzig else next(filter((0).__gt__, costs), 0)
            if low >= 0:
                return d, [-v for v in red[width:]]
            enter = red.index(low)  # the first column with that reduced cost
            leave = -1
            for r in range(m):
                a = tab[r][enter]
                if a > 0:
                    rhs = tab[r][width]
                    # ratios rhs / a compared by cross-multiplying (a > 0); on a
                    # tie, the later right-hand-side columns, then the basis index
                    if leave < 0 or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a
                        and [v * best_a for v in tab[r][width + 1 :]] + [basis[r]]
                        < [v * a for v in tab[leave][width + 1 :]] + [basis[leave]]
                    ):
                        best_rhs, best_a, leave = rhs, a, r
            if leave < 0:
                return d, None  # unbounded
            d = _pivot(tab, basis, d, leave, enter)
    finally:
        tab.pop()


def _solve_eq(rows, c, d=1):
    """:func:`solve_eq` on integer ``rows`` [A_i | b_i] over d > 0 and an integer cost c:
    (status, d, x, objective), x and the objective numerators over d, or None."""
    m = len(rows)
    n = len(c)
    tab = [[-v for v in row] if row[n] < 0 else list(row) for row in rows]
    for i, row in enumerate(tab):
        row[n:n] = [0] * m  # the artificial columns, d times the identity
        row[n + i] = d
    basis = [n + i for i in range(m)]
    # phase 1: drive out artificials
    d, infeasibility = _simplex(tab, basis, d, [0] * n + [1] * m, 1)
    if infeasibility[0]:
        return "infeasible", d, None, None
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][j] != 0:
                    d = _pivot(tab, basis, d, r, j)
                    break
    keep = [r for r in range(m) if basis[r] < n]
    tab = [tab[r][:n] + tab[r][n + m :] for r in keep]
    basis = [basis[r] for r in keep]
    d, obj = _simplex(tab, basis, d, c, 1)
    if obj is None:
        return "unbounded", d, None, None
    x = [0] * n
    for r, j in enumerate(basis):
        x[j] = tab[r][n]
    return "optimal", d, x, obj[0]


def solve_eq(A: Sequence[Sequence[int]], b: Sequence[Fraction], c: Sequence[Fraction]):
    """min c.x subject to A x = b, x >= 0, for integer A.

    Returns (status, x, objective) with status one of "optimal",
    "infeasible", "unbounded"; x and the objective are Fractions.
    """
    d = math.lcm(*[v.denominator for v in b])
    scale = math.lcm(*[v.denominator for v in c])  # scaling c changes no pivot
    rows = [[d * index(v) for v in a] + [int(d * beta)] for a, beta in zip(A, b)]
    status, d, x, obj = _solve_eq(rows, [int(v * scale) for v in c], d)
    if x is None:
        return status, None, None
    return status, [Fraction(v, d) for v in x], Fraction(obj, d * scale)


def feasible_ge(A: Sequence[Sequence[int]], b: Sequence[int]):
    """A point x with A x >= b (:func:`minimize_ge`'s, for cost 0), or None."""
    n = len(A[0]) if A else 0
    return minimize_ge(A, b, [0] * n)[1]


def farkas_ge(A: Sequence[Sequence[int]], b: Sequence[int]):
    """A vector lam >= 0 with lam.A = 0 and lam.b = 1, or None.

    By Farkas' lemma exactly one of this system and ``A x >= b`` is
    solvable, so this is the dual route to :func:`feasible_ge`.  One
    kernel solve with zero cost: the columns of A, then b, are the rows.
    """
    n = len(A[0]) if A else 0
    columns = [[a[j] for a in A] for j in range(n)] + [list(b)]
    status, lam, _ = solve_eq(columns, [0] * n + [1], [0] * len(A))
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


def _lex_min(columns, basis, b):
    """:func:`lex_min_ge` on integers: the n columns of A, the index of each
    unit row e_j in A, and integer b; (d, the minimum's numerators over d) or None."""
    n = len(columns)
    tab = [column + [int(i == j) for i in range(n)] for j, column in enumerate(columns)]
    d, obj = _simplex(tab, basis, 1, [-v for v in b], n, dantzig=True)
    return None if obj is None else (d, [-v for v in obj])


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
    solution = _lex_min(columns, basis, list(map(index, b)))
    return None if solution is None else [Fraction(v, solution[0]) for v in solution[1]]
