"""Generalized (partial) term orders and the refinement poset.

A partial term order is an ordered partition of the subsets of [n] into
levels, with the empty set alone at the bottom, that is compatible with
disjoint unions: for disjoint gamma, the comparison of alpha and beta
(below, same level, above) is preserved when both sides gain gamma.
Total orders are the partitions into singleton levels; weight vectors
induce partial orders by grouping equal subset sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import lp
from .arrangement import _rank_int
from .core import (
    MAX_GROUND,
    OrderError,
    ParseError,
    TermOrder,
    format_subset,
    full_mask,
    parse_subset,
    require_valid,
)
from .coherence import _difference_rows, subset_sum


@dataclass(frozen=True)
class PartialTermOrder:
    """Levels of an ordered partition of the subsets of [n].

    ``level[mask]`` is the 0-based level of the subset; levels are
    contiguous and the empty set sits alone at level 0 (except in the
    trivial one-level partition).
    """

    n: int
    level: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND:
            raise OrderError(f"n must be in 0..{MAX_GROUND}, got {self.n}")
        size = 1 << self.n
        if len(self.level) != size:
            raise OrderError(
                f"level array must have 2^{self.n} = {size} entries, got {len(self.level)}"
            )
        top = max(self.level)
        if sorted(set(self.level)) != list(range(top + 1)):
            raise OrderError("levels must be contiguous starting from 0")
        if self.level[0] != 0:
            raise OrderError("the empty set must lie at the bottom level")
        if top > 0 and self.level.count(0) != 1:
            raise OrderError("the empty set must be alone at the bottom level")

    @classmethod
    def from_total(cls, order: TermOrder) -> "PartialTermOrder":
        require_valid(order)
        return cls(order.n, order.rank)

    @classmethod
    def from_weight(cls, weights: Sequence) -> "PartialTermOrder":
        """Partial order grouping subsets with equal weight sums."""
        n = len(weights)
        sums = [subset_sum(weights, mask) for mask in range(1 << n)]
        distinct = sorted(set(sums))
        index = {s: i for i, s in enumerate(distinct)}
        return cls(n, tuple(index[s] for s in sums))

    @classmethod
    def trivial(cls, n: int) -> "PartialTermOrder":
        """Everything on one level."""
        return cls(n, (0,) * (1 << n))

    @property
    def num_levels(self) -> int:
        return max(self.level) + 1

    @property
    def levels(self) -> list[list[int]]:
        """Subsets grouped by level, each group sorted by mask."""
        out: list[list[int]] = [[] for _ in range(self.num_levels)]
        for mask, lvl in enumerate(self.level):
            out[lvl].append(mask)
        return out

    def is_total(self) -> bool:
        return self.num_levels == len(self.level)

    def to_total(self) -> TermOrder:
        if not self.is_total():
            raise OrderError("partial order has ties; not a total order")
        return TermOrder(self.n, self.level)


@dataclass
class PartialValidationReport:
    ok: bool
    violations: list[tuple] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_partial(order: PartialTermOrder, full: bool = False) -> PartialValidationReport:
    """Check disjoint-union compatibility of the level map.

    For disjoint alpha, beta, gamma the comparison of alpha and beta must
    equal that of alpha + gamma and beta + gamma.  With ``full`` every
    violating triple is collected, otherwise the first stops the scan.
    """
    level = order.level
    fm = full_mask(order.n)
    violations = []
    for a in range(fm + 1):
        rest = fm & ~a
        b = rest
        while b:
            ca = level[a]
            cb = level[b]
            base = (ca > cb) - (ca < cb)
            free = rest & ~b
            g = free
            while g:
                la, lb = level[a | g], level[b | g]
                if (la > lb) - (la < lb) != base:
                    violations.append((a, b, g))
                    if not full:
                        return PartialValidationReport(False, violations)
                g = (g - 1) & free
            b = (b - 1) & rest
    return PartialValidationReport(not violations, violations)


def validate_partial_quadruples(order: PartialTermOrder) -> PartialValidationReport:
    """Equivalent check through same-level splittings.

    Whenever a + c and b + d share a level (or coincide), with a disjoint
    from c and b disjoint from d, a strict comparison level(b) < level(a)
    must force level(c) < level(d).  Cross-checks :func:`validate_partial`
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


def refines(fine: PartialTermOrder, coarse: PartialTermOrder) -> bool:
    """True when every strict comparison of ``coarse`` holds in ``fine``."""
    if fine.n != coarse.n:
        raise ValueError("ground sets differ")
    lf, lc = fine.level, coarse.level
    size = 1 << fine.n
    for a in range(size):
        for b in range(a + 1, size):
            if lc[a] < lc[b] and not lf[a] < lf[b]:
                return False
            if lc[b] < lc[a] and not lf[b] < lf[a]:
                return False
    return True


def is_coherent_partial(order: PartialTermOrder) -> bool:
    """Whether some weight vector induces exactly these levels."""
    return find_partial_weight(order) is not None


def find_partial_weight(order: PartialTermOrder):
    """A weight vector inducing the partial order, or None.

    Strict level steps become strict inequalities, ties become equalities
    (encoded as opposite pairs of weak inequalities).
    """
    levels = order.levels
    rows = []
    rhs = []
    n = order.n

    def diff(lo, hi):
        return [
            (hi >> i & 1) - (lo >> i & 1) for i in range(n)
        ]

    for group in levels:
        rep = group[0]
        for other in group[1:]:
            d = diff(rep, other)
            rows.append(d)
            rhs.append(0)
            rows.append([-v for v in d])
            rhs.append(0)
    for lower, upper in zip(levels, levels[1:]):
        rows.append(diff(lower[0], upper[0]))
        rhs.append(1)
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(row)
        rhs.append(1)
    w = lp.feasible_ge(rows, rhs)
    if w is None:
        return None
    induced = PartialTermOrder.from_weight(w)
    assert induced.level == order.level
    return tuple(w)


def _cone_is_zero(rows: list[list[int]], n: int) -> bool:
    """Whether {w in R^n : row.w >= 0 for every row} is {0}.

    It is exactly when the rows positively span R^n, and by Davis (1954)
    that holds iff they have rank n and some lam >= 1 has lam.rows = 0.
    Writing lam = 1 + mu, the second condition is the feasibility of
    sum_j mu_j row_j = -sum_j row_j with mu >= 0, an LP with n rows.
    """
    if _rank_int(rows) < n:
        return False
    target = [-sum(row[i] for row in rows) for i in range(n)]
    status, _, _ = lp.maximize_dual(rows, [0] * len(rows), target)
    return status == "optimal"


def coherent_above_only_trivial(order: TermOrder) -> bool:
    """Whether the trivial partition is the only coherent coarsening.

    Relaxing every consecutive comparison of the order to a weak
    inequality gives a cone of weight vectors; any nonzero point of it
    induces a nontrivial coherent partial order refined by the order.  The
    cone is {0} iff the difference rows positively span R^n (Davis 1954),
    tested by a rank and one feasibility LP with n rows.
    """
    require_valid(order)
    return _cone_is_zero(_difference_rows(order), order.n)


def coherent_coarsenings_nontrivial(order: TermOrder) -> list[PartialTermOrder]:
    """Nontrivial coherent partial orders refined by the order.

    Empty when the relaxed weight cone is {0}, decided by positive
    spanning as in :func:`coherent_above_only_trivial`.  Otherwise,
    enumerating the vertices of the cone is overkill at this scale;
    instead each one comes from the nonzero cone point reached while
    maximizing a signed coordinate over the cone cut by the box
    -1 <= w <= 1.  Returned without duplicates.
    """
    require_valid(order)
    n = order.n
    rows = _difference_rows(order)
    if _cone_is_zero(rows, n):
        return []
    box_rows = []
    box_rhs = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        box_rows.append(row)
        box_rhs.append(-1)
        box_rows.append([-v for v in row])
        box_rhs.append(-1)
    A = rows + box_rows
    b = [0] * len(rows) + box_rhs
    found = {}
    for i in range(n):
        for sign in (1, -1):
            c = [0] * n
            c[i] = -sign
            status, x, obj = lp.minimize_ge(A, b, c)
            if status == "optimal" and obj < 0:
                p = PartialTermOrder.from_weight(x)
                if p.num_levels > 1:
                    found[p.level] = p
    return list(found.values())


# ---------------------------------------------------------------------------
# order-file format with levels


def serialize_partial(order: PartialTermOrder) -> str:
    """Order-file text; subsets on a shared level are joined with '='."""
    lines = [f"n={order.n}"]
    for group in order.levels:
        lines.append("=".join(format_subset(mask) for mask in group))
    return "\n".join(lines) + "\n"


def parse_partial(text: str) -> PartialTermOrder:
    """Inverse of :func:`serialize_partial`; validates the result."""
    n = None
    raw_groups: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise ParseError("duplicate n= header", lineno)
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(f"bad header {line!r}", lineno) from None
            continue
        raw_groups.append((lineno, [p.strip() for p in line.split("=")]))
    if n is None:
        n = max(
            (int(e) for _, parts in raw_groups for p in parts if p != "-"
             for e in p.split(",")),
            default=0,
        )
    size = 1 << n
    total = sum(len(parts) for _, parts in raw_groups)
    if total != size:
        raise ParseError(f"expected {size} subsets, got {total}")
    level = [None] * size
    for lvl, (lineno, parts) in enumerate(raw_groups):
        for part in parts:
            mask = parse_subset(part, n, lineno)
            if level[mask] is not None:
                raise ParseError(f"subset {part!r} listed twice", lineno)
            level[mask] = lvl
    order = PartialTermOrder(n, tuple(level))
    report = validate_partial(order)
    if not report:
        a, b, g = report.violations[0]
        raise ParseError(
            "not a partial term order: comparison of "
            f"{format_subset(a)} and {format_subset(b)} changes under "
            f"{format_subset(g)}"
        )
    return order
