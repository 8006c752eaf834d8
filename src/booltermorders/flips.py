"""Primitive pairs, flippable pairs, flips, flip graphs, and products.

A primitive pair is a disjoint pair occupying consecutive ranks; a
flippable pair additionally has every disjoint-union translate consecutive.
Flipping swaps all translates at once and yields another valid order that
agrees with the original on every other disjoint comparison.
"""

from __future__ import annotations

from .core import (
    DisjointPair,
    TermOrder,
    _Record,
    _ground,
    _vouch,
    canonicalize,
    full_mask,
    require_valid,
    submasks,
)


class FlipError(ValueError):
    pass


def primitive_pairs(order: TermOrder) -> list[DisjointPair]:
    """Disjoint pairs at consecutive ranks, in rank order."""
    require_valid(order)
    chain = order.chain
    return [DisjointPair(a, b) for a, b in zip(chain, chain[1:]) if not a & b]


def flippable_pairs(order: TermOrder) -> list[DisjointPair]:
    """Primitive pairs whose every disjoint translate is also consecutive."""
    return [pair for pair in primitive_pairs(order) if _translates_consecutive(order, pair)]


def _translates_consecutive(order: TermOrder, pair: DisjointPair) -> bool:
    """Whether pair.left | l sits right below pair.right | l for every l."""
    rank = order.rank
    rest = full_mask(order.n) & ~(pair.left | pair.right)
    return all(rank[pair.right | l] == rank[pair.left | l] + 1 for l in submasks(rest))


def flip(order: TermOrder, pair: DisjointPair) -> TermOrder:
    """Swap every translate of the pair; requires a flippable, nonempty left side."""
    if pair.left == 0:
        raise FlipError("cannot flip a pair with empty left side")
    require_valid(order)
    full = full_mask(order.n)
    if (pair.left | pair.right) & ~full or not _translates_consecutive(order, pair):
        raise FlipError(f"pair {pair} is not flippable in this order")
    rank = list(order.rank)
    for l in submasks(full & ~(pair.left | pair.right)):
        a, b = pair.left | l, pair.right | l
        rank[a], rank[b] = rank[b], rank[a]
    return _vouch(TermOrder(order.n, tuple(rank)))  # the flip lemma


def unit_order() -> TermOrder:
    """The unique order on a one-element ground set."""
    return _vouch(TermOrder(1, (0, 1)))


def lex_product(order_a: TermOrder, order_b: TermOrder) -> TermOrder:
    """Order on [m+k] comparing by the first factor, tie-broken by the second.

    The second factor's ground set becomes 1..k, the first factor's is
    shifted up by k.
    """
    require_valid(order_a)
    require_valid(order_b)
    k = order_b.n
    _ground(order_a.n + k)
    chain = [(a << k) | b for a in order_a.chain for b in order_b.chain]
    return _vouch(TermOrder.from_chain(order_a.n + k, chain))


def deficient_extension(order: TermOrder, n: int) -> TermOrder:
    """Extend by appending variables, each entering right above the full set.

    Every new variable k+1 satisfies [k] < {k+1}, so the new chain is the
    old one followed by its translate by the new variable.  Each step adds
    exactly one flippable pair (the new central pair), so a seed with few
    flippable pairs stays flip deficient.
    """
    require_valid(order)
    if n < order.n:
        raise ValueError(f"cannot shrink ground set from {order.n} to {n}")
    _ground(n)
    chain = list(order.chain)
    for k in range(order.n, n):
        top = 1 << k
        chain = chain + [mask | top for mask in chain]
    return _vouch(TermOrder.from_chain(n, chain))


class FlipGraph(_Record):
    """Flip graph on term orders, either per class or per labeling."""

    _fields = ("n", "mode", "vertices", "adjacency")

    def __init__(self, n: int, mode: str, vertices: list[TermOrder],
                 adjacency: list[set[int]]):
        self.n, self.mode, self.vertices, self.adjacency = n, mode, vertices, adjacency

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for adj in self.adjacency:
            hist[len(adj)] = hist.get(len(adj), 0) + 1
        return dict(sorted(hist.items()))


def flip_graph(n: int, mode: str = "canonical") -> FlipGraph:
    """Build the flip graph on all orders on [n].

    ``mode="canonical"`` takes one vertex per relabeling class and tests
    edges through canonical forms of flip neighbors; ``mode="labeled"``
    keeps every labeling, so it stops at n = 5 (n = 6 has 121,999,680
    labeled orders, all held before the first edge).
    """
    from .enumeration import enumerate_orders

    if mode not in ("canonical", "labeled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= n <= 6:
        raise ValueError(f"n must be in 1..6, got {n}")
    if mode == "labeled" and n > 5:
        raise ValueError(f"labeled mode needs n <= 5, got {n}")
    emit = "canonical" if mode == "canonical" else "all"
    vertices = list(enumerate_orders(n, mode=emit))
    index = {o.rank: i for i, o in enumerate(vertices)}
    adjacency: list[set[int]] = [set() for _ in vertices]
    for i, order in enumerate(vertices):
        for pair in flippable_pairs(order):
            if pair.left == 0:
                continue
            neighbor = flip(order, pair)
            if mode == "canonical":
                neighbor = canonicalize(neighbor)
            j = index[neighbor.rank]
            if j != i:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return FlipGraph(n=n, mode=mode, vertices=vertices, adjacency=adjacency)

