"""Exhaustive generation and counting of boolean term orders.

Orders on [n] are built by extending orders on [n-1]: the subsets without n
keep their relative order, the subsets with n appear in the same relative
order (forced by the union axiom), and the two chains are interleaved.  A
merge is valid iff the cross comparisons between the chains are constant on
each class of pairs with the same disjoint reduction, which the search
enforces incrementally on bitsets of those reductions.  For n <= 5 every
emitted order is also scanned by :func:`is_valid`; above, it is marked valid.

Class representatives are the canonical orders (singleton ranks increasing),
so canonical-only enumeration just constrains where the new singleton {n}
may enter.  Stabilizers are trivial, so total counts are class counts
times n!.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .core import TermOrder, _Frozen, _vouch, is_valid, relabel

MAX_ENUM = 7


class EnumerationResult(_Frozen):
    _fields = ("n", "class_count")

    def __init__(self, n: int, class_count: int):
        self.__dict__.update(n=n, class_count=class_count)

    @property
    def total_count(self) -> int:
        return self.class_count * math.factorial(self.n)


_BASE_CHAINS = {0: (0,), 1: (0, 1)}


def _cross_keys(chain: tuple[int, ...], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bitsets of the cross comparisons that each placement fixes.

    Chain A is ``chain``, chain B is ``chain`` lifted by {n}.  The pair (a,
    b|{n}) has the key bit a'·2^(n-1) + b' of its disjoint reduction (a', b').
    ``key_a[i][j]`` ORs the keys of chain[i] against chain[j:], the B sets
    that end up above it when it is placed after j of them; ``key_b[j][i]``
    ORs those of B set j against chain[i:], the A sets that end up above it.
    """
    top = 1 << (n - 1)
    key_a, key_b = [], []
    for x in chain:
        row_a, row_b = [0], [0]
        for y in reversed(chain):
            row_a.append(row_a[-1] | 1 << ((x & ~y) * top + (y & ~x)))
            row_b.append(row_b[-1] | 1 << ((y & ~x) * top + (x & ~y)))
        key_a.append(row_a[::-1])
        key_b.append(row_b[::-1])
    return key_a, key_b


def _merge_leaves(chain: tuple[int, ...], n: int) -> Iterator[list[int]]:
    """Canonical interleavings of chain and chain|{n}: valid orders on [n].

    ``chain`` lists the subsets of [n-1] in order.  A cross comparison is
    fixed when the first of its two sets is placed: its key joins T (A set
    below) or F (A set above), and a key in both prunes the branch.  A node
    (i, j, T, F) has placed chain[:i] and j sets of B; the first set placed
    is the empty set of A, which puts every a below a|{n}.  Each leaf yields
    the same list, refilled, so a caller copies what it keeps.
    """
    m = len(chain)
    key_a, key_b = _cross_keys(chain, n)
    lifted = [b | 1 << (n - 1) for b in chain]
    # canonical extensions keep the singleton {n} after the singleton {n-1}
    gate = chain.index(1 << (n - 2))
    out = [0] * (2 * m)
    stack = [(0, 0, 0, 0, 0)]  # depth first, A before B, with the set placed last
    while stack:
        i, j, T, F, placed = stack.pop()
        if i + j:
            out[i + j - 1] = placed
        if j < m and (j or i > gate) and not key_b[j][i] & T:
            stack.append((i, j + 1, T, F | key_b[j][i], lifted[j]))
        if i < m:
            if not key_a[i][j] & F:
                stack.append((i + 1, j, T | key_a[i][j], F, chain[i]))
        elif j == m:
            yield out


def _extension_chains(chain: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """The chains of :func:`_merge_leaves`, in its order."""
    return map(tuple, _merge_leaves(chain, n))


def _chains(n: int) -> Iterator[tuple[int, ...]]:
    """Chains of the canonical orders on [n]."""
    if n <= 1:
        yield _BASE_CHAINS[n]
        return
    for chain in _chains(n - 1):
        yield from _extension_chains(chain, n)


def enumerate_orders(n: int, mode: str = "all") -> Iterator[TermOrder]:
    """Stream every valid order on [n] exactly once.

    ``mode="canonical"`` emits one representative per relabeling class (the
    canonical one); ``mode="all"`` emits every labeling.  Each order carries
    its validity; for n <= 5 it comes from a scan by :func:`is_valid`.
    """
    if not 0 <= n <= MAX_ENUM:
        raise ValueError(f"n must be in 0..{MAX_ENUM}, got {n}")
    if mode not in ("all", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    perms = [None] if mode == "canonical" else list(itertools.permutations(range(n)))
    for chain in _chains(n):
        order = TermOrder.from_chain(n, chain)
        if n <= 5 and not is_valid(order):  # the self-check scans
            raise AssertionError(f"enumeration produced an invalid order: {chain}")
        _vouch(order)  # valid by the search above n = 5
        for perm in perms:
            yield order if perm is None else relabel(order, perm)


def count_orders(n: int) -> EnumerationResult:
    """Class and total counts, streaming with frontier-sized memory.

    For n <= 5 every chain is built and validated; above, the leaves of the
    last level's search are only counted.
    """
    if not 0 <= n <= MAX_ENUM:
        raise ValueError(f"n must be in 0..{MAX_ENUM}, got {n}")
    if n <= 5:
        count = sum(1 for _ in enumerate_orders(n, mode="canonical"))
    else:
        count = sum(1 for chain in _chains(n - 1) for _ in _merge_leaves(chain, n))
    return EnumerationResult(n=n, class_count=count)
