"""Exhaustive generation and counting of boolean term orders.

Orders on [n] are built by extending orders on [n-1]: the subsets without n
keep their relative order, the subsets with n appear in the same relative
order (forced by the union axiom), and the two chains are interleaved.  A
merge is valid iff the cross comparisons between the chains are constant on
each class of pairs with the same disjoint reduction, which the search
enforces incrementally; a full validate of every emitted order guards the
pruning at desk scale.

Class representatives are the canonical orders (singleton ranks increasing),
so canonical-only enumeration just constrains where the new singleton {n}
may enter.  Stabilizers are trivial, so total counts are class counts
times n!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .core import TermOrder, is_valid, relabel

MAX_ENUM = 7


@dataclass(frozen=True)
class EnumerationResult:
    n: int
    class_count: int

    @property
    def total_count(self) -> int:
        return self.class_count * math.factorial(self.n)


_BASE_CHAINS = {0: (0,), 1: (0, 1)}


def _extension_chains(chain: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Canonical interleavings of chain and chain|{n}: valid orders on [n].

    ``chain`` lists the subsets of [n-1] in order.  The incremental check
    fixes, whenever an element is placed after elements of the other chain,
    the induced cross comparison keyed by its disjoint reduction; a
    conflicting key prunes the branch.
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


def _chains(n: int) -> Iterator[tuple[int, ...]]:
    """Chains of the canonical orders on [n]."""
    if n <= 1:
        yield _BASE_CHAINS[n]
        return
    for chain in _chains(n - 1):
        yield from _extension_chains(chain, n)


def enumerate_orders(
    n: int, mode: str = "all", verify: bool | None = None
) -> Iterator[TermOrder]:
    """Stream every valid order on [n] exactly once.

    ``mode="canonical"`` emits one representative per relabeling class (the
    canonical one); ``mode="all"`` emits every labeling.  With ``verify``
    (default: on for n <= 5) each emitted order passes a full validate.
    """
    if not 0 <= n <= MAX_ENUM:
        raise ValueError(f"n must be in 0..{MAX_ENUM}, got {n}")
    if mode not in ("all", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    if verify is None:
        verify = n <= 5
    perms = (
        [None]
        if mode == "canonical"
        else list(itertools.permutations(range(n)))
    )
    for chain in _chains(n):
        order = TermOrder.from_chain(n, chain)
        if verify and not is_valid(order):
            raise AssertionError(f"enumeration produced an invalid order: {chain}")
        for perm in perms:
            yield order if perm is None else relabel(order, perm)


def count_orders(n: int) -> EnumerationResult:
    """Class and total counts, streaming with frontier-sized memory."""
    if not 0 <= n <= MAX_ENUM:
        raise ValueError(f"n must be in 0..{MAX_ENUM}, got {n}")
    verify = n <= 5
    count = 0
    for chain in _chains(n):
        if verify and not is_valid(TermOrder.from_chain(n, chain)):
            raise AssertionError(f"enumeration produced an invalid order: {chain}")
        count += 1
    return EnumerationResult(n=n, class_count=count)
