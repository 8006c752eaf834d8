"""Ground-set subsets as bitmasks, total term orders, validation and file I/O.

A subset of [n] = {1, ..., n} is stored as an n-bit mask with bit i-1 set
iff element i is in the subset.  A term order is a rank array over all 2^n
masks: rank[mask] is the position of the subset, 0-based, with the empty
set required at position 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

MAX_GROUND = 16


class OrderError(ValueError):
    """Raised when an operation receives an invalid term order."""


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# subset (bitmask) helpers


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement(mask: int, n: int) -> int:
    """The subset [n] minus the given one."""
    if mask & ~full_mask(n):
        raise ValueError(f"mask {mask:#x} has bits outside [{n}]")
    return full_mask(n) & ~mask


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def elements(mask: int) -> tuple[int, ...]:
    """Elements of the subset, increasing."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of the given mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def format_subset(mask: int) -> str:
    if mask == 0:
        return "-"
    return ",".join(str(e) for e in elements(mask))


def parse_subset(text: str, n: int, line: int | None = None) -> int:
    text = text.strip()
    if text == "-":
        return 0
    mask = 0
    prev = 0
    for part in text.split(","):
        try:
            e = int(part)
        except ValueError:
            raise ParseError(f"bad subset element {part!r}", line) from None
        if e <= prev:
            raise ParseError(f"elements must be strictly increasing in {text!r}", line)
        if not 1 <= e <= n:
            raise ParseError(f"element {e} out of range 1..{n}", line)
        mask |= 1 << (e - 1)
        prev = e
    return mask


@dataclass(frozen=True)
class DisjointPair:
    """An ordered pair of disjoint subsets, left strictly below right."""

    left: int
    right: int

    def __post_init__(self):
        if self.left & self.right:
            raise ValueError("pair sides must be disjoint")
        if self.left == 0 and self.right == 0:
            raise ValueError("pair sides may not both be empty")

    def reversed(self) -> "DisjointPair":
        return DisjointPair(self.right, self.left)

    def __str__(self) -> str:
        return f"{format_subset(self.left)} < {format_subset(self.right)}"


def reduced_pair(left: int, right: int) -> tuple[int, int]:
    """Strip the common part of two masks, giving the disjoint comparison."""
    common = left & right
    return left & ~common, right & ~common


# ---------------------------------------------------------------------------
# term orders


@dataclass(frozen=True)
class TermOrder:
    """A candidate total order on the subsets of [n].

    The constructor only checks the shape; use :func:`validate` to test the
    order axioms.  Instances are immutable and hashable.
    """

    n: int
    rank: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND:
            raise OrderError(f"ground-set size must be in 0..{MAX_GROUND}, got {self.n}")
        object.__setattr__(self, "rank", tuple(self.rank))
        if len(self.rank) != 1 << self.n:
            raise OrderError(
                f"rank array has length {len(self.rank)}, expected {1 << self.n}"
            )

    @classmethod
    def from_chain(cls, n: int, chain: Sequence[int]) -> "TermOrder":
        """Build from the list of subset masks in increasing order."""
        rank = [0] * len(chain)
        for pos, mask in enumerate(chain):
            rank[mask] = pos
        return cls(n, tuple(rank))

    @classmethod
    def from_subset_chain(cls, n: int, subsets: Sequence[Iterable[int]]) -> "TermOrder":
        return cls.from_chain(n, [mask_of(s) for s in subsets])

    @property
    def chain(self) -> tuple[int, ...]:
        """Subset masks in rank order."""
        inv = [0] * len(self.rank)
        for mask, r in enumerate(self.rank):
            inv[r] = mask
        return tuple(inv)

    def precedes(self, a: int, b: int) -> bool:
        return self.rank[a] < self.rank[b]


@dataclass
class ValidationReport:
    ok: bool
    structural: list[str] = field(default_factory=list)
    violations: list[tuple[int, int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_valid(order: TermOrder) -> bool:
    """Fast check of the term-order axioms (no violation report)."""
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


def validate(order: TermOrder) -> ValidationReport:
    """Check the axioms, reporting structural problems and violating triples.

    Structural problems (rank not a permutation) are reported separately
    from axiom violations.  Each axiom-2 violation is reported as a triple
    (alpha, beta, gamma) of pairwise-disjoint masks with alpha below beta
    but alpha|gamma not below beta|gamma; a breach of the empty-set axiom
    is reported as a structural message.
    """
    rank = order.rank
    size = len(rank)
    report = ValidationReport(ok=True)
    if sorted(rank) != list(range(size)):
        report.structural.append("rank array is not a permutation of 0..2^n-1")
        report.ok = False
        return report
    if rank[0] != 0:
        report.structural.append(f"empty set has rank {rank[0]}, expected 0")
        report.ok = False
    full = size - 1
    for gamma in range(size):
        rest = full & ~gamma
        for alpha in submasks(rest):
            for beta in submasks(rest & ~alpha):
                if alpha == beta:
                    continue
                if (rank[alpha] < rank[beta]) != (
                    rank[alpha | gamma] < rank[beta | gamma]
                ):
                    if rank[alpha] < rank[beta]:
                        report.violations.append((alpha, beta, gamma))
                    report.ok = False
    return report


def require_valid(order: TermOrder) -> None:
    if not is_valid(order):
        raise OrderError("not a valid boolean term order")


# ---------------------------------------------------------------------------
# relabeling and canonical forms


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Apply a permutation of bit positions (perm[i] = image of position i)."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def relabel(order: TermOrder, perm: Sequence[int]) -> TermOrder:
    """Relabel ground elements; perm maps bit position i to perm[i]."""
    rank = [0] * len(order.rank)
    for mask, r in enumerate(order.rank):
        rank[permute_mask(mask, perm)] = r
    return TermOrder(order.n, tuple(rank))


def canonicalize(order: TermOrder) -> TermOrder:
    """The lexicographically smallest rank array over all relabelings.

    Since the singletons are totally ordered, the lex-min relabeling is the
    unique one that puts the singleton ranks in increasing order: the rank
    array is scanned mask by mask, and at each singleton index the smallest
    remaining singleton rank is the free choice.
    """
    require_valid(order)
    n = order.n
    singles = sorted(range(n), key=lambda i: order.rank[1 << i])
    # singles[j] is the old bit position that becomes bit position j
    perm = [0] * n
    for new_pos, old_pos in enumerate(singles):
        perm[old_pos] = new_pos
    return relabel(order, perm)


def is_canonical(order: TermOrder) -> bool:
    rank = order.rank
    return all(rank[1 << i] < rank[1 << (i + 1)] for i in range(order.n - 1))


def canonicalize_brute_force(order: TermOrder) -> TermOrder:
    """Reference canonicalization: explicit minimum over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(order.n)):
        cand = relabel(order, perm).rank
        if best is None or cand < best:
            best = cand
    return TermOrder(order.n, best)


# ---------------------------------------------------------------------------
# order files


def parse_order(text: str) -> TermOrder:
    """Parse the order-file format.

    Optional header line ``n=<k>``, then 2^k lines of subsets in increasing
    rank, the empty set written ``-``.  Comments (``#``) and blank lines are
    ignored.  Without a header, k is the largest element mentioned.
    """
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((no, stripped))
    if not lines:
        raise ParseError("empty order file")
    n = None
    if lines[0][1].startswith("n="):
        no, header = lines.pop(0)
        try:
            n = int(header[2:])
        except ValueError:
            raise ParseError(f"bad header {header!r}", no) from None
        if not 0 <= n <= MAX_GROUND:
            raise ParseError(f"n={n} out of range 0..{MAX_GROUND}", no)
    if n is None:
        n = 0
        for no, body in lines:
            if body != "-":
                for part in body.split(","):
                    try:
                        n = max(n, int(part))
                    except ValueError:
                        raise ParseError(f"bad subset element {part!r}", no) from None
    if len(lines) != 1 << n:
        raise ParseError(f"expected {1 << n} subsets, got {len(lines)}")
    chain = []
    seen = set()
    for no, body in lines:
        mask = parse_subset(body, n, line=no)
        if mask in seen:
            raise ParseError(f"duplicate subset {body!r}", no)
        seen.add(mask)
        chain.append(mask)
    return TermOrder.from_chain(n, chain)


def serialize_order(order: TermOrder) -> str:
    lines = [f"n={order.n}"]
    lines.extend(format_subset(mask) for mask in order.chain)
    return "\n".join(lines) + "\n"
