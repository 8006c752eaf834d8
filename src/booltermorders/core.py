"""Ground-set subsets as bitmasks, term orders as level arrays, validation and file I/O.

A subset of [n] = {1, ..., n} is stored as an n-bit mask with bit i-1 set
iff element i is in the subset.  A term order is a level array over all
2^n masks: level[mask] is the 0-based level of the subset, with the empty
set alone at the bottom.  A total order (:class:`TermOrder`) is the
tie-free case, whose levels are ranks; partial orders (``baues``) share
its structural check, validator, reader and writer.

The union axiom is checked by one scan per element (``_first_violation``)
along a chain of the masks by level; an array with ties is scanned along
two tie splits (:func:`union_violation`).  For n <= 8 each mask fits in a
byte and the scan runs on the chain as ``bytes``, through translation
tables built on first use; for 9 <= n <= 16 it compares rank lists.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator, Sequence

MAX_GROUND = 16
_BYTES = bytes(range(256))  # the identity translation table, sliced to any length up to 256


class OrderError(ValueError):
    """Raised when an operation receives an invalid term order."""


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _Record:
    """Equality and repr over the attributes named in ``_fields``, as ``dataclasses``
    makes them: only the same class compares.  A :class:`_Frozen` record is hashed
    by its field tuple, and only its ``__init__`` writes fields (into ``__dict__``);
    a :class:`_Verdict` is true iff ``ok``."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({body})"


class _Frozen(_Record):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class _Verdict(_Record):
    def __bool__(self) -> bool:
        return self.ok


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
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
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


@functools.lru_cache(maxsize=1 << MAX_GROUND)
def format_subset(mask: int) -> str:
    """The file spelling of a subset: increasing elements joined by commas, or ``-``.

    Memoized, so writing an order file costs one lookup per subset; the
    cache holds at most as many entries as there are subsets of [MAX_GROUND].
    """
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
        if not 1 <= e <= n:
            raise ParseError(f"element {e} out of range 1..{n}", line)
        if e <= prev:
            raise ParseError(f"elements must be strictly increasing in {text!r}", line)
        mask |= 1 << (e - 1)
        prev = e
    return mask


class DisjointPair(_Frozen):
    """An ordered pair of disjoint subsets, left strictly below right."""

    _fields = ("left", "right")

    def __init__(self, left: int, right: int):
        if left < 0 or right < 0:
            raise ValueError("pair sides must be nonnegative masks")
        if left & right:
            raise ValueError("pair sides must be disjoint")
        if left == 0 and right == 0:
            raise ValueError("pair sides may not both be empty")
        self.__dict__.update(left=left, right=right)

    def reversed(self) -> "DisjointPair":
        return DisjointPair(self.right, self.left)

    def __str__(self) -> str:
        return f"{format_subset(self.left)} < {format_subset(self.right)}"


# ---------------------------------------------------------------------------
# term orders


def _ground(n: int) -> None:
    """Refuse n outside 0..MAX_GROUND, before anything of size 2^n is built."""
    if not 0 <= n <= MAX_GROUND:
        raise OrderError(f"ground-set size must be in 0..{MAX_GROUND}, got {n}")


def _shape(n: int, level: Sequence[int]) -> tuple[int, ...]:
    """The level array as a tuple, once n is in 0..MAX_GROUND and it has 2^n entries."""
    _ground(n)
    level = tuple(level)
    if len(level) != 1 << n:
        raise OrderError(f"level array has length {len(level)}, expected {1 << n}")
    return level


_GAPS = "levels must be contiguous starting from 0"


def structural_fault(level: Sequence[int]) -> str | None:
    """The first structural fault of a level array, or None.

    The levels must be contiguous from 0, and the empty set must lie at
    the bottom level, alone there unless it is the only level.
    """
    distinct = sorted(set(level))  # k distinct integers from 0 to k - 1 are 0..k-1
    if distinct[0] != 0 or distinct[-1] != len(distinct) - 1:
        return _GAPS
    if level[0]:
        return "the empty set must lie at the bottom level"
    if 1 < len(distinct) < len(level) and level.count(0) != 1:
        return "the empty set must be alone at the bottom level"
    return None


class LevelArray:
    """Views of the level array ``level`` of a total or partial order."""

    @property
    def levels(self) -> list[list[int]]:
        """Subsets grouped by level, lowest first, each group sorted by mask."""
        out: list[list[int]] = [[] for _ in range(max(self.level) + 1)]
        for mask, lvl in enumerate(self.level):
            out[lvl].append(mask)
        return out

    @property
    def chain(self) -> tuple[int, ...]:
        """Subset masks by increasing level, tied ones by increasing mask."""
        return tuple(mask for group in self.levels for mask in group)

    @property
    def num_levels(self) -> int:
        return max(self.level) + 1

    def is_total(self) -> bool:
        return self.num_levels == len(self.level)


class TermOrder(LevelArray, _Frozen):
    """A candidate total order on the subsets of [n]: ``rank``, its level array.

    The constructor only checks the shape; use :func:`validate` to test the
    order axioms.  Instances are immutable and hashable.  :func:`is_valid`
    memoizes its answer as ``_valid`` in ``__dict__``, and :attr:`chain` the
    chain as ``_chain`` (``bytes`` for n <= 8), both ignored by equality, hash
    and repr.  A relabeling copies them; a flip, lex product, deficient
    extension, weight vector or n > 5 search sets ``_valid``, as each keeps
    validity.  So an order is scanned once, where it enters.
    """

    _fields = ("n", "rank")

    def __init__(self, n: int, rank: Sequence[int]):
        self.__dict__.update(n=n, rank=_shape(n, rank))

    @classmethod
    def from_chain(cls, n: int, chain: Sequence[int]) -> "TermOrder":
        """Build from the list of subset masks in increasing order, which the order keeps."""
        try:  # up to 256 masks: a permutation is what the inverse's own table maps onto 0..len-1
            table = bytes.maketrans(kept := bytes(chain), _BYTES[: len(chain)])
            ok = kept.translate(table, _BYTES[len(chain) :]) == _BYTES[: len(chain)]
        except ValueError:  # a mask outside 0..255, or more than 256 masks
            kept, table, ok = tuple(chain), None, sorted(chain) == list(range(len(chain)))
        if not ok:
            raise OrderError(f"the chain is not a permutation of 0..{len(chain) - 1}")
        order = cls(n, _inverse(kept) if table is None else table[: len(chain)])
        order.__dict__["_chain"] = kept
        return order

    @property
    def level(self) -> tuple[int, ...]:
        return self.rank

    @property
    def chain(self) -> tuple[int, ...]:
        """Subset masks in rank order, built once and kept."""
        chain = self.__dict__.get("_chain")
        if chain is None:
            chain = self.__dict__["_chain"] = _inverse(self.rank)
        return tuple(chain)


def _inverse(perm: Sequence[int]) -> bytes | tuple[int, ...]:
    """The inverse of a permutation of 0..len-1, unchecked: by one ``maketrans`` up to 256."""
    if len(perm) <= 256:
        return bytes.maketrans(bytes(perm), _BYTES[: len(perm)])[: len(perm)]
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


class ValidationReport(_Verdict):
    """A verdict; ``violations`` holds at most one triple, see :func:`validate`."""

    _fields = ("ok", "structural", "violations")

    def __init__(self, ok: bool, structural: list | None = None, violations: list | None = None):
        self.ok = ok
        self.structural = [] if structural is None else structural
        self.violations = [] if violations is None else violations

    @property
    def reason(self) -> str:
        """The first problem in words: a structural message, the triple, or ``""``."""
        if self.structural:
            return self.structural[0]
        if not self.violations:
            return ""
        a, b, g = self.violations[0]
        return (
            f"comparison of {format_subset(a)} and {format_subset(b)} changes under "
            f"{format_subset(g)}"
        )


def is_valid(order) -> bool:
    """``validate(order).ok``, memoized on the order (see :class:`TermOrder`)."""
    valid = order.__dict__.get("_valid")
    if valid is None:
        valid = order.__dict__["_valid"] = validate(order).ok
    return valid


def _vouch(order: TermOrder, valid: bool | None = True) -> TermOrder:
    """Set the :func:`is_valid` memo unscanned, after an operation that keeps validity."""
    order.__dict__["_valid"] = valid
    return order


def _first_violation(level, rank, chain, n) -> tuple[int, int, int] | None:
    """A triple (a, b, g) that breaks the union axiom on ``level``, or None.

    ``chain`` lists every mask by increasing ``rank``, a tie-free split of
    ``level``.  For each element e, the masks without e are taken in chain
    order and e is added to each; the images must keep the rank order.
    That suffices, since alpha ≺ beta gives alpha ∪ gamma ≺ beta ∪ gamma by
    adding the elements of gamma one at a time.

    For n <= 8 every mask fits in a byte, and the check for e runs on the
    chain as ``bytes``: the images of the masks without e, in chain order,
    must equal the masks with e, in chain order (see :func:`_byte_tables`).
    For larger n the ranks of the images are listed and must be sorted.
    The triple is built by :func:`_witness` for the first failing e only.
    """
    if n <= 8:
        b = bytes(chain)
        for e, (lift, upper, lower) in enumerate(_byte_tables(n)):
            if b.translate(lift, upper) != b.translate(None, lower):
                return _witness(level, rank, chain, 1 << e)
        return None
    for e in range(n):
        bit = 1 << e
        ranks = [rank[m | bit] for m in chain if not m & bit]
        if ranks != sorted(ranks):
            return _witness(level, rank, chain, bit)
    return None


@functools.lru_cache(maxsize=None)
def _byte_tables(n: int) -> tuple[tuple[bytes, bytes, bytes], ...]:
    """Per element e of [n], n <= 8: a 256-byte table adding e to a mask,
    the masks of [n] with e, and the masks of [n] without e.

    ``chain.translate(lift, upper)`` deletes the masks with e and adds e to
    the rest; ``chain.translate(None, lower)`` keeps the masks with e.
    Built on first use, once per n.
    """
    masks = range(1 << n)
    return tuple(
        (
            bytes(m | 1 << e for m in range(256)),
            bytes(m for m in masks if m >> e & 1),
            bytes(m for m in masks if not m >> e & 1),
        )
        for e in range(n)
    )


def _witness(level, rank, chain, bit) -> tuple[int, int, int]:
    """The triple of :func:`_first_violation` for an element ``bit`` whose
    images come out of rank order.

    At the first neighbours m, m2 without the element whose images come out
    reversed, the comparison under ``level`` changes; with c = m ∩ m2,
    a = m − c and b = m2 − c, it changes either between (a, b) and
    (a + c, b + c), or between (a, b) and (a + c + e, b + c + e).  The
    triple is ordered with a not above b.
    """
    ranks = [rank[m | bit] for m in chain if not m & bit]
    i = next(i for i in range(len(ranks) - 1) if ranks[i] > ranks[i + 1])
    m, m2 = [m for m in chain if not m & bit][i : i + 2]
    c = m & m2
    a, b = m ^ c, m2 ^ c
    if _cmp(level[a], level[b]) == _cmp(level[m], level[m2]):
        c |= bit
    return (b, a, c) if level[a] > level[b] else (a, b, c)


def _cmp(x: int, y: int) -> int:
    return (x > y) - (x < y)


def union_violation(level: Sequence[int], n: int) -> tuple[int, int, int] | None:
    """A triple that breaks the union axiom on a level array with ties, or None.

    The ties are split twice, by ascending and by descending mask, and each
    split is scanned by :func:`_first_violation`.  A tie may become a step
    up under the first split and a step down under the second, so keeping
    both keeps it a tie; a step that became a tie breaks one of the two.
    """
    size = 1 << n
    for sign in (1, -1):
        chain = sorted(range(size), key=lambda m: (level[m], sign * m))
        found = _first_violation(level, _inverse(chain), chain, n)
        if found is not None:
            return found
    return None


def validate(order) -> ValidationReport:
    """Check a total or partial order: a structural fault and one violating triple.

    The fault is :func:`structural_fault`'s, or a tie in a total order; a
    total order with gaps or ties is not scanned.  The triple (alpha, beta,
    gamma), alpha not above beta, is one of :func:`_first_violation` along
    the chain of a tie-free array, or along the tie splits of
    :func:`union_violation`.
    """
    level = order.level
    fault = structural_fault(level)
    tie_free = fault != _GAPS and max(level) + 1 == len(level)
    if not tie_free and isinstance(order, TermOrder):
        return ValidationReport(False, [fault or "a total order has no ties"])
    if tie_free:
        found = _first_violation(level, level, order.chain, order.n)
    else:
        found = union_violation(level, order.n)
    structural = [] if fault is None else [fault]
    violations = [] if found is None else [found]
    return ValidationReport(not structural and not violations, structural, violations)


def require_valid(order) -> None:
    """Raise :class:`OrderError` with :func:`validate`'s reason for an invalid order."""
    if not is_valid(order):
        raise OrderError(validate(order).reason)


# ---------------------------------------------------------------------------
# relabeling and canonical forms


def relabel(order: TermOrder, perm: Sequence[int]) -> TermOrder:
    """Relabel ground elements; perm maps bit position i to perm[i]."""
    n = order.n
    gather, table = (_gather if n <= 8 else _gather.__wrapped__)(tuple(perm), n)
    moved = _vouch(TermOrder(n, gather(order.rank)), order.__dict__.get("_valid"))
    if table and "_chain" in order.__dict__:  # a kept chain, as bytes
        moved.__dict__["_chain"] = order.__dict__["_chain"].translate(table)
    return moved


@functools.lru_cache(maxsize=1024)
def _gather(perm: tuple[int, ...], n: int):
    """The relabeling by a permutation ``perm`` of 0..n-1, checked, as one gather of the rank
    array and a table of new masks; cached for n <= 8 (all 720 n = 6 permutations fit, about
    2.8 MB at n = 8), so a permutation is checked once."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {list(perm)}")
    old_pos = [0] * len(perm)
    for i, j in enumerate(perm):
        old_pos[j] = i
    # source[mask] is the old mask that becomes mask, built one new bit at a time
    source = [0]
    for i in old_pos:
        source += [m | 1 << i for m in source]
    table = bytes.maketrans(bytes(source), _BYTES[: len(source)]) if n <= 8 else None
    return (operator.itemgetter(*source) if perm else tuple), table  # one index gives a scalar


def canonicalize(order: TermOrder) -> TermOrder:
    """The lexicographically smallest rank array over all relabelings.

    Since the singletons are totally ordered, the lex-min relabeling is the
    unique one that puts the singleton ranks in increasing order: the rank
    array is scanned mask by mask, and at each singleton index the smallest
    remaining singleton rank is the free choice.
    """
    require_valid(order)
    singles = sorted(range(order.n), key=lambda i: order.rank[1 << i])
    # singles[j] is the old bit position that becomes bit position j
    return relabel(order, tuple(map(singles.index, range(order.n))))


# ---------------------------------------------------------------------------
# order files


@functools.lru_cache(maxsize=None)
def _subset_names(n: int) -> dict[str, int]:
    """The file spelling of every subset of [n], mapped to its mask.

    Built by doubling: the name of m ∪ {k} is the name of m followed by
    ``,k``, so no subset is formatted on its own.  Cached for n <= 8, one
    table per n that callers share and only read.
    """
    spelled = ["-"]
    for k in range(1, n + 1):
        suffix = f",{k}"
        spelled += [str(k)] + [name + suffix for name in spelled[1:]]
    return dict(zip(spelled, range(1 << n)))


def read_levels(text: str) -> tuple[int, tuple[int, ...]]:
    """Read an order file, total or partial, into n and its level array.

    ``#`` starts a comment anywhere on a line, and blank lines are skipped.
    An optional first line ``n=<k>`` gives k; without it, k is the largest
    element mentioned.  Each further line is one level, lowest first: its
    subsets joined by ``=``, each a comma list of increasing elements or
    ``-`` for the empty set.  Every subset of [k] must appear exactly once.
    Only the format is checked here, not the order axioms.
    """
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
    names = (_subset_names if n <= 8 else _subset_names.__wrapped__)(n)
    chain = list(map(names.get, [body for _, body in lines]))  # None: a tie, a spelling or a fault
    if None not in chain and len(set(chain)) == len(chain) == 1 << n:
        return n, tuple(_inverse(chain))
    level = [0] * (1 << n)
    seen = set()
    for lvl, (no, body) in enumerate(lines):
        for part in body.split("="):
            mask = names.get(part.strip())
            if mask is None:  # another spelling, or not a subset of [n]
                mask = parse_subset(part, n, line=no)
            if mask in seen:
                raise ParseError(f"duplicate subset {part.strip()!r}", no)
            seen.add(mask)
            level[mask] = lvl
    if len(seen) != 1 << n:
        raise ParseError(f"expected {1 << n} subsets, got {len(seen)}")
    return n, tuple(level)


def parse_order(text: str) -> TermOrder:
    """Parse a total order file (see :func:`read_levels`); ties are an error.

    The axioms are not checked; use :func:`validate` or :func:`is_valid`.
    """
    order = TermOrder(*read_levels(text))
    if not order.is_total():
        raise ParseError("subsets joined by '=' in a total order")
    return order


def serialize_order(order) -> str:
    """Order-file text of a total or partial order: one level per line, its
    subsets joined by ``=``; without ties, the chain."""
    if order.is_total():
        lines = map(format_subset, order.chain)
    else:
        lines = ("=".join(map(format_subset, group)) for group in order.levels)
    return "\n".join([f"n={order.n}", *lines]) + "\n"
