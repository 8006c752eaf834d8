"""The four benchmark workloads: seeded inputs, per-item work and checks.

A workload object builds its inputs from the seed when it is constructed
(that is the timed set-up).  ``run_item`` processes one input and returns
its output line and the checks it failed; ``finish`` checks what only a
whole pass shows.  The library is reached through module attributes only,
so the tracer's wrappers see every call the benchmark makes.

Every answer is checked against the pinned references in
``reference.json`` or against a witness rechecked here: certificates must
cancel, weights must reproduce their order, flips and parsed orders must be
valid, and canonical flip neighbourhoods must not depend on the labeling.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

from booltermorders import arrangement, baues, catalog, coherence, core, enumeration, flips, omatroid

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# flip walks reach a noncoherent class within a few hundred steps in practice
MAX_WALK = 20000

# find_weight's cost varies by about 25% between coherent orders (and between
# labelings of one order), so witness5 draws its coherent input from this
# fixed seed; the run's seed orders the items and draws the noncoherent inputs.
WITNESS5_POOL_SEED = 5


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def neighbourhood_digest(chain, neighbour_chains) -> str:
    """Short hash of a class and the sorted canonical chains of its flip neighbours."""
    text = repr((tuple(chain), sorted(tuple(c) for c in neighbour_chains)))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _cancels(order, cert) -> bool:
    """Recheck a certificate here: increasing disjoint pairs whose sides cancel."""
    if not cert.pairs:
        return False
    totals = [0] * order.n
    for pair, mult in zip(cert.pairs, cert.multiplicities):
        if mult <= 0 or pair.left & pair.right or order.rank[pair.left] >= order.rank[pair.right]:
            return False
        for i in range(order.n):
            totals[i] += mult * ((pair.right >> i & 1) - (pair.left >> i & 1))
    return not any(totals)


def _induces(weights, order) -> bool:
    """Recheck a weight vector here: positive, with subset sums rising along the chain."""
    sums = [coherence.subset_sum(weights, mask) for mask in order.chain]
    return all(w > 0 for w in weights) and all(a < b for a, b in zip(sums, sums[1:]))


class Workload:
    """Common shape; subclasses set ``sizes`` and fill ``items`` in ``__init__``."""

    name = ""
    seed_used = True
    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, size: dict[str, int], reference: dict):
        self.reference = reference
        self.items: list = []
        self.setup_failures: list[str] = []

    def start_pass(self) -> None:
        pass

    def repeats(self, item) -> int:
        """Back-to-back runs of one item in each pass."""
        return 1

    def scaled(self, item) -> bool:
        """Whether the item's time is scaled to the reference speed (see run.Pass)."""
        return True

    def run_item(self, item) -> tuple[str, list[str]]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class Decide5Item(NamedTuple):
    index: int
    perm: tuple[int, ...]
    order: core.TermOrder
    coherent: bool
    mu: bool
    localization: bool


class Decide5(Workload):
    """Every n=5 class, relabeled and shuffled: coherence decided by small Farkas LPs.

    Smaller sizes sample the classes with a fixed number of noncoherent
    ones, so the certificate path is always exercised.
    """

    name = "decide5"
    sizes = {
        "full": {"classes": 546, "noncoherent": 30, "mu": 12, "localization": 2},
        "tiny": {"classes": 20, "noncoherent": 2, "mu": 2, "localization": 1},
    }

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        rng = random.Random(seed)
        classes = list(enumeration.enumerate_orders(5, mode="canonical"))
        noncoherent = {tuple(c) for c in reference["noncoherent5"]}
        if len(classes) != reference["classes"]["5"]:
            self.setup_failures.append(f"{len(classes)} classes at n=5, reference {reference['classes']['5']}")
        coherent_count = sum(o.chain not in noncoherent for o in classes)
        if coherent_count != reference["coherent_classes"]["5"]:
            self.setup_failures.append(
                f"{coherent_count} coherent classes at n=5, reference {reference['coherent_classes']['5']}")
        indices = rng.sample([i for i, o in enumerate(classes) if o.chain in noncoherent],
                             size["noncoherent"])
        indices += rng.sample([i for i, o in enumerate(classes) if o.chain not in noncoherent],
                              size["classes"] - size["noncoherent"])
        mu = rng.sample(indices, size["mu"])
        localization = set(mu[: size["localization"]])
        items = []
        for index in indices:
            perm = tuple(rng.sample(range(5), 5))
            cls = classes[index]
            items.append(Decide5Item(index, perm, core.relabel(cls, perm),
                                     cls.chain not in noncoherent, index in mu, index in localization))
        rng.shuffle(items)
        self.items = items

    def run_item(self, item):
        failures = []
        order = item.order
        coherent = coherence.is_coherent(order)
        if coherent != item.coherent:
            failures.append(f"class {item.index}: is_coherent={coherent}, reference {item.coherent}")
        cert_text = "-"
        if not coherent:
            cert = coherence.noncoherence_certificate(order)
            if not coherence.verify_certificate(order, cert) or not _cancels(order, cert):
                failures.append(f"class {item.index}: certificate does not verify")
            cert_text = ";".join(
                f"{p.left},{p.right}x{m}" for p, m in zip(cert.pairs, cert.multiplicities))
        mu_ok = localization_ok = "-"
        if item.mu:
            signature = omatroid.mu_from_order(order)
            mu_ok = bool(omatroid.check_mu_conditions(signature))
            if not mu_ok:
                failures.append(f"class {item.index}: mu-conditions fail")
            if item.localization:
                localization_ok = bool(omatroid.check_localization(signature))
                if not localization_ok:
                    failures.append(f"class {item.index}: not a localization")
        return f"{item.index} {item.perm} {coherent} {cert_text} {mu_ok} {localization_ok}", failures


class Witness5Item(NamedTuple):
    kind: str
    order: core.TermOrder
    coherent: bool
    rigid: bool  # cone test expected answer; noncoherent items get the test


class Witness5(Workload):
    """Coherent and noncoherent n=5 orders: weight search by large primal LPs."""

    name = "witness5"
    sizes = {
        "full": {"weights": 1, "walks": 3, "catalog": 1},
        "tiny": {"weights": 1, "walks": 1, "catalog": 0},
    }

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        rng = random.Random(seed)
        self.noncoherent = {tuple(c) for c in reference["noncoherent5"]}
        self.rigid = {tuple(c) for c in reference["rigid5"]}
        pool = random.Random(WITNESS5_POOL_SEED)
        items = [Witness5Item("weights", self._coherent_order(pool), True, False)
                 for _ in range(size["weights"])]
        for _ in range(size["walks"]):
            items.append(self._noncoherent_item("walk", self._walk(rng)))
        for _ in range(size["catalog"]):
            perm = rng.sample(range(5), 5)
            items.append(self._noncoherent_item("catalog", core.relabel(catalog.noncoherent_five(), perm)))
        rng.shuffle(items)
        self.items = items

    def _noncoherent_item(self, kind, order):
        chain = core.canonicalize(order).chain
        if chain not in self.noncoherent:
            self.setup_failures.append(f"{kind} order {order.chain} is not a noncoherent class")
        return Witness5Item(kind, order, False, chain in self.rigid)

    @staticmethod
    def _coherent_order(rng):
        while True:
            weights = [rng.randint(1, 10**6) for _ in range(5)]
            try:
                return coherence.order_from_weight(weights, 5)
            except coherence.TieError:
                continue

    def _walk(self, rng):
        """Random flips from a coherent order until a noncoherent class is reached."""
        order = self._coherent_order(rng)
        for _ in range(MAX_WALK):
            if core.canonicalize(order).chain in self.noncoherent:
                return order
            pairs = [p for p in flips.flippable_pairs(order) if p.left]
            order = flips.flip(order, rng.choice(pairs))
        raise RuntimeError(f"no noncoherent order within {MAX_WALK} flips")

    def run_item(self, item):
        failures = []
        order = item.order
        weights = coherence.find_weight(order)
        if item.coherent:
            if weights is None:
                failures.append(f"{item.kind} order {order.chain}: no weight found for a coherent order")
            elif not _induces(weights, order) or coherence.order_from_weight(weights, 5) != order:
                failures.append(f"{item.kind} order {order.chain}: weight {weights} does not induce it")
        elif weights is not None:
            failures.append(f"{item.kind} order {order.chain}: weight {weights} for a noncoherent class")
        rigid = "-"
        if not item.coherent:
            rigid = baues.coherent_above_only_trivial(order)
            if rigid != item.rigid:
                failures.append(f"{item.kind} order {order.chain}: cone test {rigid}, reference {item.rigid}")
        return f"{item.kind} {order.chain} {weights} {rigid}", failures


class Search6(Workload):
    """A prefix of the n=6 class search with validation, flips and file round trips."""

    name = "search6"
    sizes = {"full": {"classes": 500}, "tiny": {"classes": 8}}

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        rng = random.Random(seed)
        self.expected = reference["search6_neighbourhoods"]
        if len(self.expected) < size["classes"]:
            self.setup_failures.append(f"reference covers only {len(self.expected)} classes")
        self.items = [(k, tuple(rng.sample(range(6), 6))) for k in range(size["classes"])]
        self.classes = None

    def start_pass(self):
        self.classes = enumeration.enumerate_orders(6, mode="canonical")

    def run_item(self, item):
        k, perm = item
        failures = []
        cls = next(self.classes)
        order = core.relabel(cls, perm)
        if not core.is_valid(order):
            failures.append(f"class {k}: relabeled order is invalid")
        if core.canonicalize(order) != cls:
            failures.append(f"class {k}: canonical form differs from the enumerated class")
        pairs = flips.flippable_pairs(order)
        neighbours = []
        for pair in pairs:
            if pair.left == 0:
                continue
            flipped = flips.flip(order, pair)
            if not core.is_valid(flipped):
                failures.append(f"class {k}: flip across {pair} is invalid")
            neighbours.append(core.canonicalize(flipped).chain)
        hood = neighbourhood_digest(cls.chain, neighbours)
        if k >= len(self.expected) or hood != self.expected[k]:
            failures.append(f"class {k}: canonical flip neighbourhood differs from the reference")
        parsed = core.parse_order(core.serialize_order(order))
        if parsed != order or not core.is_valid(parsed):
            failures.append(f"class {k}: serialize/parse round trip changed the order")
        return f"{k} {perm} {[str(p) for p in pairs]} {hood}", failures


class Charpoly5(Workload):
    """chi_n for n = 1..5 by point counting, as ``bto charpoly`` prints it."""

    name = "charpoly5"
    seed_used = False  # the inputs are fixed by n
    sizes = {"full": {"n": 5}, "tiny": {"n": 3}}

    def __init__(self, seed, size, reference):
        super().__init__(seed, size, reference)
        self.items = list(range(1, size["n"] + 1))
        self.polys = {}

    def start_pass(self):
        self.polys = {}

    def repeats(self, n):
        # n <= 4 takes tens of milliseconds, where the machine's bursts dominate one sample
        return 1 if n == 5 else 5

    def scaled(self, n):
        # n=5 is numpy point counting, whose speed the pure-Python probe does not
        # track: scaling doubled its spread over ten seeds, so it is timed raw
        return n < 5

    def run_item(self, n):
        failures = []
        poly = arrangement.char_poly(n)
        text = poly.factored_str()
        expected = self.reference["charpoly"][str(n)]
        if list(poly.coefficients) != expected["coefficients"]:
            failures.append(f"chi_{n} = {poly}, reference {expected['coefficients']}")
        if text != expected["factored"]:
            failures.append(f"chi_{n} factors as {text}, reference {expected['factored']}")
        self.polys[n] = poly
        return f"{n} {poly.coefficients} {text}", failures

    def finish(self):
        """Region identity |chi_n(-1)| = 2^n n! (coherent classes), n >= 2."""
        failures = []
        for n, poly in self.polys.items():
            if n < 2:
                continue
            regions = abs(poly(-1))
            expected = (1 << n) * math.factorial(n) * self.reference["coherent_classes"][str(n)]
            if regions != expected:
                failures.append(f"|chi_{n}(-1)| = {regions}, region identity gives {expected}")
        return failures


WORKLOADS = {cls.name: cls for cls in (Decide5, Witness5, Search6, Charpoly5)}
