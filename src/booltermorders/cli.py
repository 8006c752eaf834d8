"""The ``bto`` command line interface.

One subcommand per library operation, stable text output for scripting.
Every subcommand keeps one exit-code contract:

- 0: success or a positive answer.
- 1: the mathematics answers "no": incoherent, disconnected, certificate
  rejected, or an order file that is well formed but not a valid order,
  reported as ``invalid: <reason>`` on stdout.
- 2: usage or I/O errors and malformed files, reported as
  ``error: <reason>`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

# every other layer is imported by the subcommands that use it
from .core import (
    MAX_GROUND,
    DisjointPair,
    LevelArray,
    OrderError,
    TermOrder,
    parse_order,
    parse_subset,
    serialize_order,
)


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _load_order(path: str) -> TermOrder:
    return parse_order(_read(path))


def _load_levels(path: str) -> LevelArray:
    """Total or partial order file; a total order has one subset per level."""
    from .baues import parse_partial
    return parse_partial(_read(path))


def _parse_pair(text: str, n: int) -> DisjointPair:
    if "<" not in text:
        raise UsageError(f"pair must be written LHS<RHS, got {text!r}")
    left_text, right_text = text.split("<", 1)
    left = parse_subset(left_text, n)
    right = parse_subset(right_text, n)
    if left == 0 or right == 0:
        raise UsageError("both sides of a flip pair must be nonempty")
    return DisjointPair(left, right)


def _parse_certificate(text: str, n: int):
    from .coherence import Certificate
    pairs, mults = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        body, _, mult_text = line.removeprefix("pair:").rpartition("x")
        left_text, lt, right_text = body.partition("<")
        where = f"bad certificate line {lineno}"
        if not (lt and mult_text.strip().isdecimal()):
            raise UsageError(f"{where}: expected 'pair: LEFT < RIGHT xMULT'")
        try:
            left = parse_subset(left_text, n, lineno)
            pairs.append(DisjointPair(left, parse_subset(right_text, n, lineno)))
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
        mults.append(int(mult_text))
    if not pairs:
        raise UsageError("empty certificate file")
    return Certificate(pairs=tuple(pairs), multiplicities=tuple(mults))


def _weight_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"weights must be a comma list of integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    _load_levels(args.file)
    print("valid")
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import count_orders, enumerate_orders
    if args.coherent_only:
        from .coherence import is_coherent
    n = args.n
    mode = "all" if args.all_labelings else "canonical"
    if args.count_only:
        if args.coherent_only:
            classes = sum(map(is_coherent, enumerate_orders(n, mode="canonical")))
            total = classes * math.factorial(n)
        else:
            result = count_orders(n)
            classes, total = result.class_count, result.total_count
        print(f"classes={classes} total={total}")
        return 0
    orders = enumerate_orders(n, mode=mode)
    if args.coherent_only:
        orders = (o for o in orders if is_coherent(o))
    if args.out:
        import hashlib
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create {args.out}: {exc.strerror}") from None
        count = 0
        for order in orders:
            text = serialize_order(order)
            name = hashlib.sha256(text.encode()).hexdigest()[:16]
            (out / f"{name}.bto").write_text(text)
            count += 1
        print(f"wrote {count} orders to {args.out}")
        return 0
    for i, order in enumerate(orders):
        if i:
            print()
        sys.stdout.write(serialize_order(order))
    return 0


def _weight_str(weights) -> str:
    return f"({','.join(str(v) for v in weights)})"


def _cmd_coherence(args) -> int:
    from . import coherence
    order = _load_order(args.file)
    weights = coherence.find_weight(order)
    if weights is not None:
        print(f"coherent w={_weight_str(weights)}")
        return 0
    print("incoherent")
    cert = coherence.noncoherence_certificate(order)
    for pair, mult in zip(cert.pairs, cert.multiplicities):
        print(f"pair: {pair} x{mult}")
    return 1


def _cmd_realize(args) -> int:
    from . import coherence
    weights = _weight_list(args.w)
    if any(v <= 0 for v in weights):
        raise UsageError("weights must be positive")
    if len(weights) > MAX_GROUND:
        raise UsageError(f"at most {MAX_GROUND} weights")
    try:
        order = coherence.order_from_weight(weights, len(weights))
    except coherence.TieError as exc:
        print(f"tie: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(serialize_order(order))
    return 0


def _cmd_flips(args) -> int:
    from . import flips
    order = _load_order(args.file)
    flippable = set(flips.flippable_pairs(order))
    primitive = flips.primitive_pairs(order)
    print(f"primitive={len(primitive)} flippable={len(flippable)}")
    for pair in primitive:
        mark = " *" if pair in flippable else ""
        print(f"{pair}{mark}")
    return 0


def _cmd_flip(args) -> int:
    from . import flips
    order = _load_order(args.file)
    pair = _parse_pair(args.pair, order.n)
    try:
        flipped = flips.flip(order, pair)
    except flips.FlipError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    sys.stdout.write(serialize_order(flipped))
    return 0


def _cmd_flipgraph(args) -> int:
    from . import flips
    mode = "labeled" if args.all_labelings else "canonical"
    graph = flips.flip_graph(args.n, mode=mode)
    edges = sum(len(adj) for adj in graph.adjacency) // 2
    print(f"vertices={len(graph.vertices)} edges={edges}")
    if args.degree_histogram:
        for degree, count in graph.degree_histogram().items():
            print(f"degree {degree}: {count}")
    if args.check_connected:
        connected = graph.is_connected()
        print(f"connected: {'yes' if connected else 'no'}")
        return 0 if connected else 1
    return 0


def _cmd_charpoly(args) -> int:
    from . import arrangement
    poly = arrangement.char_poly(args.n)
    print(f"{poly} = {poly.factored_str()}")
    return 0


def _cmd_regions(args) -> int:
    from . import arrangement
    print(f"regions={arrangement.region_count(args.n)}")
    return 0


def _sign_string(vec) -> str:
    return "".join({1: "+", -1: "-", 0: "0"}[v] for v in vec)


def _cmd_localize(args) -> int:
    from . import omatroid
    order = _load_levels(args.file)
    mu = omatroid.mu_from_order(order)
    if not args.check:
        # one line per canonical sign vector (first nonzero entry +)
        for vec in omatroid.sign_vectors(order.n):
            if next(v for v in vec if v) < 0:
                continue
            print(f"{_sign_string(vec)} {_sign_string((mu(vec),))}")
        return 0
    loc = omatroid.check_localization(mu)
    print(f"localization: {'yes' if loc else 'no'}")
    if not loc:
        x, y, signs = loc.witness
        print(
            f"witness: coline {_sign_string(x)}, {_sign_string(y)} has signs "
            f"{_sign_string(signs)} on X, X+Y, Y, Y-X, -X, -X-Y, -Y, X-Y"
        )
    rep = omatroid.check_mu_conditions(mu)
    if rep:
        print("mu-conditions: ok")
    else:
        print(f"mu-conditions: fails-{rep.failed_condition}")
        print("witness: " + ", ".join(_sign_string(v) for v in rep.witness))
    return 0 if loc and rep else 1


def _cmd_baues(args) -> int:
    from . import baues, coherence
    if args.coherent_above:
        order = _load_order(args.file)
        only_trivial = baues.coherent_above_only_trivial(order)
        print(f"coherent-above-only-trivial: {'yes' if only_trivial else 'no'}")
        if not only_trivial:
            for coarse in baues.coherent_coarsenings_nontrivial(order):
                weights = coherence.find_weight(coarse)
                print(f"coarsening w={_weight_str(weights)} levels={coarse.num_levels}")
        return 0 if only_trivial else 1
    order = _load_levels(args.file)
    coherent = coherence.is_coherent(order)
    print(f"levels={order.num_levels} coherent={'yes' if coherent else 'no'}")
    return 0 if coherent else 1


def _cmd_certify(args) -> int:
    from . import coherence
    order = _load_order(args.file)
    cert = _parse_certificate(_read(args.cert), order.n)
    check = coherence.verify_certificate(order, cert)
    if check:
        print("certificate: valid")
        return 0
    print(f"certificate: invalid ({check.reason})")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bto", description="Boolean term order toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a total or partial order file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enumerate", help="enumerate orders on [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coherent-only", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--all-labelings", action="store_true")
    p.add_argument("--out", help="write one order file per order into DIR")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("coherence", help="decide coherence, print weight or certificate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("realize", help="order induced by a weight vector")
    p.add_argument("--w", required=True, help="comma list of positive integers")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("flips", help="list primitive and flippable pairs")
    p.add_argument("file")
    p.set_defaults(func=_cmd_flips)

    p = sub.add_parser("flip", help="flip an order across a pair")
    p.add_argument("file")
    p.add_argument("--pair", required=True, help='pair like "4<1,2"')
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("flipgraph", help="build the flip graph on [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-connected", action="store_true")
    p.add_argument("--degree-histogram", action="store_true")
    p.add_argument("--all-labelings", action="store_true")
    p.set_defaults(func=_cmd_flipgraph)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the arrangement")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("regions", help="number of regions of the arrangement")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("localize", help="cocircuit signature of an order")
    p.add_argument("file")
    p.add_argument("--check", action="store_true", help="run localization and mu checks")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("baues", help="partial orders and the refinement poset")
    p.add_argument("file")
    p.add_argument(
        "--coherent-above",
        action="store_true",
        help="is the trivial partition the only coherent coarsening?",
    )
    p.set_defaults(func=_cmd_baues)

    p = sub.add_parser("certify", help="verify a noncoherence certificate")
    p.add_argument("file")
    p.add_argument("--cert", required=True, help="certificate file")
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the end", file=sys.stderr)
        return 2
    except OrderError as exc:  # before ValueError, its base class
        print(f"invalid: {exc}")
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
