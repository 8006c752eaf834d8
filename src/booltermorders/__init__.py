"""Boolean term orders on subsets of [n].

Total orders on the power set of {1, ..., n} with the empty set minimal and
comparisons preserved under union with disjoint sets: validation,
enumeration, coherence (exact rational LP), flips and flip graphs, the
associated hyperplane arrangement, oriented-matroid localizations, and the
refinement poset of generalized partial term orders.

Names resolve on first use (PEP 562): ``import booltermorders`` imports no
layer, and ``booltermorders.char_poly`` imports ``arrangement`` alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name by its home module
_HOME = {
    name: module
    for module, names in {
        "core": "DisjointPair OrderError ParseError TermOrder canonicalize is_valid "
        "parse_order serialize_order validate",
        "enumeration": "count_orders enumerate_orders",
        "coherence": "Certificate find_weight is_coherent noncoherence_certificate "
        "order_from_weight verify_certificate",
        "flips": "flip flip_graph flippable_pairs lex_product primitive_pairs",
        "arrangement": "char_poly region_count",
        "omatroid": "Signature check_localization check_mu_conditions mu_from_order",
        "baues": "PartialTermOrder coherent_above_only_trivial refines",
    }.items()
    for name in names.split()
}

# the layers a bare ``import booltermorders`` makes reachable as attributes
_LAYERS = {*_HOME.values(), "lp"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_LAYERS})
