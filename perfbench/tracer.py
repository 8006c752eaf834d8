"""Per-layer spans recorded from outside the library.

The tracer replaces each listed public function of ``booltermorders`` by a
timing wrapper at every module-level name it is bound to inside the package
(``from .core import is_valid`` creates a second binding in another module),
so calls the library makes to itself are seen too.  A span's self time is its
duration minus the time covered by the spans it encloses.  Nothing under
``src/`` is changed; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _lp_shape(stat, args, result):
    A = args[0]
    stat["rows"] += len(A)
    stat["cols"] += len(A[0]) if A else 0


def _count_true(stat, args, result):
    stat["true"] += bool(result)


def _count_pairs(stat, args, result):
    stat["pairs"] += len(result)


# module -> {public function: observer of (stats, args, result) or None}
TARGETS = {
    "core": {
        "is_valid": None,
        "canonicalize": None,
        "relabel": None,
        "parse_order": None,
        "serialize_order": None,
    },
    "enumeration": {"enumerate_orders": None},
    "lp": {"farkas_ge": _lp_shape, "minimize_ge": _lp_shape, "feasible_ge": _lp_shape},
    "coherence": {
        "is_coherent": _count_true,
        "noncoherence_certificate": None,
        "verify_certificate": None,
        "find_weight": None,
        "order_from_weight": None,
    },
    "baues": {"coherent_above_only_trivial": None},
    "omatroid": {
        "mu_from_order": None,
        "check_mu_conditions": None,
        "check_localization": None,
    },
    "flips": {"primitive_pairs": _count_pairs, "flippable_pairs": _count_pairs, "flip": None},
    "arrangement": {"char_poly": None, "point_count": None},
}

# generator functions: each next() is one span, and its yields are counted
GENERATORS = {"enumeration.enumerate_orders"}

PACKAGE = "booltermorders"


class Tracer:
    """Wraps the TARGETS of the imported package while active (a context manager)."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name, observe in functions.items():
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name)
                self.stats[name] = {"calls": 0, "self_s": 0.0, "rows": 0, "cols": 0,
                                    "true": 0, "pairs": 0, "yields": 0}
                if name in GENERATORS:
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _close(self, name: str, start: float) -> dict[str, float]:
        duration = perf_counter() - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += duration - children
        return stat

    def _wrap(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._close(name, start)
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        def steps(gen):
            while True:
                self._stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stat = self._close(name, start)
                stat["yields"] += 1
                yield item

        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(stats: dict, items: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name, stat in stats.items():
        calls = stat["calls"]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (stat["self_s"], "s")
        if name.startswith("lp."):
            out[f"{name}.rows_mean"] = (stat["rows"] / calls if calls else 0.0, "rows")
            out[f"{name}.cols_mean"] = (stat["cols"] / calls if calls else 0.0, "cols")

    def ratio(num, den):
        return num / den if den else 0.0

    out["core.is_valid.calls_per_item"] = (
        ratio(stats["core.is_valid"]["calls"], items), "calls/item")
    search = stats["enumeration.enumerate_orders"]
    out["enumeration.classes_per_s"] = (ratio(search["yields"], search["self_s"]), "1/s")
    coherent = stats["coherence.is_coherent"]
    out["coherence.coherent_ratio"] = (ratio(coherent["true"], coherent["calls"]), "ratio")
    out["flips.flippable_ratio"] = (
        ratio(stats["flips.flippable_pairs"]["pairs"], stats["flips.primitive_pairs"]["pairs"]),
        "ratio",
    )
    counts = stats["arrangement.point_count"]
    out["arrangement.point_count.self_s_per_prime"] = (
        ratio(counts["self_s"], counts["calls"]), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
