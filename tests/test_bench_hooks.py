"""The benchmark's hooks name library functions that must exist.

``perfbench/tracer.py`` wraps ``TARGETS`` and ``perfbench/run.py`` probes
after ``PROBED_CALLS``, both by module attribute, so a renamed function
would first show up as a failed benchmark run.  Both files are loaded by
path without writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def hooked_names():
    names = []
    for module, functions in load_perfbench("tracer").TARGETS.items():
        names += [(module, fn) for fn in functions]
    for module, functions in load_perfbench("run").PROBED_CALLS.items():
        names += [(module, fn) for fn in functions]
    return names


def test_benchmark_hooks_name_library_functions():
    names = hooked_names()
    assert ("lp", "farkas_ge") in names
    for module, fn in names:
        home = importlib.import_module(f"booltermorders.{module}")
        assert callable(getattr(home, fn, None)), f"{module}.{fn}"
