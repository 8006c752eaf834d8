"""Benchmark of booltermorders: one seeded workload per run, gated for correctness.

    python3 perfbench/run.py --workload decide5 --seed 1 --seconds 20 --trace 0

The run imports the library from ``src/`` of the checkout it sits in, makes
the workload's inputs from the seed, and processes them in a single-process
closed loop (one caller, items back to back, no threads or pools).  A pass
runs every input once; passes repeat while another fits in ``--seconds``,
and always at least one runs.  Every answer is checked (see workloads.py).
Times are scaled to a reference speed by an interleaved probe (see Pass).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
pass and one pass with the per-layer tracer installed, and prints the
per-layer metrics.  The last line of stdout is the result object; the line
before it, also written to ``perfbench/results/``, records the digest of
the outputs, sample counts and the environment.  A run fails the gate (and
exits 1) on any wrong answer, or when its output digest differs between
passes or from an earlier run of the same workload and seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0005  # probe time that defines the reference speed
# calls that can run for seconds; the speed is also sampled after each of them
PROBED_CALLS = {"lp": ("farkas_ge", "feasible_ge", "minimize_ge")}
LOAD_SHAPE = "single process, closed loop, one caller"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import booltermorders.cli; print(time.perf_counter() - t)"
)


def import_library():
    """Import booltermorders from this checkout's sources, never from elsewhere."""
    if not (SRC / "booltermorders" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import booltermorders

    if Path(booltermorders.__file__).resolve().parent != SRC / "booltermorders":
        raise SystemExit(f"run.py: imported booltermorders from {booltermorders.__file__}")


def import_seconds() -> float:
    """Import time of the package and its command line in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def probe_seconds() -> float:
    """Time of a fixed piece of pure-Python work, which tracks the machine's speed."""
    t0 = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 150):
        total += Fraction(i, i + 7)
        table[i, i & 7] = tuple(range(i & 15))
    return perf_counter() - t0


def at_reference_speed(timed):
    """Call ``timed``, which returns (result, seconds); scale the seconds by probes around it."""
    before = [probe_seconds() for _ in range(3)]
    result, seconds = timed()
    slowdown = statistics.median(before + [probe_seconds() for _ in range(3)]) / PROBE_REF_S
    return result, seconds / slowdown


class Probes:
    """Samples of probe_seconds(), taken at most every PROBE_INTERVAL_S.

    While active they are also taken after each PROBED_CALLS call, so an item
    that runs for seconds is sampled while it runs.
    """

    def __init__(self):
        self.samples = [probe_seconds()]
        self.last = perf_counter()
        self._patched = []

    def maybe(self):
        if perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.samples.append(probe_seconds())
            self.last = perf_counter()

    def __enter__(self):
        for module_name, names in PROBED_CALLS.items():
            module = sys.modules[f"booltermorders.{module_name}"]
            for name in names:
                self._patched.append((module, name, getattr(module, name)))
                setattr(module, name, self._probed(getattr(module, name)))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _probed(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.maybe()

        return wrapper


class Pass:
    """One pass; its times are scaled to the reference speed.

    The host's speed drifts by up to 40% within seconds, which no amount of
    repetition averages out.  A run's time, less the probes taken during it,
    is divided by its slowdown: the median probe time around and during the
    run over PROBE_REF_S.  Runs the workload does not scale keep raw time.
    """

    def __init__(self, runs, lines, failures, probes):
        # runs: per item, its runs as (seconds, index of the last probe before
        # the run, index of the last probe taken during it, whether to scale)
        def slowdown(first, last, scaled):
            if not scaled:
                return 1.0
            return statistics.median(probes[max(0, first - 1): last + 3]) / PROBE_REF_S

        self.raw_wall = sum(run[0] for item in runs for run in item)
        self.latencies = [[run[0] / slowdown(*run[1:]) for run in item] for item in runs]
        self.wall = sum(t for times in self.latencies for t in times)
        self.slowdown = self.raw_wall / self.wall
        self.failures = failures  # one entry per failed item or failed whole-pass check
        self.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_pass(workload) -> Pass:
    gc.collect()
    runs, lines, failures = [], [], []
    workload.start_pass()
    with Probes() as probes:
        samples = probes.samples
        for item in workload.items:
            times, outputs, item_failures = [], set(), []
            for _ in range(workload.repeats(item)):
                first = len(samples) - 1
                t0 = perf_counter()
                try:
                    line, run_failures = workload.run_item(item)
                except Exception as exc:  # a raising item is a failed item; the pass goes on
                    line, run_failures = f"error {type(exc).__name__}", [f"{type(exc).__name__}: {exc}"]
                seconds = perf_counter() - t0 - sum(samples[first + 1:])
                times.append((seconds, first, len(samples) - 1, workload.scaled(item)))
                outputs.add(line)
                item_failures += [f for f in run_failures if f not in item_failures]
                probes.maybe()
            if len(outputs) > 1:
                item_failures.append(f"repeated runs gave different outputs: {sorted(outputs)}")
            runs.append(times)
            lines.append(line)
            if item_failures:
                failures.append("; ".join(item_failures))
    return Pass(runs, lines, failures + workload.finish(), samples)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(passes, setup_s) -> dict[str, tuple[float, str]]:
    """name -> (value, unit); an item's latency is the median of all its runs."""
    latencies_ms = [
        statistics.median(t for times in runs for t in times) * 1000
        for runs in zip(*(p.latencies for p in passes))
    ]
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "item_p50_ms": (statistics.median(latencies_ms), "ms"),
        "item_p95_ms": (nearest_rank(latencies_ms, 0.95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def earlier_digests(workload: str, seed: int) -> dict[str, str]:
    found = {}
    for path in sorted(RESULTS.glob(f"{workload}-seed{seed}-trace*.json")):
        found[path.name] = json.loads(path.read_text())["digest"]
    return found


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "load_shape": LOAD_SHAPE,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "booltermorders").glob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["decide5", "witness5", "search6", "charpoly5"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracer
    import workloads

    reference = workloads.load_reference()
    cls = workloads.WORKLOADS[args.workload]
    size = cls.sizes["full"]

    setup_runs = 1 if args.trace else SETUP_REPEATS

    def build():
        t0 = perf_counter()
        built = cls(args.seed, size, reference)
        return built, perf_counter() - t0

    import_times, build_times = [], []
    for _ in range(setup_runs):
        import_times.append(at_reference_speed(lambda: (None, import_seconds()))[1])
        workload, seconds = at_reference_speed(build)
        build_times.append(seconds)
    setup_s = statistics.median(import_times) + statistics.median(build_times)

    if args.trace:
        plain = run_pass(workload)
        with tracer.Tracer() as traced_layers:
            traced = run_pass(workload)
        passes = [plain, traced]
        metrics = tracer.layer_metrics(
            traced_layers.stats, len(workload.items), traced.wall - plain.wall)
    else:
        deadline = perf_counter() + args.seconds
        passes = [run_pass(workload)]
        while perf_counter() + statistics.median(p.raw_wall for p in passes) <= deadline:
            passes.append(run_pass(workload))
        metrics = end_to_end_metrics(passes, setup_s)

    failures = list(workload.setup_failures)
    for p in passes:
        failures.extend(p.failures)
    digest = passes[0].digest
    if any(p.digest != digest for p in passes):
        failures.append(f"output digest differs between passes: {[p.digest for p in passes]}")
    for name, earlier in earlier_digests(args.workload, args.seed).items():
        if earlier != digest:
            failures.append(f"output digest {digest} differs from {earlier} in {name}")

    attempted = sum(len(p.latencies) for p in passes)
    items = len(workload.items)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": cls.seed_used,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": size,
        "items_per_pass": items,
        "passes": len(passes),
        "p95_samples_beyond": items - math.ceil(0.95 * items),
        "setup": {"import_s": import_times, "inputs_s": build_times},
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "pass_slowdown": [p.slowdown for p in passes],
        "digest": digest,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        **environment(),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
