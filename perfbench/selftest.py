"""Self-test of the benchmark gate at tiny size (about half a minute).

    python3 perfbench/selftest.py

Each workload runs one tiny pass against the true references, which must
pass, and one against a copy with a single deliberately wrong answer,
which must fail, so the gate cannot pass vacuously.  The metric names a
run prints are checked against BENCHMARK.json.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys

import run


def corrupt_decide5(ref):
    ref["noncoherent5"] = ref["noncoherent5"][1:]  # one noncoherent class called coherent


def corrupt_witness5(ref):
    ref["rigid5"] = ref["noncoherent5"]  # cone test expected to be trivial everywhere


def corrupt_search6(ref):
    ref["search6_neighbourhoods"][0] = "0" * 12


def corrupt_charpoly5(ref):
    ref["charpoly"]["3"]["coefficients"][-1] -= 1


CORRUPTIONS = {
    "decide5": corrupt_decide5,
    "witness5": corrupt_witness5,
    "search6": corrupt_search6,
    "charpoly5": corrupt_charpoly5,
}


def tiny_failures(workload_cls, reference, seed=1):
    workload = workload_cls(seed, workload_cls.sizes["tiny"], reference)
    result = run.run_pass(workload)
    return workload, result, workload.setup_failures + result.failures


def main() -> int:
    run.import_library()
    import tracer
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    reference = workloads.load_reference()
    for name, cls in workloads.WORKLOADS.items():
        workload, plain, failures = tiny_failures(cls, reference)
        if failures:
            problems.append(f"{name}: true references fail the gate: {failures[:3]}")
        bad = copy.deepcopy(reference)
        CORRUPTIONS[name](bad)
        _, _, bad_failures = tiny_failures(cls, bad)
        if not bad_failures:
            problems.append(f"{name}: a wrong reference passes the gate")
        with tracer.Tracer() as layers:
            traced = run.run_pass(workload)
        if traced.digest != plain.digest:
            problems.append(f"{name}: traced digest {traced.digest} != plain {plain.digest}")
        names = {
            "end_to_end": set(run.end_to_end_metrics([plain], 0.0)),
            "per_layer": set(tracer.layer_metrics(layers.stats, len(workload.items), 0.0)),
        }
        for kind, printed in names.items():
            declared = {m["name"] for m in spec[kind]}
            if printed != declared:
                problems.append(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                                f"{sorted(printed ^ declared)}")
        print(f"{name}: tiny pass ok={not failures}, wrong reference caught={bool(bad_failures)}, "
              f"{len(bad_failures)} failure(s), e.g. {bad_failures[:1]}")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
