#!/usr/bin/env python3
"""Exact work-count gate of the Flexile benchmark.

Compares the work counts of traced benchmark runs (LP solves, pivots,
refactorizations, eta updates, Benders iterations, cuts, pruned
scenarios, online LP solves per event, ...) against the committed
record bench/work_counts.json, taken at seed 1 with no timed phase.
The counts are the EXACT list of flexbench/test_determinism.py; they
do not depend on the machine, so any difference fails.  Timings and
gc.* are not compared.

Run from the repository root, after `make bench-smoke` has left one
traced log per BENCHMARK.json workload in smoke/bench-<workload>.txt:

    python3 tools/work_counts.py check [LOG_DIR]
    python3 tools/work_counts.py record [LOG_DIR]   # make work-counts
"""

import importlib.util
import json
import sys

RECORD = "bench/work_counts.json"

# flexbench/ stays untouched: no bytecode cache next to the imported test
sys.dont_write_bytecode = True


def exact_counts():
    spec = importlib.util.spec_from_file_location(
        "test_determinism", "flexbench/test_determinism.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXACT


def measured(log_dir, exact):
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    counts = {}
    for workload in workloads:
        with open(f"{log_dir}/bench-{workload}.txt") as f:
            metrics = json.loads(f.read().strip().splitlines()[-1])["metrics"]
        missing = [k for k in exact if k not in metrics]
        if missing:
            sys.exit(f"{workload}: no {', '.join(missing)} in the log "
                     "(was it run with --trace 1?)")
        counts[workload] = {k: metrics[k]["value"] for k in exact}
    return counts


def main():
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in ("check", "record"):
        sys.exit(__doc__)
    log_dir = sys.argv[2] if len(sys.argv) == 3 else "smoke"
    counts = measured(log_dir, exact_counts())
    if sys.argv[1] == "record":
        with open(RECORD, "w") as f:
            json.dump({"seed": 1, "workloads": counts}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"work-counts: recorded {RECORD}")
        return
    with open(RECORD) as f:
        recorded = json.load(f)["workloads"]
    ok = True
    for workload, got in counts.items():
        want = recorded.get(workload, {})
        differ = [(k, want.get(k), v) for k, v in got.items() if want.get(k) != v]
        for k, w, v in differ:
            print(f"work-counts: {workload}: {k} = {v}, recorded {w}")
        ok = ok and not differ
        print(f"work-counts: {workload}: {'ok' if not differ else 'FAILED'} "
              f"({len(got)} counts)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
