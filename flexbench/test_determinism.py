#!/usr/bin/env python3
"""Work-count determinism test of the Flexile benchmark.

At a fixed job count the traced run's work counts must repeat exactly
between runs: LP solves, pivots, refactorizations, eta updates, the
offline phase's iterations, subproblems, pruned scenarios, cuts and
master solves, and the online phase's LP solves per event.  This test
runs the traced benchmark twice per workload, with two different seeds,
and fails if any of those counts differ or any output check failed.

Run from the repository root (40 to 75 s per run):

    python3 flexbench/test_determinism.py [WORKLOAD ...]
"""

import json
import subprocess
import sys

EXACT = [
    "offline.iterations",
    "offline.subproblems_solved",
    "offline.scenarios_pruned",
    "offline.cuts_generated",
    "offline.master_solves",
    "simplex.cold_solves",
    "simplex.iterations",
    "simplex.refactorizations",
    "simplex.eta_updates",
    "simplex.iterations_per_solve_p50",
    "simplex.warm_attempts",
    "simplex.warm_hit_ratio",
    "online.events",
    "online.lp_solves_per_event",
    "engine.scenarios",
    "engine.kept_ratio",
]


def traced_run(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        a, b = traced_run(spec, workload, 1), traced_run(spec, workload, 2)
        for run in (a, b):
            if not run["correct"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} operations failed")
                ok = False
        differ = [
            (k, a["metrics"][k]["value"], b["metrics"][k]["value"])
            for k in EXACT
            if a["metrics"][k]["value"] != b["metrics"][k]["value"]
        ]
        for k, va, vb in differ:
            print(f"{workload}: {k} differs between runs: {va} vs {vb}")
        ok = ok and not differ
        print(f"{workload}: {'ok' if not differ else 'FAILED'} ({len(EXACT)} counts)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
