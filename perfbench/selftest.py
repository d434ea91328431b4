#!/usr/bin/env python3
"""Self-test of the benchmark's layer wrappers.

    python3 perfbench/selftest.py [--seed 1] [--workload NAME ...]

Runs two traced passes of each workload with one seed and checks that

- every per-layer metric is non-zero on the workloads where
  ``benchmark_notes.json`` predicts the layer works;
- the payload metrics are exactly 0 on the token-mode workloads;
- the exact counts (``exact_counts`` in the notes) are identical across
  the two passes;
- both passes pass their output checks.

Exits 1 and names each broken check if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PER_LAYER_UNITS, failed_ops, run_worker  # noqa: E402
from workloads import NAMES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args()
    with open(os.path.join(HERE, "benchmark_notes.json"), encoding="utf-8") as handle:
        notes = json.load(handle)
    problems: List[str] = []
    for workload in args.workload or NAMES:
        runs: List[Dict[str, float]] = []
        for _ in range(2):
            _spawned, result = run_worker(
                workload, args.seed, 1, time.perf_counter() + 600
            )
            problems.extend(
                f"{workload}: {op['label']}: {op['problem']}" for op in failed_ops(result)
            )
            runs.append(result["layers"])
        first, second = runs
        missing = sorted(set(PER_LAYER_UNITS) - {"trace.overhead"} - set(first))
        if missing:
            problems.append(f"{workload}: metrics not emitted: {missing}")
        for prediction in notes["predictions"]:
            for metric in prediction["metrics"]:
                if workload in prediction["work_on"] and not first.get(metric):
                    problems.append(f"{workload}: {metric} is 0 where the layer works")
                if workload in prediction.get("exactly_zero", ()) and first.get(metric) != 0:
                    problems.append(f"{workload}: {metric} = {first.get(metric)}, expected 0")
        for metric in notes["exact_counts"]:
            if first.get(metric) != second.get(metric):
                problems.append(
                    f"{workload}: {metric} differs between traced runs: "
                    f"{first.get(metric)} vs {second.get(metric)}"
                )
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
