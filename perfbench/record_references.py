#!/usr/bin/env python3
"""Record the bitwise reference outputs the benchmark checks against.

    python3 perfbench/record_references.py --seeds 1-10

Runs each workload once per seed (untraced, fresh process), requires
every op to pass its own checks and the merged rows to keep the
paper-shape orderings, then stores each op's output digest and the
merged rows in ``references.json``.  Re-record only when a change to
the program is meant to change its outputs, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PassFailed, failed_ops, run_worker  # noqa: E402
from workloads import NAMES, REFERENCES, load_references  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,7")
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args()
    references = load_references()
    for workload in args.workload or NAMES:
        for seed in parse_seeds(args.seeds):
            try:
                _spawned, result = run_worker(
                    workload, seed, 0, time.perf_counter() + 600, ("--ignore-references",)
                )
            except PassFailed as exc:
                print(f"{workload} seed={seed}: {exc}", file=sys.stderr)
                return 1
            failures = failed_ops(result)
            if failures:
                for op in failures:
                    print(f"{workload} seed={seed}: {op['label']}: {op['problem']}",
                          file=sys.stderr)
                return 1
            references.setdefault(workload, {})[str(seed)] = {
                "ops": {op["label"]: op["digest"] for op in result["ops"]},
                "rows": result["rows"],
            }
            print(f"{workload} seed={seed}: {len(result['ops'])} ops recorded", flush=True)
            with open(REFERENCES, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
