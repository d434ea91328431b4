"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last stdout line:

- ``first_op_at``: ``time.perf_counter()`` once the workload is ready
  for its first op (the parent subtracts its own spawn time to get
  ``setup_s``);
- ``ops``: per op its label, group, seconds, output digest and problem;
- ``wall_s``: the ops' seconds summed (they run back to back);
- ``rss_mb``: the process's high-water RSS;
- ``kernel_reads``: given ``--host-speed-fds``, the parent's host-speed
  kernel read once the workload is ready and again after every op
  (``hostspeed.py``); the reads run while no op is timed;
- the merged rows, and with ``--trace 1`` the per-layer metrics.

With ``--trace 1`` the layer wrappers are installed before any
experiment module is imported and ``repro.obs.simprofile.capture`` is
active for the whole pass.  ``repro.obs.tracer.capture`` is never used:
an enabled tracer makes the snapshot store skip its cache, so the traced
program would not be the one measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from math import fsum
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: simprofile categories reported as ``<layer>.events`` / ``.dispatch_s``.
CATEGORY_LAYERS = {
    "net": "network",
    "disk": "disk",
    "hdfs": "hdfs",
    "dn": "dn",
    "recovery": "recovery",
}


def layer_metrics(recorder: Any, profiler: Any, workload: Any) -> Dict[str, float]:
    from repro.sim import snapshot

    events: Dict[str, int] = {}
    walls: Dict[str, List[float]] = {}
    for bucket in profiler.buckets.values():
        events[bucket.category] = events.get(bucket.category, 0) + bucket.events
        walls.setdefault(bucket.category, []).append(bucket.wall_seconds)
    wall = {cat: fsum(values) for cat, values in walls.items()}
    total_events = sum(events.values())
    total_wall = fsum(wall.values())
    counts = recorder.counts
    spans = recorder.layer_seconds()
    placement_calls = counts.get("placement.calls", 0)
    m: Dict[str, float] = {
        "engine.events": total_events,
        "engine.dispatch_s": total_wall,
        "engine.self_s": wall.get("engine", 0.0),
        "engine.us_per_event": total_wall / total_events * 1e6 if total_events else 0.0,
        "network.flows": counts.get("network.flows", 0),
        "network.gb": counts.get("network.bytes", 0) / 1e9,
        "disk.stream_io_calls": counts.get("disk.stream_io_calls", 0),
        "placement.calls": placement_calls,
        "placement.s": spans.get("placement", 0.0),
        "placement.us_per_call": (
            spans.get("placement", 0.0) / placement_calls * 1e6 if placement_calls else 0.0
        ),
        "workloads.dfsio_write_s": spans.get("workloads.dfsio_write", 0.0),
        "workloads.dfsio_read_s": spans.get("workloads.dfsio_read", 0.0),
        "recovery.double_failure_s": spans.get("recovery.double_failure", 0.0),
        "recovery.raid6_s": spans.get("recovery.raid6", 0.0),
        "snapshot.hits": snapshot.GLOBAL_STORE.hits,
        "snapshot.misses": snapshot.GLOBAL_STORE.misses,
        "snapshot.capture_s": spans.get("snapshot.capture", 0.0),
        "snapshot.restore_s": spans.get("snapshot.restore", 0.0),
        "snapshot.mb_captured": counts.get("snapshot.bytes_captured", 0) / 1e6,
        "cluster.builds": sum(1 for s in recorder.spans if s[0].startswith("cluster.")),
        "cluster.build_s": spans.get("cluster", 0.0),
        "payload.xor_calls": counts.get("payload.xor_calls", 0),
        "payload.xor_bytes": counts.get("payload.xor_bytes", 0),
        "payload.xor_s": spans.get("payload.xor", 0.0),
        "payload.checksum_calls": counts.get("payload.checksum_calls", 0),
        "trace.unattributed_frac": (
            recorder.unattributed / recorder.op_wall if recorder.op_wall else 0.0
        ),
    }
    for category, layer in CATEGORY_LAYERS.items():
        m[f"{layer}.events"] = events.get(category, 0)
        m[f"{layer}.dispatch_s"] = wall.get(category, 0.0)
    fingerprints = [r.fingerprint for r in getattr(workload, "results", {}).values()
                    if hasattr(r, "fingerprint")]
    m["faults.injected"] = sum(len(fp["injections"]) for fp in fingerprints)
    m["monitor.recoveries"] = sum(len(fp["reports"]) for fp in fingerprints)
    for key, name in (
        ("read_failovers", "hdfs.read_failovers"),
        ("degraded_reads", "hdfs.degraded_reads"),
        ("pipeline_recoveries", "hdfs.pipeline_recoveries"),
        ("skipped_ops", "workloads.skipped_ops"),
    ):
        m[name] = sum(fp[key] for fp in fingerprints)
    return m


def peak_rss_mb() -> float:
    """This process's high-water RSS.  ``VmHWM`` starts afresh at exec;
    ``ru_maxrss`` would carry over the RSS of the process that spawned it
    (``run.py`` holds the host-speed kernel's data)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_spans(recorder: Any, ops: List[Dict[str, Any]], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    self_times = recorder.self_times()
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, op) in enumerate(recorder.spans):
            handle.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "self": self_times[index], "parent": parent,
                "op": ops[op]["label"] if op >= 0 else None,
            }) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    parser.add_argument("--host-speed-fds",
                        help="ASK,REPLY pipe descriptors of the parent's host-speed kernel")
    parser.add_argument("--ignore-references", action="store_true",
                        help="check shapes only (used when recording references)")
    args = parser.parse_args(argv)

    recorder = profiler = None
    profiling: Any = contextlib.nullcontext()
    if args.trace:
        import layers
        from repro.obs import simprofile

        profiler = simprofile.SimProfiler()
        recorder = layers.Recorder(profiler)
        layers.install(recorder)
        profiling = simprofile.capture(profiler)

    import hostspeed
    import workloads

    host_speed = hostspeed.Client(args.host_speed_fds)
    workload = workloads.build(args.workload, args.seed)
    first_op_at = time.perf_counter()
    kernel_reads = [host_speed.read()]
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at, "kernel_reads": kernel_reads}))
        return 0

    outcomes: List[Any] = []
    with profiling:
        for index, op in enumerate(workload.ops):
            if recorder is not None:
                recorder.begin_op(index)
            start = time.perf_counter()
            try:
                value, raised = op.run(), False
            except Exception:  # noqa: BLE001 - an op that raises is a failed op
                traceback.print_exc()
                value, raised = None, True
            end = time.perf_counter()
            if recorder is not None:
                recorder.end_op()
            outcomes.append((end - start, value, raised))
            kernel_reads.append(host_speed.read())

    ops: List[Dict[str, Any]] = []
    for op, (seconds, value, raised) in zip(workload.ops, outcomes):
        ops.append({
            "label": op.label,
            "group": op.group,
            "s": seconds,
            "digest": None if raised else workloads.digest(workloads.op_value(op, value)),
            "problem": "raised" if raised else workloads.op_problem(op, value),
        })

    rows = workload.outputs()
    reference = None
    if not args.ignore_references:
        reference = workloads.load_references().get(args.workload, {}).get(str(args.seed))
    if reference is not None:
        for op in ops:
            if op["problem"] is None and op["digest"] != reference["ops"].get(op["label"]):
                op["problem"] = "output differs from the recorded reference"
    for group, problem in workload.check_rows(rows, reference).items():
        # Rows that fail with no failed op to explain them fail every op
        # of that experiment.
        members = [op for op in ops if op["group"].endswith(group)]
        if not any(op["problem"] for op in members):
            for op in members:
                op["problem"] = f"merged rows: {problem}"

    result: Dict[str, Any] = {
        "first_op_at": first_op_at,
        "wall_s": fsum(seconds for seconds, _value, _raised in outcomes),
        "rss_mb": peak_rss_mb(),
        "kernel_reads": kernel_reads,
        "ops": ops,
        "rows": rows,
        "reference": reference is not None,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, profiler, workload)
        if args.spans:
            write_spans(recorder, ops, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
