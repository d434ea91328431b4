#!/usr/bin/env python3
"""Benchmark entry point: whole experiment runs, timed from outside.

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 10 --trace 0

Each pass runs one workload once in a fresh interpreter (what one CLI
invocation pays), as one closed-loop client: each op starts only after
the previous one ends.  ``--trace 0`` runs a fixed number of passes --
``--seconds`` over the workload's pass time on the calibration host
(``seconds_per_pass`` in ``benchmark_notes.json``), at least one -- and
reports the end-to-end metrics as medians over the passes.  The count
does not depend on how fast the program under test runs, so two commits
are always compared over the same number of passes.

Times are reported in seconds at the calibration host's speed: this
process and its workers run pinned to one CPU, and each op's seconds
are divided by the host-speed kernel (``hostspeed.py``) read in this
process around the op, while the worker waits.  The shared host's speed
drifts by tens of percent over minutes; the kernel divides that out and
leaves the program's own speed.  The raw host times are printed too.
``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics,
after checking that both passes produced the same outputs bit for bit.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 if any op failed or
raised, 2 if the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from math import fsum
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
NOTES = os.path.join(HERE, "benchmark_notes.json")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import NAMES  # noqa: E402

#: Removed from every pass's environment: reference oracles, forced cold
#: builds, a spill directory one run could warm for the next, and the
#: parallel runner's knobs.
SCRUBBED_ENV = (
    "RAIDP_SCHEDULER",
    "RAIDP_NET_SOLVER",
    "RAIDP_WARM_START",
    "RAIDP_SNAPSHOT_DIR",
    "RAIDP_JOBS",
    "RAIDP_MP_CONTEXT",
)

#: Extra set-up-only processes per run, so ``setup_s`` is a median over
#: several set-ups even where a run makes only two passes.
SETUP_PROBES = 5

#: Fewest passes per run.  A recovery pass is 16 ops over about 30 s, so
#: at the benchmark's run length a recovery run is one pass; its
#: normalised wall time repeats within about 7% (IQR / median, ten seeds).
MIN_PASSES = 1

#: No pass starts unless the run can still end within this many seconds.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.events": "count",
    "engine.dispatch_s": "s",
    "engine.self_s": "s",
    "engine.us_per_event": "us",
    "network.flows": "count",
    "network.gb": "GB",
    "network.events": "count",
    "network.dispatch_s": "s",
    "disk.events": "count",
    "disk.dispatch_s": "s",
    "disk.stream_io_calls": "count",
    "placement.calls": "count",
    "placement.s": "s",
    "placement.us_per_call": "us",
    "hdfs.events": "count",
    "hdfs.dispatch_s": "s",
    "dn.events": "count",
    "dn.dispatch_s": "s",
    "workloads.dfsio_write_s": "s",
    "workloads.dfsio_read_s": "s",
    "recovery.events": "count",
    "recovery.dispatch_s": "s",
    "recovery.double_failure_s": "s",
    "recovery.raid6_s": "s",
    "snapshot.hits": "count",
    "snapshot.misses": "count",
    "snapshot.capture_s": "s",
    "snapshot.restore_s": "s",
    "snapshot.mb_captured": "MB",
    "cluster.builds": "count",
    "cluster.build_s": "s",
    "payload.xor_calls": "count",
    "payload.xor_bytes": "bytes",
    "payload.xor_s": "s",
    "payload.checksum_calls": "count",
    "faults.injected": "count",
    "monitor.recoveries": "count",
    "hdfs.read_failovers": "count",
    "hdfs.degraded_reads": "count",
    "hdfs.pipeline_recoveries": "count",
    "workloads.skipped_ops": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "fraction",
}


def program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "experiments", "parallel.py"))


def pin_to_one_cpu() -> None:
    """Run this process and every worker it spawns on one CPU, so the
    host-speed kernel reads the CPU the workers run on: the vCPUs of a
    shared host drift independently of each other."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pass_env() -> Dict[str, str]:
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


class PassFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def run_worker(
    workload: str,
    seed: int,
    trace: int,
    deadline: float,
    extra: Tuple[str, ...] = (),
    speed: Optional[hostspeed.HostSpeed] = None,
) -> Tuple[float, Dict[str, Any]]:
    """Run one worker; returns (spawn time, its parsed result).

    Given ``speed``, the worker's ``kernel_reads`` gain a first read made
    here just before the spawn, so reads 0 and 1 bracket its set-up and
    reads i+1 and i+2 its op i.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *extra]
    server = None
    if speed is not None:
        server = hostspeed.Server(speed)
        cmd += ["--host-speed-fds", ",".join(map(str, server.child_fds()))]
        before = speed.read()
    spawned = time.perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=pass_env(), stdout=subprocess.PIPE,
                                pass_fds=server.child_fds() if server else ())
        if server is not None:
            server.started()
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{workload} pass timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    finally:
        if server is not None:
            server.close()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} worker exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise PassFailed(f"{workload} worker printed no result: {exc}") from None
    if server is not None:
        result["kernel_reads"] = [before, *result["kernel_reads"]]
    return spawned, result


def normalised(result: Dict[str, Any], spawned: float) -> Dict[str, Any]:
    """A worker's set-up and op seconds at the calibration host's speed."""
    reads = result["kernel_reads"]
    setup = hostspeed.normalised(result["first_op_at"] - spawned, reads[0], reads[1])
    ops = hostspeed.normalised_ops([op["s"] for op in result.get("ops", ())], reads)
    return {"setup_s": setup, "ops": ops}


def pass_count(workload: str, seconds: float) -> int:
    """Passes per ``--trace 0`` run: fixed by ``--seconds`` and the
    calibration host's pass time, never by the speed of the code measured."""
    with open(NOTES, encoding="utf-8") as handle:
        per_pass = json.load(handle)["workloads"][workload]["seconds_per_pass"]
    return max(MIN_PASSES, round(seconds / per_pass))


def failed_ops(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [op for op in result["ops"] if op["problem"] is not None]


def untraced(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    deadline = started + DEADLINE_S
    speed = hostspeed.HostSpeed()
    setups: List[float] = []
    raw_setups: List[float] = []
    for _ in range(SETUP_PROBES):
        spawned, probe = run_worker(args.workload, args.seed, 0, deadline,
                                    ("--setup-only",), speed)
        raw_setups.append(probe["first_op_at"] - spawned)
        setups.append(normalised(probe, spawned)["setup_s"])
    passes: List[Dict[str, Any]] = []
    walls: List[float] = []
    op_maxes: List[float] = []
    for _ in range(pass_count(args.workload, args.seconds)):
        now = time.perf_counter()
        if passes and now + 1.5 * (now - spawned) > deadline:
            print(f"perfbench: stopped after {len(passes)} passes to end in time",
                  file=sys.stderr)
            break
        spawned, result = run_worker(args.workload, args.seed, 0, deadline, (), speed)
        raw_setups.append(result["first_op_at"] - spawned)
        times = normalised(result, spawned)
        setups.append(times["setup_s"])
        walls.append(fsum(times["ops"]))
        op_maxes.append(max(times["ops"]))
        passes.append(result)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_max_s": statistics.median(op_maxes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    raw = {
        "raw.setup_s": statistics.median(raw_setups),
        "raw.wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw.op_max_s": statistics.median(max(op["s"] for op in p["ops"]) for p in passes),
    }
    return {
        "passes": passes,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "raw": raw,
    }


def traced(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    deadline = started + DEADLINE_S
    speed = hostspeed.HostSpeed()
    spawned, plain = run_worker(args.workload, args.seed, 0, deadline, (), speed)
    plain_wall = fsum(normalised(plain, spawned)["ops"])
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    spawned, with_trace = run_worker(
        args.workload, args.seed, 1, deadline, ("--spans", spans), speed
    )
    traced_wall = fsum(normalised(with_trace, spawned)["ops"])
    same_rows = plain["rows"] == with_trace["rows"]
    digests = {op["label"]: op["digest"] for op in plain["ops"]}
    for op in with_trace["ops"]:
        differs = not same_rows or op["digest"] != digests.get(op["label"])
        if differs and op["problem"] is None:
            op["problem"] = "traced output differs from the untraced run"
    layers = dict(with_trace["layers"])
    layers["trace.overhead"] = traced_wall / plain_wall
    return {
        "passes": [plain, with_trace],
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
    }


def report(args: argparse.Namespace, outcome: Dict[str, Any]) -> Dict[str, Any]:
    passes = outcome["passes"]
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [op for p in passes for op in failed_ops(p)]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops/pass={len(passes[0]['ops'])} "
          f"reference={'yes' if passes[0]['reference'] else 'shape-checks'}")
    for name, metric in outcome["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'ops_failed_frac':<28} {len(failures) / attempted:>16.6f} fraction")
    for name, value in outcome.get("raw", {}).items():
        print(f"{name:<28} {value:>16.6f} s (host time, not normalised)")
    for op in failures:
        print(f"FAILED {op['label']}: {op['problem']}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": outcome["metrics"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: src/repro not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    pin_to_one_cpu()
    try:
        outcome = traced(args, started) if args.trace else untraced(args, started)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
