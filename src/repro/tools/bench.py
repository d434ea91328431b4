"""Perf-tracking bench harness: ``python -m repro.tools.bench``.

Times every registered experiment at smoke scale (one placement seed),
measures the substrate kernels (event-loop dispatch rate, payload XOR
throughput), and optionally compares end-to-end suite wall-clock across
worker-process counts.  Everything lands in ``BENCH_sim.json`` so future
PRs have a measurable baseline: regressions in either the hot kernels or
any single experiment show up as a diff against the committed report.

Usage::

    python -m repro.tools.bench                     # all experiments, jobs from RAIDP_JOBS
    python -m repro.tools.bench fig8 table2 -j 4    # a subset, 4 workers
    python -m repro.tools.bench --compare-jobs 1,4  # suite speedup measurement
    python -m repro.tools.bench --kernels-only      # skip the experiments
    python -m repro.tools.bench --check             # kernels vs committed report
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.experiments.parallel import resolve_jobs, run_many
from repro.experiments.runner import REGISTRY, list_experiments
from repro.sim import snapshot
from repro.sim.engine import Simulator
from repro.storage.payload import BytesPayload

#: Smoke-scale seed set: one placement seed instead of the default three.
SMOKE_SEEDS = (1,)

DEFAULT_OUTPUT = "BENCH_sim.json"

#: Git-tracked perf ledger: one JSONL entry per full bench run, so the
#: repo's own history carries kernel trend lines across PRs instead of
#: only the single latest committed report.
DEFAULT_HISTORY = "BENCH_history.jsonl"
HISTORY_SCHEMA = "raidp-bench-history-v1"

#: Kernels surfaced in the bench-check trend table (headline rates plus
#: the two disabled-path ratios the budgets gate).
_TREND_KEYS = (
    "event_loop_events_per_sec",
    "write_path_blocks_per_sec",
    "table2_rows_per_sec",
    "audit_checks_per_sec",
    "profile_overhead",
    "sampler_overhead",
)


# ----------------------------------------------------------------------
# Kernel microbenchmarks.
# ----------------------------------------------------------------------
def bench_payload_xor(size: int = units.MiB, repeats: int = 64) -> Dict[str, float]:
    """Throughput of the allocating vs. in-place payload XOR paths (GB/s)."""
    rng = np.random.default_rng(7)
    a = BytesPayload.adopt(rng.integers(0, 256, size=size, dtype=np.uint8))
    b = BytesPayload.adopt(rng.integers(0, 256, size=size, dtype=np.uint8))

    start = time.perf_counter()
    acc = a
    for _ in range(repeats):
        acc = acc.xor(b)
    xor_elapsed = time.perf_counter() - start

    buf = a.mutable_copy()
    start = time.perf_counter()
    for _ in range(repeats):
        b.xor_into(buf)
    xor_into_elapsed = time.perf_counter() - start

    total = size * repeats / units.GB
    return {
        "payload_xor_gbps": total / xor_elapsed if xor_elapsed else float("inf"),
        "payload_xor_into_gbps": (
            total / xor_into_elapsed if xor_into_elapsed else float("inf")
        ),
    }


def run_network_churn(
    solver: str, num_nics: int = 96, num_flows: int = 768, stagger: float = 0.0005
) -> Tuple[float, int]:
    """Drive a churn burst through one switch; (wall seconds, engine events).

    A deterministic LCG picks endpoints and sizes, so every run (and both
    solvers) sees the identical arrival/departure history.  This is the
    shared body of the ``flows_per_sec`` kernel and the microbenchmark
    event-budget guard.
    """
    from repro.sim.network import Nic, Switch

    sim = Simulator()
    switch = Switch(sim, solver=solver)
    nics = [switch.attach(Nic(f"n{i}", units.gbps(10))) for i in range(num_nics)]

    def feeder() -> Generator:
        state = 0x2545F4914F6CDD1D
        for _ in range(num_flows):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            src = nics[state % num_nics]
            dst = nics[(state >> 8) % num_nics]
            if dst is src:
                dst = nics[(state % num_nics + 1) % num_nics]
            size = 4 * units.MiB + (state >> 16) % (16 * units.MiB)
            switch.transfer(src, dst, size)
            yield sim.timeout(stagger)

    sim.process(feeder())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if switch.active_flows:
        raise RuntimeError("churn burst left flows in flight")
    return elapsed, sim._seq


def run_star_churn(
    senders: int = 14, flows_per_sender: int = 200, stagger: float = 0.0003
) -> Tuple[float, int]:
    """Star churn into one receive port; (wall seconds, flows).

    The RAIDP rebuild puller's shape: ``senders`` nodes each stream 4 MiB
    chunks back to back into one rebuilding node, starting ``stagger``
    apart, so every arrival and departure re-solves a k-spoke star.
    """
    from repro.sim.network import Nic, Switch

    sim = Simulator()
    switch = Switch(sim)
    sink = switch.attach(Nic("sink", units.gbps(10)))
    nics = [switch.attach(Nic(f"s{i}", units.gbps(10))) for i in range(senders)]

    def sender(index: int, nic: Nic) -> Generator:
        yield sim.timeout(index * stagger)
        for _ in range(flows_per_sender):
            yield switch.transfer(nic, sink, 4 * units.MiB)

    for index, nic in enumerate(nics):
        sim.process(sender(index, nic))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if switch.active_flows:
        raise RuntimeError("star churn left flows in flight")
    return elapsed, senders * flows_per_sender


def bench_network_solver(num_nics: int = 96, num_flows: int = 768) -> Dict[str, float]:
    """Flow throughput of the fair-share allocator (flows/second).

    Measures the incremental solver against the retained brute-force
    reference on the identical churn history; the ratio is the headline
    number the incremental solver must defend (>= 5x).  The star kernel
    times the many-to-one recovery shape on its own.
    """
    inc_elapsed, _events = run_network_churn("incremental", num_nics, num_flows)
    ref_elapsed, _events = run_network_churn("reference", num_nics, num_flows)
    inc = num_flows / inc_elapsed if inc_elapsed else float("inf")
    ref = num_flows / ref_elapsed if ref_elapsed else float("inf")
    star_elapsed, star_flows = run_star_churn()
    return {
        "net_solver_flows_per_sec": inc,
        "net_star_flows_per_sec": star_flows / star_elapsed if star_elapsed else float("inf"),
        "net_solver_reference_flows_per_sec": ref,
        "net_solver_speedup": inc / ref if ref else float("inf"),
    }


def bench_event_loop(num_events: int = 100_000) -> Dict[str, float]:
    """Dispatch rate of the simulation event loop (events/second)."""
    sim = Simulator()

    def ticker() -> Generator:
        for _ in range(num_events):
            yield sim.timeout(0.001)

    sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "event_loop_events_per_sec": (
            num_events / elapsed if elapsed else float("inf")
        ),
    }


def bench_trace_events(num_events: int = 200_000) -> Dict[str, float]:
    """Raw tracer emission rate (events/second, tracing enabled)."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_run("bench")
    start = time.perf_counter()
    for index in range(num_events):
        ts = index * 0.001
        tracer.complete("bench", "span", ts, ts + 0.0005, op=index)
    elapsed = time.perf_counter() - start
    return {
        "trace_events_per_sec": num_events / elapsed if elapsed else float("inf"),
    }


def _write_path_once(blocks: int = 96) -> float:
    """One timed write-path run; returns blocks/second.

    The observability budget's reference workload: 8 nodes, 2-way
    replication, 4 MiB blocks, every client streaming writes.  This path
    crosses the client pipeline, both datanodes, the journal, the Lstor,
    the disks, and the switch -- every instrumented layer.
    """
    from repro.core.cluster import RaidpCluster
    from repro.core.node import RaidpConfig
    from repro.hdfs.config import DfsConfig
    from repro.sim.cluster import ClusterSpec

    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=4 * units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=16 * units.MiB,
        payload_mode="tokens",
        seed=1,
    )

    def workload() -> Generator:
        per_client = blocks // len(dfs.clients)
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(
                f"/bench/f{index}", per_client * 4 * units.MiB
            )

    start = time.perf_counter()
    dfs.sim.run_process(workload())
    elapsed = time.perf_counter() - start
    return blocks / elapsed if elapsed else float("inf")


def bench_write_path(repeats: int = 3) -> Dict[str, float]:
    """Write-path throughput with tracing disabled and enabled.

    ``write_path_blocks_per_sec`` is the number the <=3% disabled-
    tracing overhead budget is enforced against (see
    :data:`PR3_WRITE_PATH_BASELINE`); the traced rate documents the cost
    of turning tracing on.
    """
    from repro.obs.tracer import Tracer, capture

    disabled = max(_write_path_once() for _ in range(repeats))
    with capture(Tracer()):
        traced = max(_write_path_once() for _ in range(repeats))
    return {
        "write_path_blocks_per_sec": disabled,
        "write_path_traced_blocks_per_sec": traced,
        "write_path_trace_slowdown": disabled / traced if traced else float("inf"),
    }


def bench_profile_overhead(repeats: int = 5) -> Dict[str, float]:
    """Cost of the *disabled* profiler path on the write-path kernel.

    :mod:`repro.obs.simprofile` promises the engine pays nothing when no
    profiler collects: ``Simulator.run()`` checks the bound profiler once
    per call and takes the ordinary inlined drain loop when it is absent
    or muted.  This kernel pins that promise by interleaving write-path
    runs with no profiler and with a muted (``enabled=False``) profiler
    bound, in one process, keeping the best of each side so shared-host
    noise cancels.  Reported as a slowdown ratio (plain rate / muted
    rate; 1.0 = free), gated at :data:`MAX_PROFILE_OVERHEAD` by
    ``bench-check``.
    """
    from repro.obs.simprofile import SimProfiler
    from repro.obs.simprofile import capture as profile_capture

    muted = SimProfiler()
    muted.enabled = False
    plain = 0.0
    with_muted = 0.0
    for _ in range(repeats):
        gc.collect()
        plain = max(plain, _write_path_once())
        gc.collect()
        with profile_capture(muted):
            with_muted = max(with_muted, _write_path_once())
    return {
        "profile_overhead": plain / with_muted if with_muted else float("inf"),
    }


def bench_sampler_overhead(repeats: int = 5) -> Dict[str, float]:
    """Cost of the *disabled* flight-recorder path on the write path.

    Same promise and same measurement shape as
    :func:`bench_profile_overhead`: ``Simulator.run()`` checks the bound
    sampler once per call, so a run with no sampler (or a muted one)
    must pay nothing.  Interleaved best-of-each-side, reported as a
    slowdown ratio (1.0 = free), gated at :data:`MAX_SAMPLER_OVERHEAD`
    by ``bench-check``.
    """
    from repro.obs.timeseries import Sampler
    from repro.obs.timeseries import capture as ts_capture

    muted = Sampler()
    muted.enabled = False
    plain = 0.0
    with_muted = 0.0
    for _ in range(repeats):
        gc.collect()
        plain = max(plain, _write_path_once())
        gc.collect()
        with ts_capture(muted):
            with_muted = max(with_muted, _write_path_once())
    return {
        "sampler_overhead": plain / with_muted if with_muted else float("inf"),
    }


def bench_audit_checks(audits: int = 64) -> Dict[str, float]:
    """Redundancy-auditor throughput (individual checks/second).

    Runs the sample-point tier (replication coherence, flow
    conservation, disk-state sanity) repeatedly over a quiescent 8-node
    cluster with data on every node -- the work the flight recorder adds
    per sample tick when auditing is on.  A violation here is a bug in
    either the cluster or the auditor, so the kernel refuses to report a
    rate for a failing audit.
    """
    from repro.core.cluster import RaidpCluster
    from repro.hdfs.config import DfsConfig
    from repro.obs.audit import Auditor
    from repro.sim.cluster import ClusterSpec

    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        payload_mode="tokens",
        seed=1,
    )

    def workload() -> Generator:
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/audit/f{index}", 4 * units.MiB)

    dfs.sim.run_process(workload())
    auditor = Auditor()
    auditor.attach(dfs)
    start = time.perf_counter()
    for _ in range(audits):
        auditor.audit(dfs.sim, dfs.sim.now, event="sample")
    elapsed = time.perf_counter() - start
    if auditor.violations:
        raise RuntimeError(
            f"audit kernel found violations: "
            f"{[v.as_dict() for v in auditor.violations[:3]]}"
        )
    return {
        "audit_checks_per_sec": (
            auditor.checks_run / elapsed if elapsed else float("inf")
        ),
    }


def bench_table2_rows() -> Dict[str, float]:
    """Throughput of the table2 task pipeline (logical rows/second).

    Times the 64 MB rows -- two RAIDP lock modes and the RAID-6
    read/writeback phase split, each at both NICs -- through the real
    ``run_task``/dependency machinery, including the warm-start snapshot
    path.  The 4 MB rows are deliberately excluded: they would push
    ``make bench-check`` from seconds into minutes, and both row classes
    exercise the same code paths.
    """
    from repro.experiments import table2_recovery as t2

    keys = [
        key
        for key in t2.tasks()
        if (key[2] if key[0] == "raidp" else key[1]) == 64 * units.MiB
    ]
    rows = sum(
        1 for key in keys if key[0] == "raidp" or key[3] == "write"
    )
    results: Dict = {}
    start = time.perf_counter()
    for key in keys:
        deps = {dep: results[dep] for dep in t2.task_deps(key)}
        results[key] = t2.run_task(key, deps=deps)
    elapsed = time.perf_counter() - start
    return {
        "table2_rows_per_sec": rows / elapsed if elapsed else float("inf"),
    }


def bench_snapshot_restore(repeats: int = 32) -> Dict[str, float]:
    """Warm-start restore rate (clusters/second) at table2 scale.

    Captures one quiescent 16-node RAIDP cluster and times repeated
    restores -- the per-task cost every warm-started sweep point pays
    instead of a cold build.
    """
    from repro.experiments.common import Scale, build_raidp
    from repro.sim.snapshot import capture, restore

    blob = capture(build_raidp(Scale(), seed=1))
    start = time.perf_counter()
    for _ in range(repeats):
        restore(blob)
    elapsed = time.perf_counter() - start
    return {
        "snapshot_restore_per_sec": repeats / elapsed if elapsed else float("inf"),
    }


def bench_lint(repeats: int = 3) -> Dict[str, float]:
    """Linter throughput over the repo's own ``src/`` tree (files/sec).

    The lint gate runs in ``make verify`` and CI on every change; this
    kernel keeps its cost visible so a rule regression that turns the
    AST walk (or the CFG construction behind the RDP1xx rules)
    quadratic shows up in the perf report, not in CI latency.  Cold
    rebuilds everything; warm is the same tree served from the
    incremental cache -- the rate every edit-one-file ``make lint``
    actually pays.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.lint.cli import build_engine

    src = Path(__file__).resolve().parents[2]
    cache_dir = tempfile.mkdtemp(prefix="lint-bench-cache-")
    cold_best = 0.0
    warm_best = 0.0
    try:
        for _ in range(repeats):
            shutil.rmtree(cache_dir, ignore_errors=True)
            engine = build_engine(cache_dir=cache_dir)
            start = time.perf_counter()
            engine.lint_paths([str(src)])
            elapsed = time.perf_counter() - start
            files = max(engine.files_checked, 1)
            cold_best = max(cold_best, files / elapsed if elapsed else float("inf"))
            engine = build_engine(cache_dir=cache_dir)
            start = time.perf_counter()
            engine.lint_paths([str(src)])
            elapsed = time.perf_counter() - start
            warm_best = max(warm_best, files / elapsed if elapsed else float("inf"))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "lint_files_per_sec": cold_best,
        "lint_warm_files_per_sec": warm_best,
    }


def bench_cfg_builds(repeats: int = 3) -> Dict[str, float]:
    """CFG construction rate over the repo's own functions (CFGs/sec).

    The flow-sensitive rules build one CFG per function per file; this
    kernel times exactly that step (parsing excluded) so the graph
    builder has its own floor independent of total lint throughput.
    """
    import ast as ast_module
    from pathlib import Path

    from repro.lint.cfg import function_cfgs

    src = Path(__file__).resolve().parents[2]
    trees = [
        ast_module.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
    best = 0.0
    for _ in range(repeats):
        built = 0
        start = time.perf_counter()
        for tree in trees:
            built += len(function_cfgs(tree))
        elapsed = time.perf_counter() - start
        best = max(best, built / elapsed if elapsed else float("inf"))
    return {"cfg_builds_per_sec": best}


def bench_durability(trials: int = 12) -> Dict[str, float]:
    """Fleet durability-engine throughput (Monte-Carlo trials/second).

    Times the epoch-batch engine on the ext-durability smoke fleet
    (1k disks x 10 simulated years, all five schemes on shared event
    streams).  The ISSUE-7 acceptance bound -- 10k disks x 10 years x
    200 trials in under 60 s -- rides on this rate staying healthy:
    the full-scale run is ~10x the per-trial event count, so a floor
    here keeps the headline run inside its budget with margin.
    """
    from repro.analysis.montecarlo import DurabilityEngine, Fleet

    engine = DurabilityEngine(
        fleet=Fleet(num_racks=20, disks_per_rack=50, groups=100_000),
        seed=3,
    )
    start = time.perf_counter()
    engine.run(trials, years=10.0)
    elapsed = time.perf_counter() - start
    return {
        "durability_trials_per_sec": trials / elapsed if elapsed else float("inf"),
    }


def bench_kernels() -> Dict[str, float]:
    kernels: Dict[str, float] = {}
    # Collect between kernels so each one starts from a small heap:
    # leftovers from earlier kernels otherwise tax the allocation-heavy
    # ones (the write path drops ~10% when timed after the rest).
    for bench in (
        bench_payload_xor,
        bench_event_loop,
        bench_network_solver,
        bench_trace_events,
        bench_write_path,
        bench_profile_overhead,
        bench_sampler_overhead,
        bench_audit_checks,
        bench_table2_rows,
        bench_snapshot_restore,
        bench_lint,
        bench_cfg_builds,
        bench_durability,
    ):
        gc.collect()
        kernels.update(bench())
    return kernels


# ----------------------------------------------------------------------
# The perf-history ledger.
# ----------------------------------------------------------------------
def append_history(report: Dict, path: str = DEFAULT_HISTORY) -> None:
    """Append one schema-versioned ledger entry for a finished bench run."""
    entry = {
        "schema": HISTORY_SCHEMA,
        "generated": report.get("generated"),
        "host": report.get("host", {}),
        "kernels": report.get("kernels", {}),
        "experiments": {
            name: timing.get("seconds")
            for name, timing in (report.get("experiments") or {}).items()
        },
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(path: str = DEFAULT_HISTORY) -> List[Dict]:
    """All ledger entries (skipping unknown schemas), oldest first."""
    entries: List[Dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if entry.get("schema") == HISTORY_SCHEMA:
                    entries.append(entry)
    except FileNotFoundError:
        pass
    return entries


def print_history_trend(path: str = DEFAULT_HISTORY, last: int = 5) -> None:
    """The last-N kernel trend table ``bench-check`` prints.

    Informational only: cross-host entries are not comparable in
    absolute terms, so the table labels each entry with its timestamp
    and leaves judgement to the reader (the gates above are what fail
    the build).
    """
    entries = load_history(path)[-last:]
    if not entries:
        print(f"  (no perf history at {path})")
        return
    print(f"perf history (last {len(entries)} of {path}):")
    header = f"  {'generated':<26}" + "".join(
        f"{key.replace('_per_sec', '/s'):>22}" for key in _TREND_KEYS
    )
    print(header)
    for entry in entries:
        cells = []
        for key in _TREND_KEYS:
            value = (entry.get("kernels") or {}).get(key)
            cells.append(f"{value:>22,.2f}" if value is not None else f"{'-':>22}")
        print(f"  {str(entry.get('generated', '?')):<26}" + "".join(cells))


# ----------------------------------------------------------------------
# Regression check against the committed report.
# ----------------------------------------------------------------------
#: Kernel metrics exempt from the throughput floor (pure ratios are
#: checked with their own dedicated bounds).
_RATIO_KEYS = {
    "net_solver_speedup",
    "write_path_trace_slowdown",
    "profile_overhead",
    "sampler_overhead",
}

#: The incremental solver must stay this much faster than the reference.
MIN_SOLVER_SPEEDUP = 5.0

#: Write-path throughput measured on this repo immediately *before* the
#: tracing instrumentation landed (same host class as CI).  The
#: observability budget says disabled-tracing instrumentation may cost
#: at most 3%; the bound below adds headroom for run-to-run noise.
PR3_WRITE_PATH_BASELINE = 3682.2
#: Allowed shortfall vs the pre-instrumentation baseline (3% budget
#: plus measurement noise).
MAX_WRITE_PATH_SHORTFALL = 1.08

#: The disabled-profiler path (profiler machinery present but nothing
#: bound/collecting) may cost at most 1% on the write path.  The kernel
#: interleaves and keeps the best of each side, so the ratio is already
#: noise-cancelled; no extra headroom is added.
MAX_PROFILE_OVERHEAD = 1.01

#: Same budget for the disabled flight-recorder sampler: the engine
#: checks the bound sampler once per run(), never per event, so the
#: write path with a muted sampler must match the plain path to 1%.
MAX_SAMPLER_OVERHEAD = 1.01

#: Event-core floors locked in when the calendar-queue scheduler and
#: warmup memoization landed: the event-loop dispatch rate (1.5x the
#: pre-rewrite 880k events/sec) and the warm-started table2 row pipeline
#: (measured ~5.8 rows/sec; the floor leaves ~20% noise headroom).
#: Absolute rates do not transfer across machines, so -- like the
#: write-path budget -- they are enforced only when the committed report
#: came from a matching host.
PR8_EVENT_LOOP_FLOOR = 1_320_000.0
PR8_TABLE2_ROWS_FLOOR = 4.6

#: CFG-construction floor locked in when the flow-sensitive analyzer
#: landed (measured ~6,000 function CFGs/sec over the repo's own tree
#: when run after the other kernels, ~7,500 standalone; the floor
#: leaves ~20% headroom under the lower figure).  Host-gated like the
#: other absolute rates.
PR10_CFG_BUILDS_FLOOR = 4_800.0


def _hosts_match(committed: Dict, current_cpu: Optional[int]) -> bool:
    host = committed.get("host", {})
    return (
        host.get("platform") == platform.platform()
        and host.get("cpu_count") == current_cpu
    )


def check_report(path: str, tolerance: float) -> int:
    """Re-run the kernels and compare against the committed report.

    Every throughput kernel must land within ``tolerance`` (a ratio) of
    the committed value on the *low* side -- improvements always pass.
    The solver speedup is additionally held to :data:`MIN_SOLVER_SPEEDUP`
    in both the committed report and the fresh run.
    """
    with open(path) as fh:
        committed = json.load(fh)
    baseline = committed.get("kernels", {})
    current = bench_kernels()
    failures = []
    for key, value in current.items():
        if key in _RATIO_KEYS or key not in baseline:
            continue
        floor = baseline[key] / tolerance
        status = "ok" if value >= floor else "REGRESSION"
        print(f"  {key:<36} {value:>14,.1f}  (committed {baseline[key]:,.1f}) {status}")
        if value < floor:
            failures.append(
                f"{key}: {value:,.1f} < {floor:,.1f} "
                f"(committed {baseline[key]:,.1f} / tolerance {tolerance})"
            )
    for label, speedup in (
        ("committed", baseline.get("net_solver_speedup")),
        ("current", current.get("net_solver_speedup")),
    ):
        if speedup is None:
            failures.append(f"{label} report lacks net_solver_speedup")
            continue
        status = "ok" if speedup >= MIN_SOLVER_SPEEDUP else "REGRESSION"
        print(f"  net_solver_speedup ({label})         {speedup:>14.1f}x  {status}")
        if speedup < MIN_SOLVER_SPEEDUP:
            failures.append(
                f"{label} net_solver_speedup {speedup:.1f}x < {MIN_SOLVER_SPEEDUP}x"
            )
    # The observability budget: with tracing disabled, the instrumented
    # write path must stay within MAX_WRITE_PATH_SHORTFALL of the
    # pre-instrumentation baseline.  Raw blocks/sec do not transfer
    # across machines, so the absolute bound only applies when the
    # committed report came from a matching host; elsewhere the generic
    # tolerance check above still covers relative regressions.
    write_rate = current.get("write_path_blocks_per_sec")
    if write_rate is None:
        failures.append("current run lacks write_path_blocks_per_sec")
    elif _hosts_match(committed, os.cpu_count()):
        floor = PR3_WRITE_PATH_BASELINE / MAX_WRITE_PATH_SHORTFALL
        # A shared host can only make the kernel measure *slower*, never
        # faster, so a floor check may retry and keep the best: a real
        # regression stays under the floor on every attempt.
        for _ in range(2):
            if write_rate >= floor:
                break
            gc.collect()
            write_rate = max(
                write_rate, bench_write_path()["write_path_blocks_per_sec"]
            )
        status = "ok" if write_rate >= floor else "REGRESSION"
        print(
            f"  write_path vs pre-trace baseline     {write_rate:>14,.1f}  "
            f"(floor {floor:,.1f}) {status}"
        )
        if write_rate < floor:
            failures.append(
                f"write_path_blocks_per_sec {write_rate:,.1f} < {floor:,.1f} "
                f"(disabled-tracing budget vs baseline "
                f"{PR3_WRITE_PATH_BASELINE:,.1f})"
            )
    else:
        print(
            "  write_path vs pre-trace baseline     (skipped: report from "
            "a different host)"
        )
    # The disabled-profiler budget is a pure in-process ratio, so unlike
    # the absolute floors it holds on any host.
    overhead = current.get("profile_overhead")
    if overhead is None:
        failures.append("current run lacks profile_overhead")
    else:
        for _ in range(2):
            if overhead <= MAX_PROFILE_OVERHEAD:
                break
            gc.collect()
            overhead = min(overhead, bench_profile_overhead()["profile_overhead"])
        status = "ok" if overhead <= MAX_PROFILE_OVERHEAD else "REGRESSION"
        print(
            f"  profile_overhead                     {overhead:>14.4f}x  "
            f"(budget {MAX_PROFILE_OVERHEAD}x) {status}"
        )
        if overhead > MAX_PROFILE_OVERHEAD:
            failures.append(
                f"profile_overhead {overhead:.4f}x > {MAX_PROFILE_OVERHEAD}x "
                "(disabled-profiler path must be free on the write path)"
            )
    # And the same 1% budget for the disabled flight-recorder sampler.
    sampler_ratio = current.get("sampler_overhead")
    if sampler_ratio is None:
        failures.append("current run lacks sampler_overhead")
    else:
        for _ in range(2):
            if sampler_ratio <= MAX_SAMPLER_OVERHEAD:
                break
            gc.collect()
            sampler_ratio = min(
                sampler_ratio, bench_sampler_overhead()["sampler_overhead"]
            )
        status = "ok" if sampler_ratio <= MAX_SAMPLER_OVERHEAD else "REGRESSION"
        print(
            f"  sampler_overhead                     {sampler_ratio:>14.4f}x  "
            f"(budget {MAX_SAMPLER_OVERHEAD}x) {status}"
        )
        if sampler_ratio > MAX_SAMPLER_OVERHEAD:
            failures.append(
                f"sampler_overhead {sampler_ratio:.4f}x > {MAX_SAMPLER_OVERHEAD}x "
                "(disabled-sampler path must be free on the write path)"
            )
    # Event-core floors (same retry-keep-best rationale as the write
    # path: a shared host only slows a kernel down, never speeds it up).
    if _hosts_match(committed, os.cpu_count()):
        for key, floor, rerun in (
            ("event_loop_events_per_sec", PR8_EVENT_LOOP_FLOOR, bench_event_loop),
            ("table2_rows_per_sec", PR8_TABLE2_ROWS_FLOOR, bench_table2_rows),
            ("cfg_builds_per_sec", PR10_CFG_BUILDS_FLOOR, bench_cfg_builds),
        ):
            rate = current.get(key)
            if rate is None:
                failures.append(f"current run lacks {key}")
                continue
            for _ in range(2):
                if rate >= floor:
                    break
                gc.collect()
                rate = max(rate, rerun()[key])
            status = "ok" if rate >= floor else "REGRESSION"
            print(f"  {key + ' vs floor':<36} {rate:>14,.1f}  (floor {floor:,.1f}) {status}")
            if rate < floor:
                failures.append(f"{key} {rate:,.1f} < floor {floor:,.1f}")
    else:
        print("  event-core floors                    (skipped: report from a different host)")
    _experiment_delta_table(committed, current)
    print_history_trend()
    if failures:
        print("bench-check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench-check ok")
    return 0


#: Kernels that ride along in the before/after delta table (rates, so
#: a positive delta is an improvement -- the opposite of the experiment
#: wall-clock rows above them).
_DELTA_TABLE_KERNELS = ("event_loop_events_per_sec", "table2_rows_per_sec")


def _experiment_delta_table(committed: Dict, current_kernels: Dict[str, float]) -> None:
    """Re-time the committed report's experiments and print the deltas.

    Informational only (wall-clock is too host-sensitive to gate): the
    table makes a perf-focused PR's before/after visible in the CI log,
    and lands in the GitHub job summary when ``GITHUB_STEP_SUMMARY`` is
    set.  The event-core kernels ride along so their gated floors have a
    visible trend line next to the wall-clock they explain.
    """
    before = committed.get("experiments") or {}
    names = [name for name in before if name in REGISTRY]
    if not names:
        return
    jobs = int(committed.get("config", {}).get("jobs", 1) or 1)
    print(f"per-experiment timing delta (before = committed report, jobs={jobs}):")
    lines = [
        "| metric | before | after | delta |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name in names:
        _reset_measurement_state()
        start = time.perf_counter()
        run_many([name], jobs=jobs, seeds=SMOKE_SEEDS)
        after = time.perf_counter() - start
        prior = float(before[name].get("seconds", 0.0))
        delta = (after - prior) / prior * 100.0 if prior else float("inf")
        print(f"  {name:<16} before {prior:8.2f}s  after {after:8.2f}s  {delta:+6.1f}%")
        lines.append(f"| {name} (s) | {prior:.2f} | {after:.2f} | {delta:+.1f}% |")
    baseline_kernels = committed.get("kernels") or {}
    for key in _DELTA_TABLE_KERNELS:
        prior = baseline_kernels.get(key)
        after = current_kernels.get(key)
        if not prior or not after:
            continue
        delta = (after - prior) / prior * 100.0
        print(f"  {key:<36} before {prior:12,.1f}  after {after:12,.1f}  {delta:+6.1f}%")
        lines.append(f"| {key} | {prior:,.1f} | {after:,.1f} | {delta:+.1f}% |")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("### bench-check experiment timings\n\n")
            fh.write("\n".join(lines))
            fh.write("\n")


# ----------------------------------------------------------------------
# Experiment timings.
# ----------------------------------------------------------------------
def _reset_measurement_state() -> None:
    """Put the process in a reproducible state before a timed run.

    The kernels and earlier experiments leave tens of MB live (snapshot
    blobs, payload arrays), and a large generation-2 heap makes the
    cyclic GC visibly slower inside allocation-heavy simulations --
    in-process timings drifted ~15% above a fresh CLI run without this.
    Clearing the snapshot store also keeps every experiment's timing
    cold-cache, independent of what was timed before it.
    """
    snapshot.GLOBAL_STORE.clear()
    gc.collect()


def time_experiments(
    names: Sequence[str], jobs: int
) -> Dict[str, Dict[str, float]]:
    """Wall-clock per experiment at smoke scale (one seed)."""
    timings: Dict[str, Dict[str, float]] = {}
    for name in names:
        _reset_measurement_state()
        start = time.perf_counter()
        (result,) = run_many([name], jobs=jobs, seeds=SMOKE_SEEDS)
        elapsed = time.perf_counter() - start
        timings[name] = {
            "seconds": round(elapsed, 3),
            "rows": len(result.rows),
        }
        print(f"  {name:<16} {elapsed:8.2f}s  ({len(result.rows)} rows)")
    return timings


def time_suite(names: Sequence[str], jobs_list: Sequence[int]) -> Dict[str, float]:
    """End-to-end suite wall-clock at each worker count."""
    seconds_by_jobs: Dict[str, float] = {}
    for jobs in jobs_list:
        _reset_measurement_state()
        start = time.perf_counter()
        run_many(names, jobs=jobs, seeds=SMOKE_SEEDS)
        elapsed = time.perf_counter() - start
        seconds_by_jobs[str(jobs)] = round(elapsed, 3)
        print(f"  suite @ jobs={jobs}: {elapsed:.2f}s")
    return seconds_by_jobs


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the experiment suite and substrate kernels; "
        "write a machine-readable perf report.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to time (default: the whole registry)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the per-experiment timings "
        "(default: $RAIDP_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--compare-jobs",
        default=None,
        metavar="N,M,...",
        help="additionally time the full suite at each of these worker "
        "counts (e.g. 1,4) and record the speedup",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=DEFAULT_OUTPUT,
        help=f"report path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--kernels-only",
        action="store_true",
        help="only run the kernel microbenchmarks (fast)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run the kernels and fail if any regressed beyond "
        "--check-tolerance of the committed report (reads --output)",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=3.0,
        metavar="RATIO",
        help="allowed shortfall ratio vs the committed kernel numbers "
        "(default 3.0: absorbs machine-to-machine variance)",
    )
    args = parser.parse_args(argv)

    if args.check:
        print(f"bench-check: kernels vs {args.output} (tolerance {args.check_tolerance}x)")
        return check_report(args.output, args.check_tolerance)

    names = args.experiments or list_experiments()
    for name in names:
        if name not in REGISTRY:
            parser.error(f"unknown experiment {name!r}; known: {list_experiments()}")
    jobs = resolve_jobs(args.jobs)

    report = {
        "schema": 1,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "jobs": jobs,
            "smoke_seeds": list(SMOKE_SEEDS),
            "experiments": list(names),
        },
    }

    # Experiments are timed before the kernel microbenchmarks: the
    # kernels leave long-lived allocations behind, and even after a
    # gc.collect() a fresh process is measurably faster for the
    # allocation-heavy simulations.  Timing experiments first makes the
    # figures match a standalone `python -m repro.experiments` run.
    if not args.kernels_only:
        print(f"experiment timings (smoke scale, jobs={jobs}):")
        report["experiments"] = time_experiments(names, jobs)

    print("kernel microbenchmarks:")
    kernels = bench_kernels()
    for key, value in kernels.items():
        print(f"  {key:<28} {value:,.1f}")
    report["kernels"] = {k: round(v, 2) for k, v in kernels.items()}

    if not args.kernels_only and args.compare_jobs:
        jobs_list = [resolve_jobs(int(j)) for j in args.compare_jobs.split(",")]
        cpu_count = os.cpu_count() or 1
        suite: Dict[str, object] = {"cpu_count": cpu_count}
        # A jobs=N wall-clock on a host with fewer than N cores measures
        # oversubscription, not parallel speedup, so those re-runs are
        # skipped outright -- an oversubscribed suite pass costs ~the
        # whole suite wall-clock only to produce a timing the report
        # would then have to disclaim.
        oversubscribed = sorted({j for j in jobs_list if j > cpu_count})
        runnable = [j for j in jobs_list if j <= cpu_count]
        if oversubscribed:
            suite["speedup_note"] = (
                f"skipped jobs={oversubscribed}: host has {cpu_count} "
                "core(s); an oversubscribed re-run measures contention, "
                "not parallel speedup"
            )
            print(f"  suite comparison: {suite['speedup_note']}")
        parallel_jobs = [j for j in runnable if j > 1]
        if parallel_jobs:
            print("suite comparison:")
            seconds_by_jobs = time_suite(names, runnable)
            suite["seconds_by_jobs"] = seconds_by_jobs
            baseline = seconds_by_jobs.get("1")
            if baseline:
                best = min(seconds_by_jobs[str(j)] for j in parallel_jobs)
                suite["speedup_vs_jobs1"] = round(baseline / best, 3)
        else:
            # Nothing to compare against jobs=1 -- do not burn a
            # jobs=1-only suite pass either.
            suite["speedup_vs_jobs1"] = None
        report["suite"] = suite

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.output}")
    # Full runs extend the git-tracked ledger; ad-hoc runs aimed at a
    # different --output (scratch comparisons) stay out of the history.
    if args.output == DEFAULT_OUTPUT:
        append_history(report)
        print(f"appended {DEFAULT_HISTORY}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
