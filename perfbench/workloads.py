"""The benchmark's workloads: their ops, and how each op's output is checked.

An op is one call through the program's public entry points:

- one task of an experiment's task protocol (``tasks()`` /
  ``run_task(key, deps=...)`` / ``merge()``), run in emission order with
  one job -- the order the parallel runner's sequential path uses;
- one ``repro.tools.chaos.run_chaos(seed)`` soak.

The workload seed becomes the placement seed of every task key, or the
seed of every soak.  Outputs are checked bitwise against recorded
references for the seeds in ``references.json``; for any other seed they
must be finite and keep the orderings the experiment's ``notes`` state.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: Soaks per chaos pass: what one ``python -m repro.tools.chaos --seed N``
#: invocation runs (``--runs`` defaults to 2 same-seed soaks, whose
#: fingerprints must match).  Fixed: the high-water RSS grows with the
#: soak count (uncollected cyclic garbage), so changing it changes
#: ``peak_rss_mb``.
CHAOS_SOAKS = 2

EXPERIMENTS = {
    "recovery": ("repro.experiments.table2_recovery",),
    "dfsio": ("repro.experiments.fig8_write", "repro.experiments.fig9_read"),
}
NAMES = ("recovery", "dfsio", "chaos")


def canonical(value: Any) -> Any:
    """A JSON-able form of an op's output that keeps every bit of a float.

    Snapshot blobs are reduced to their length: pickled set order
    depends on the interpreter's hash seed, so the bytes are not
    comparable across processes even when the cluster is.
    """
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (bytes, bytearray)):
        return {"bytes": len(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(value.items(), key=repr)]
    return value


def digest(value: Any) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _floats(value: Any) -> List[float]:
    if isinstance(value, float):
        return [value]
    if isinstance(value, (list, tuple)):
        return [f for item in value for f in _floats(item)]
    if isinstance(value, dict):
        return [f for item in value.values() for f in _floats(item)]
    return []


class Op:
    """One timed call; ``run`` returns its output."""

    __slots__ = ("label", "group", "run")

    def __init__(self, label: str, group: str, run: Callable[[], Any]) -> None:
        self.label = label
        self.group = group
        self.run = run


class ExperimentWorkload:
    """Tasks of one or more experiments, run sequentially in emission order."""

    def __init__(self, name: str, seed: int) -> None:
        self.seed = seed
        self.modules = [importlib.import_module(m) for m in EXPERIMENTS[name]]
        self.results: Dict[str, Dict[Any, Any]] = {}
        self.ops: List[Op] = []
        for module in self.modules:
            keyed: Dict[Any, Any] = {}
            self.results[module.__name__] = keyed
            for key in module.tasks(full_scale=False, seeds=(seed,)):
                self.ops.append(
                    Op(f"{_short(module)} {key!r}", module.__name__,
                       self._task(module, key, keyed))
                )

    @staticmethod
    def _task(module: Any, key: Any, keyed: Dict[Any, Any]) -> Callable[[], Any]:
        deps_fn = getattr(module, "task_deps", None)

        def run() -> Any:
            deps = {dep: keyed[dep] for dep in (deps_fn(key) if deps_fn else ())}
            if deps:
                value = module.run_task(key, full_scale=False, deps=deps)
            else:
                value = module.run_task(key, full_scale=False)
            keyed[key] = value
            return value

        return run

    def outputs(self) -> Dict[str, Any]:
        """Merged rows per experiment; a merge that raises is reported."""
        rows: Dict[str, Any] = {}
        for module in self.modules:
            try:
                result = module.merge(
                    self.results[module.__name__], full_scale=False, seeds=(self.seed,)
                )
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                rows[_short(module)] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            rows[_short(module)] = [
                [label, float.hex(float(measured))] for label, measured, _paper in result.rows
            ]
        return rows

    def check_rows(self, rows: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> Dict[str, str]:
        """Problems per experiment (empty when every row passes)."""
        problems: Dict[str, str] = {}
        for module in self.modules:
            name = _short(module)
            got = rows.get(name)
            if isinstance(got, dict):
                problems[name] = got["error"]
                continue
            if reference is not None:
                if got != reference["rows"].get(name):
                    problems[name] = "rows differ from the recorded reference"
                continue
            values = {label: float.fromhex(v) for label, v in got}
            if not all(math.isfinite(v) for v in values.values()):
                problems[name] = "non-finite row"
                continue
            shape_problem = SHAPES[name](values)
            if shape_problem:
                problems[name] = shape_problem
        return problems


class ChaosWorkload:
    """``CHAOS_SOAKS`` back-to-back soaks of the workload seed, as the
    chaos CLI runs them (``repro.tools.chaos.run_repeated``)."""

    def __init__(self, seed: int) -> None:
        from repro.tools.chaos import run_chaos

        self.results: Dict[int, Any] = {}
        self.ops = [
            Op(f"chaos seed={seed} run={run}", "chaos", self._soak(run_chaos, seed, run))
            for run in range(1, CHAOS_SOAKS + 1)
        ]

    def _soak(self, run_chaos: Callable[[int], Any], seed: int, run: int) -> Callable[[], Any]:
        def soak() -> Any:
            result = run_chaos(seed)
            self.results[run] = result
            return result

        return soak

    def outputs(self) -> Dict[str, Any]:
        return {}

    def check_rows(self, rows: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> Dict[str, str]:
        """Same-seed soaks must fingerprint identically, as the CLI checks."""
        fingerprints = [r.fingerprint for r in self.results.values()]
        if any(fp != fingerprints[0] for fp in fingerprints[1:]):
            return {"chaos": "same-seed soaks fingerprint differently"}
        return {}


def build(name: str, seed: int) -> Any:
    if name == "chaos":
        return ChaosWorkload(seed)
    return ExperimentWorkload(name, seed)


def op_value(op: Op, value: Any) -> Any:
    """The part of an op's output that is compared and digested."""
    if op.group == "chaos":
        return value.fingerprint
    return value


def op_problem(op: Op, value: Any) -> Optional[str]:
    """Checks one op can pass on its own, before any reference compare."""
    if op.group == "chaos":
        return None if value.ok else "; ".join(value.problems[:3]) or "soak failed"
    if not all(math.isfinite(f) for f in _floats(value)):
        return "non-finite output"
    return None


def load_references() -> Dict[str, Any]:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def _short(module: Any) -> str:
    return module.__name__.rsplit(".", 1)[-1]


# ----------------------------------------------------------------------
# Paper-shape checks: the orderings each experiment's ``notes`` state.
# Each returns a problem string, or "" when the shape holds.
# ----------------------------------------------------------------------
def _table2(rows: Dict[str, float]) -> str:
    for nic in ("10Gbps", "1Gbps"):
        raidp = {k: v for k, v in rows.items() if k.startswith("raidp") and k.endswith(nic)}
        raid6 = [v for k, v in rows.items() if k.startswith("raid6") and k.endswith(nic)]
        if len(raidp) != 4 or len(raid6) != 2:
            return f"missing rows @{nic}"
        if min(raid6) < 5 * max(raidp.values()):
            return f"raid6 not an order of magnitude slower @{nic}"
    fast = {k: v for k, v in rows.items() if k.startswith("raidp") and k.endswith("10Gbps")}
    if min(fast, key=fast.get) != "raidp byte_range 4MB @10Gbps":
        return "byte-range/4MB is not the fastest RAIDP row"
    if max(fast, key=fast.get) != "raidp superchunk 4MB @10Gbps":
        return "superchunk/4MB is not the slowest RAIDP row"
    slow = [v for k, v in rows.items() if k.startswith("raidp") and k.endswith("1Gbps")]
    if max(slow) > 1.1 * min(slow):
        return "1Gbps does not flatten the RAIDP rows"
    return ""


def _fig8(rows: Dict[str, float]) -> str:
    opt = [rows[f"raidp opt: {s}"] for s in ("only superchunks", "+lstor", "+journal")]
    if not opt[0] <= opt[1] <= opt[2] < 1.0:
        return "optimized raidp not increasing below hdfs-3"
    if not 1.0 < rows["raidp re-write: +journal"] < 1.5:
        return "re-write +journal not ~1.2x hdfs-3"
    unopt = rows["raidp unopt: +journal"]
    if unopt < 5.0 or unopt < max(v for k, v in rows.items() if k != "raidp unopt: +journal"):
        return "unoptimized +journal not off the chart"
    return ""


def _fig9(rows: Dict[str, float]) -> str:
    # The notes' "within a few percent of 1.0" holds for the experiment's
    # three-seed average.  One placement seed spreads the rows from 0.68
    # to 1.23 of HDFS-3 (seeds 1-10), so one seed is checked for what it
    # does keep: reads the same order as HDFS-3, and the RAIDP
    # configurations close to each other.
    if rows["hdfs 3 replicas"] != 1.0:
        return "hdfs-3 is not the baseline"
    if any(not 0.6 <= v <= 1.4 for v in rows.values()):
        return "a read configuration is more than 40% off hdfs-3"
    raidp = [v for k, v in rows.items() if k.startswith("raidp")]
    if max(raidp) > 1.15 * min(raidp):
        return "the RAIDP configurations do not read at about the same speed"
    return ""


SHAPES: Dict[str, Callable[[Dict[str, float]], str]] = {
    "table2_recovery": _table2,
    "fig8_write": _fig8,
    "fig9_read": _fig9,
}

