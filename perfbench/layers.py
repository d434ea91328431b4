"""Span and counter wrappers that charge a traced run's work to layers.

The wrappers live here, in the benchmark, around the program's public
calls; nothing inside ``src/`` is traced.  They only observe: every
wrapper calls the original with the same arguments and returns its
result untouched, so a traced run executes the same schedule as an
untraced one (the benchmark checks this on every traced run).

Two kinds of wrapper:

- *Spans* record (name, start, end, parent, op) around a call.  Spans
  are *outer* (cluster build, snapshot capture/restore, DFSIO phases,
  recovery) or *inner* (placement, payload kernels).  Inner spans run
  inside event dispatch, so the dispatch wall of the calling category
  already contains them; only outer spans add to the wall time the
  trace accounts for.
- *Counters* count calls of functions that run on the simulator's hot
  path or that return generators (``Switch.transfer``,
  ``Disk.stream_io``); wrapping those in a span would either cost more
  than the call or misattribute the generator's dispatch.

:func:`install` must run before the experiment modules are imported,
because they bind ``dfsio_write``, ``dfsio_read`` and
``simulate_raid6_*`` with ``from ... import`` at import time.  It also
rebinds any such name already imported by a ``repro`` module.
"""

from __future__ import annotations

import functools
import sys
import time
from math import fsum
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter

#: Span name -> layer it is charged to.
SPAN_LAYERS = {
    "cluster.RaidpCluster": "cluster",
    "cluster.HdfsCluster": "cluster",
    "snapshot.capture": "snapshot.capture",
    "snapshot.restore": "snapshot.restore",
    "workloads.dfsio_write": "workloads.dfsio_write",
    "workloads.dfsio_read": "workloads.dfsio_read",
    "recovery.double_failure": "recovery.double_failure",
    "recovery.raid6_read_phase": "recovery.raid6",
    "recovery.raid6_writeback_phase": "recovery.raid6",
    "placement.RaidpPlacement": "placement",
    "placement.ReplicationPlacement": "placement",
    "payload.xor": "payload.xor",
    "payload.xor_into": "payload.xor",
    "payload.accumulate": "payload.xor",
    "payload.checksum": "payload.checksum",
}

INNER_LAYERS = frozenset({"placement", "payload.xor", "payload.checksum"})


class Recorder:
    """In-memory span list, counters and per-op wall accounting."""

    def __init__(self, profiler: Any = None) -> None:
        self.profiler = profiler
        #: [name, start, end, parent index or -1, op index]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._op = -1
        self._outer_depth = 0
        self._outer_enter_dispatch = 0.0
        self._op_start = 0.0
        self._op_dispatch = 0.0
        self._root_cover = 0.0
        self._root_dispatch = 0.0
        self.op_wall = 0.0
        self.unattributed = 0.0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dispatch_wall(self) -> float:
        """Profiler dispatch wall so far (0 when no profiler is active)."""
        if self.profiler is None:
            return 0.0
        return fsum(b.wall_seconds for b in self.profiler.buckets.values())

    # -- ops -----------------------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index
        self._root_cover = 0.0
        self._root_dispatch = 0.0
        self._op_dispatch = self.dispatch_wall()
        self._op_start = clock()

    def end_op(self) -> None:
        wall = clock() - self._op_start
        dispatch = self.dispatch_wall() - self._op_dispatch
        covered = self._root_cover + (dispatch - self._root_dispatch)
        self.op_wall += wall
        self.unattributed += wall - covered
        self._op = -1

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        outer = SPAN_LAYERS[name] not in INNER_LAYERS
        if outer:
            if self._outer_depth == 0:
                self._outer_enter_dispatch = self.dispatch_wall()
            self._outer_depth += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = clock()
        self._stack.pop()
        if SPAN_LAYERS[span[0]] not in INNER_LAYERS:
            self._outer_depth -= 1
            if self._outer_depth == 0:
                self._root_cover += span[2] - span[1]
                self._root_dispatch += (
                    self.dispatch_wall() - self._outer_enter_dispatch
                )

    def layer_seconds(self) -> Dict[str, float]:
        """Per layer: summed duration of its spans not nested in its own.

        A span nested inside a span of the same layer (an accumulator
        step calling ``xor_into``) is already inside its parent's time.
        """
        spans = self.spans
        totals: Dict[str, List[float]] = {}
        for name, start, end, parent, _op in spans:
            layer = SPAN_LAYERS[name]
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if SPAN_LAYERS[spans[ancestor][0]] == layer:
                    nested = True
                    break
                ancestor = spans[ancestor][3]
            if not nested:
                totals.setdefault(layer, []).append(end - start)
        return {layer: fsum(values) for layer, values in totals.items()}

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its child spans cover."""
        times = [end - start for _name, start, end, _parent, _op in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                times[parent] -= end - start
        return times


def _spanned(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    on_result: Optional[Callable[[Any], None]] = None,
    counter: Optional[str] = None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if counter is not None:
            recorder.count(counter)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Patch the layer boundaries to report to ``recorder``."""
    from repro.core import recovery
    from repro.core.cluster import RaidpCluster
    from repro.core.placement import RaidpPlacement
    from repro.hdfs.filesystem import HdfsCluster
    from repro.hdfs.namenode import ReplicationPlacement
    from repro.sim import snapshot
    from repro.sim.disk import Disk
    from repro.sim.network import Switch
    from repro.storage.payload import BytesPayload, XorAccumulator
    from repro.workloads import dfsio

    rec = recorder
    replaced: Dict[int, Any] = {}

    def patch(owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr]
        replaced[id(original)] = wrapper
        setattr(owner, attr, wrapper)

    def spans(owner: Any, attr: str, name: str, **kw: Any) -> None:
        patch(owner, attr, _spanned(rec, name, owner.__dict__[attr], **kw))

    # Counters on hot-path calls (no span).
    transfer = Switch.transfer

    @functools.wraps(transfer)
    def counted_transfer(self: Any, src: Any, dst: Any, nbytes: int) -> Any:
        rec.count("network.flows")
        rec.count("network.bytes", nbytes)
        return transfer(self, src, dst, nbytes)

    patch(Switch, "transfer", counted_transfer)

    stream_io = Disk.stream_io

    @functools.wraps(stream_io)
    def counted_stream_io(self: Any, kind: str, offset: int, nbytes: int) -> Any:
        rec.count("disk.stream_io_calls")
        return stream_io(self, kind, offset, nbytes)

    patch(Disk, "stream_io", counted_stream_io)

    # Spans on layer entry points.
    spans(RaidpCluster, "__init__", "cluster.RaidpCluster")
    spans(HdfsCluster, "__init__", "cluster.HdfsCluster")
    spans(
        snapshot, "capture", "snapshot.capture",
        on_result=lambda blob: rec.count("snapshot.bytes_captured", len(blob)),
    )
    spans(snapshot, "restore", "snapshot.restore")
    spans(dfsio, "dfsio_write", "workloads.dfsio_write")
    spans(dfsio, "dfsio_read", "workloads.dfsio_read")
    spans(recovery.RecoveryManager, "recover_double_failure",
          "recovery.double_failure")
    spans(recovery, "simulate_raid6_read_phase", "recovery.raid6_read_phase")
    spans(recovery, "simulate_raid6_writeback_phase",
          "recovery.raid6_writeback_phase")
    spans(RaidpPlacement, "choose_targets", "placement.RaidpPlacement",
          counter="placement.calls")
    spans(ReplicationPlacement, "choose_targets", "placement.ReplicationPlacement",
          counter="placement.calls")

    xor = BytesPayload.xor
    xor_into = BytesPayload.xor_into
    checksum = BytesPayload.checksum
    add = XorAccumulator.add
    span_xor = _spanned(rec, "payload.xor", xor)
    span_xor_into = _spanned(rec, "payload.xor_into", xor_into)
    span_checksum = _spanned(rec, "payload.checksum", checksum)
    span_add = _spanned(rec, "payload.accumulate", add)

    @functools.wraps(xor)
    def counted_xor(self: Any, other: Any) -> Any:
        rec.count("payload.xor_calls")
        rec.count("payload.xor_bytes", len(self))
        return span_xor(self, other)

    @functools.wraps(xor_into)
    def counted_xor_into(self: Any, accum: Any) -> None:
        rec.count("payload.xor_calls")
        rec.count("payload.xor_bytes", len(accum))
        span_xor_into(self, accum)

    @functools.wraps(checksum)
    def counted_checksum(self: Any) -> int:
        rec.count("payload.checksum_calls")
        return span_checksum(self)

    @functools.wraps(add)
    def spanned_add(self: Any, payload: Any) -> None:
        # Token-plane folds are symbolic set unions, not payload kernels.
        if isinstance(payload, BytesPayload):
            span_add(self, payload)
        else:
            add(self, payload)

    patch(BytesPayload, "xor", counted_xor)
    patch(BytesPayload, "xor_into", counted_xor_into)
    patch(BytesPayload, "checksum", counted_checksum)
    patch(XorAccumulator, "add", spanned_add)

    # Rebind names a repro module imported with ``from ... import``.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and callable(value):
                setattr(module, attr, wrapper)

