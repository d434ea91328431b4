"""A fixed pure-Python kernel that reads how fast the host runs right now.

The benchmark runs on a few shared vCPUs.  Each vCPU flips between a
fast and a slow state (the same loop runs about 1.6x slower in the slow
one) roughly once a second, independently of the other vCPU, and the
share of time spent slow drifts over minutes: the same chaos soak takes
0.46 s in one minute and 0.89 s in the next.  A run's median over many
passes absorbs the fast flips but not the drift, so raw times of the
same code minutes apart disagree by more than any useful bound.  CPU
time tracks wall time exactly here (no steal is reported), so it does
not help either.

So ``run.py`` pins itself and its workers to one CPU, and a worker asks
``run.py`` for a kernel read once it is ready for its first op and
after every op (:class:`Server`, :class:`Client`), blocking until the
reply, so the kernel never runs while an op is timed.  Each op's seconds
are divided by the mean of the reads around it (``normalised_ops``) and
multiplied by the calibration host's median read (``REFERENCE_S``):
seconds at the calibration host's speed.  The kernel is the benchmark's
own code and never calls the program, so a change to the program moves
a normalised time exactly as much as it moves the raw time; only the
host's state is divided out.

The kernel is the geometric mean of three loops that do what the
simulator's event loop spends its time on: heap pushes and pops of
tuples holding small objects, a pointer chase through a list far larger
than the caches, and attribute updates on objects picked at random from
a large pool.  Read in the same process on the same CPU, its log-time
tracks a chaos soak's with slope 0.88 (correlation 0.82); read on the
other vCPU it does not track it at all.  It runs in ``run.py``'s
process, never in the worker, so its data (about 50 MB) adds nothing to
the worker's ``peak_rss_mb``.

Reads taken inside an op (stopping the worker for them) were tried and
did not steady the slowest-op time further: the flips inside a
multi-second op average out differently from pass to pass, and no read
between ops can see that.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import random
import struct
import threading
import time
from math import fsum
from typing import Dict, List, Optional, Sequence, Tuple

#: Median read on the calibration host (benchmark_notes.json):
#: normalised times are in its seconds.
REFERENCE_S = 0.026

CHASE_SIZE = 1 << 20
POOL_SIZE = 1 << 17
STEPS = 30_000

#: Extra reads on each side of an op that ``normalised_ops`` averages.
WINDOW_SIDE = 2


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


class HostSpeed:
    """Holds the kernel's data (about 50 MB) so each read only runs loops."""

    def __init__(self) -> None:
        rng = random.Random(3)
        # Sattolo's shuffle: one cycle through every slot, so the chase
        # never settles into a short loop that fits in cache.
        self.chase: List[int] = list(range(CHASE_SIZE))
        for i in range(CHASE_SIZE - 1, 0, -1):
            j = rng.randrange(i)
            self.chase[i], self.chase[j] = self.chase[j], self.chase[i]
        self.pool = [_Item(i, 0) for i in range(POOL_SIZE)]
        self.picks = [rng.randrange(POOL_SIZE) for _ in range(STEPS)]
        # Keep the collector from rescanning the kernel's own data during
        # the churn loop.
        gc.freeze()

    @staticmethod
    def _churn() -> float:
        rng = random.Random(7)
        heap: List[tuple] = []
        table: Dict[int, int] = {}
        start = time.perf_counter()
        for i in range(STEPS):
            heapq.heappush(heap, (rng.random(), i, _Item(i, i * 2)))
            if len(heap) > 1000:
                _, key, item = heapq.heappop(heap)
                table[key % 5000] = item.a + item.b
        return time.perf_counter() - start

    def _chase(self) -> float:
        chase = self.chase
        at = 0
        start = time.perf_counter()
        for _ in range(2 * STEPS):
            at = chase[at]
        return time.perf_counter() - start

    def _update(self) -> float:
        pool = self.pool
        total = 0
        start = time.perf_counter()
        for pick in self.picks:
            item = pool[pick]
            item.b += 1
            total += item.a
        return time.perf_counter() - start

    def read(self) -> float:
        """The kernel's seconds now: geometric mean of the three loops."""
        return math.exp((math.log(self._churn()) + math.log(self._chase())
                         + math.log(self._update())) / 3.0)


_READ = struct.Struct("d")


class Server:
    """Answers one worker's read requests from a thread of this process.

    The worker writes one byte to ask and blocks until the reply (the
    kernel's seconds, a packed double) arrives, so the kernel and the
    worker never run at the same time.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self._asks_r, self.asks_w = os.pipe()
        self.replies_r, self._replies_w = os.pipe()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def child_fds(self) -> Tuple[int, int]:
        """The descriptors to hand the worker (``--host-speed-fds``)."""
        return self.asks_w, self.replies_r

    def started(self) -> None:
        """Call once the worker is spawned: drops this process's copies of
        the worker's ends, so its exit ends the serving loop."""
        os.close(self.asks_w)
        os.close(self.replies_r)
        self._thread.start()

    def _serve(self) -> None:
        while os.read(self._asks_r, 1):
            os.write(self._replies_w, _READ.pack(self.speed.read()))

    def close(self) -> None:
        """Call once the worker has ended (or failed to spawn)."""
        if self._thread.ident is None:
            os.close(self.asks_w)
            os.close(self.replies_r)
        else:
            self._thread.join()
        os.close(self._asks_r)
        os.close(self._replies_w)


class Client:
    """A worker's end of a :class:`Server`."""

    def __init__(self, fds: Optional[str]) -> None:
        self._fds = tuple(int(fd) for fd in fds.split(",")) if fds else None

    def read(self) -> Optional[float]:
        if self._fds is None:
            return None
        asks, replies = self._fds
        os.write(asks, b"r")
        data = b""
        while len(data) < _READ.size:
            chunk = os.read(replies, _READ.size - len(data))
            if not chunk:
                raise OSError("host-speed server went away")
            data += chunk
        return _READ.unpack(data)[0]


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel reads ``before`` and ``after``,
    in seconds at the calibration host's speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


def normalised_ops(seconds: Sequence[float], reads: Sequence[float]) -> List[float]:
    """Back-to-back ops' seconds at the calibration host's speed.

    ``reads[i + 1]`` and ``reads[i + 2]`` bracket op ``i``.  One read is
    noisy: the host flips between a fast and a slow state about once a
    second, and a 0.1 s read can catch either.  So each op is divided by
    the mean of the two reads that bracket it and ``WINDOW_SIDE`` more on
    each side; on the calibration host this cut the pass-to-pass spread
    (IQR / median) of the slowest op from 0.22 to 0.15 on dfsio and from
    0.10 to 0.03 on recovery, against the bracketing pair alone.
    """
    out = []
    for i, value in enumerate(seconds):
        window = reads[max(0, i + 1 - WINDOW_SIDE):i + 3 + WINDOW_SIDE]
        out.append(value * REFERENCE_S * len(window) / fsum(window))
    return out
