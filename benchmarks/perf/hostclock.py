"""Time a span of this thread in reference seconds, sampling the host inside it.

The host is shared, and other tenants slow it down in two ways, each by up
to 2x and for fractions of a second to minutes:

* they take the vCPU away.  The guest accounts that time as steal, and the
  thread's CPU time leaves it out;
* they make the vCPU run slower while it runs (shared cores and caches).
  CPU time does not leave this out.

So a span is timed in thread CPU time, and while it runs a profiling timer
interrupts it every ``SAMPLE_PERIOD_S`` of CPU time to time one *sample*: a
fixed loop of pure-Python work that never changes.  One more sample runs at
the end.  The span's own CPU time (without the samples) is scaled by the
loop's reference time over its mean sample, raised to the sample's
``exponent``.  A slow spell slows the samples taken inside the span along
with the span, and the scaling cancels it; a change to the program leaves
the samples alone and still shows.

How much a slow spell slows code depends on the code, so each workload
samples with the loop shaped like its hot path (``workloads.py``): the
event loops with ``HEAP``, the tile-level memory simulator with ``TILES``.
Even so, the event loops slow less than ``HEAP`` does: their CPU time goes
as the sample's time to the power 0.85, so that is ``HEAP``'s exponent.
README.md gives the measurements behind these choices.

The workloads run in the one thread of the process, so its CPU time is all
the work they do.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import time
from typing import Callable, NamedTuple

#: CPU seconds between two samples while a span runs.
SAMPLE_PERIOD_S = 0.04


class Sample(NamedTuple):
    """A sample loop, its median CPU seconds on the baseline host (2-vCPU
    x86 VM, Python 3.11.7) at light load, and the power of the sample's
    slowdown that the sampled code slows by."""

    work: Callable[[], object]
    reference_s: float
    exponent: float = 1.0


def heap_steps() -> float:
    """Heap, dict and float work, as in the serving event loops."""

    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    value = 0.0
    for step in range(2_000):
        heapq.heappush(heap, ((step * 7919) % 1009, step))
        table[step & 511] = value
        value = value * 0.5 + table.get((step * 31) & 511, 1.0)
        if len(heap) > 256:
            heapq.heappop(heap)
    return value


def _ceil_div(amount: int, rate: float) -> int:
    return math.ceil(amount / rate) if amount > 0 else 0


def tile_steps() -> int:
    """Int arithmetic and list appends over a tile pipeline, then passes
    over the lists, as in the tile-level memory simulator."""

    busy: list[int] = []
    fetch: list[int] = []
    flush: list[int] = []
    rows = [64] * 14 + [13]
    columns = [64] * 8
    depth = [64] * 12 + [7]
    moved = 0
    for row in rows:
        for column in columns:
            for index, inner in enumerate(depth):
                busy.append(math.ceil(row / 0.93))
                fetch.append(_ceil_div(inner * column, 2.5)
                             + _ceil_div(row * inner, 2.5))
                flush.append(_ceil_div(
                    row * column if index == len(depth) - 1 else 0, 2.5))
                moved += inner * column + row * inner
    waits = sum(max(0, fetch[i] - busy[i - 1]) for i in range(1, len(fetch)))
    waits += sum(max(0, flush[i] - busy[i + 1]) for i in range(len(flush) - 1))
    return moved + waits


HEAP = Sample(heap_steps, 0.0016, 0.85)
TILES = Sample(tile_steps, 0.0014)


class HostClock:
    """Times the span of a ``with`` block; see the module docstring."""

    def __init__(self, sample: Sample = HEAP, cpu_start: float | None = None):
        self.sample = sample
        #: Thread CPU time when the span began; when entered if not given.
        self.cpu_start = cpu_start
        #: CPU seconds of each sample.
        self.samples: list[float] = []
        self._sample_wall = 0.0
        #: Wall seconds of the span without the samples.
        self.wall_seconds = 0.0
        self.reference_seconds = 0.0

    def _sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        self.sample.work()
        self.samples.append(time.thread_time() - cpu)
        self._sample_wall += time.perf_counter() - wall
        if collecting:
            gc.enable()

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._wall_start = time.perf_counter()
        if self.cpu_start is None:
            self.cpu_start = time.thread_time()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        cpu = time.thread_time() - self.cpu_start - sum(self.samples)
        self.wall_seconds = (time.perf_counter() - self._wall_start
                             - self._sample_wall)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        slowdown = statistics.mean(self.samples) / self.sample.reference_s
        self.reference_seconds = cpu / slowdown ** self.sample.exponent
