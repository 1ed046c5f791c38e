"""Streaming quantile estimation: the P² sketch behind ``LatencySummary``.

The serving reports compute nearest-rank percentiles over the full latency
sample — exact, but O(n) memory, which is the wall the ROADMAP's
million-request item runs into.  :class:`P2Quantile` is Jain & Chlamtac's
P² algorithm: one quantile tracked with five markers in O(1) memory and O(1)
update time, exact until five observations arrive and a piecewise-parabolic
estimate afterwards.  :class:`StreamingLatency` bundles one sketch per
requested percentile plus exact count/mean/max and folds down to the same
:class:`~repro.serve.metrics.LatencySummary` the exact path produces; it is
what ``summary="streaming"`` serving runs and the metrics collector report.

The fold is buffered: :meth:`StreamingLatency.add` appends to a pending list
of at most :data:`FOLD_BUFFER` values, and a full list — or any read — folds
it through :meth:`P2Quantile.extend`, which keeps the marker state in locals
for the whole batch.  ``extend`` performs each value's P² update with the
same float operations in the same order as a per-value ``add``, so every
count, total, maximum and estimate is bit-identical to the one-value-at-a-time
fold however the stream is batched or read.
"""

from __future__ import annotations

import math
from copy import deepcopy
from typing import Iterable, Sequence

from repro.fold import left_sum
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    percentile_label,
)

#: Values :meth:`StreamingLatency.add` holds before folding them as a batch.
FOLD_BUFFER = 512


class P2Quantile:
    """One streaming quantile in O(1) memory (Jain & Chlamtac 1985).

    Five markers track the minimum, the quantile and the points halfway to
    each extreme; marker heights move by a piecewise-parabolic (P²) fit as
    observations arrive.  Updates are deterministic — the same value stream
    always yields the same estimate — which keeps traced runs bit-exact.
    """

    __slots__ = ("fraction", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, fraction: float):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        self._heights: list[float] = []          # marker heights q_i
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * fraction, 1.0 + 4.0 * fraction,
                         3.0 + 2.0 * fraction, 5.0]
        self._rates = [0.0, fraction / 2.0, fraction,
                       (1.0 + fraction) / 2.0, 1.0]

    @property
    def count(self) -> int:
        return (len(self._heights) if len(self._heights) < 5
                else int(self._positions[4]))

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order, exactly as one :meth:`add` per value.

        The marker state lives in locals for the whole batch and the three
        interior-marker adjustments are unrolled; every height, position and
        desired position sees the same float operations in the same order as
        the textbook per-value loop, so estimates are bit-identical however
        the stream is split into batches.
        """

        values = iter(values)
        heights = self._heights
        if len(heights) < 5:
            for value in values:           # exact sample until five arrive
                heights.append(value)
                heights.sort()
                if len(heights) == 5:
                    break
            else:
                return
        q0, q1, q2, q3, q4 = heights
        n0, n1, n2, n3, n4 = self._positions
        desired = self._desired
        d1, d2, d3, d4 = desired[1], desired[2], desired[3], desired[4]
        r1, r2, r3 = self._rates[1], self._rates[2], self._rates[3]
        for value in values:
            if value < q1:
                if value < q0:
                    q0 = value
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
                n4 += 1.0
            elif value < q2:
                n2 += 1.0
                n3 += 1.0
                n4 += 1.0
            elif value < q3:
                n3 += 1.0
                n4 += 1.0
            else:
                if value >= q4:
                    q4 = value
                n4 += 1.0
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += 1.0
            # Markers 1-3 in turn: when a marker drifts a whole position
            # from where it should be and has room, move it one position
            # along the P² parabola, or linearly if that leaves its
            # neighbours' bracket.
            drift = d1 - n1
            if (drift >= 1.0 and n2 - n1 > 1.0) \
                    or (drift <= -1.0 and n0 - n1 < -1.0):
                sign = 1.0 if drift >= 1.0 else -1.0
                candidate = q1 + sign / (n2 - n0) * (
                    (n1 - n0 + sign) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - sign) * (q1 - q0) / (n1 - n0))
                if q0 < candidate < q2:
                    q1 = candidate
                elif sign > 0.0:
                    q1 = q1 + sign * (q2 - q1) / (n2 - n1)
                else:
                    q1 = q1 + sign * (q0 - q1) / (n0 - n1)
                n1 += sign
            drift = d2 - n2
            if (drift >= 1.0 and n3 - n2 > 1.0) \
                    or (drift <= -1.0 and n1 - n2 < -1.0):
                sign = 1.0 if drift >= 1.0 else -1.0
                candidate = q2 + sign / (n3 - n1) * (
                    (n2 - n1 + sign) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - sign) * (q2 - q1) / (n2 - n1))
                if q1 < candidate < q3:
                    q2 = candidate
                elif sign > 0.0:
                    q2 = q2 + sign * (q3 - q2) / (n3 - n2)
                else:
                    q2 = q2 + sign * (q1 - q2) / (n1 - n2)
                n2 += sign
            drift = d3 - n3
            if (drift >= 1.0 and n4 - n3 > 1.0) \
                    or (drift <= -1.0 and n2 - n3 < -1.0):
                sign = 1.0 if drift >= 1.0 else -1.0
                candidate = q3 + sign / (n4 - n2) * (
                    (n3 - n2 + sign) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - sign) * (q3 - q2) / (n3 - n2))
                if q2 < candidate < q4:
                    q3 = candidate
                elif sign > 0.0:
                    q3 = q3 + sign * (q4 - q3) / (n4 - n3)
                else:
                    q3 = q3 + sign * (q2 - q3) / (n2 - n3)
                n3 += sign
        heights[:] = (q0, q1, q2, q3, q4)
        self._positions[1:] = (n1, n2, n3, n4)
        desired[1:] = (d1, d2, d3, d4)

    @property
    def value(self) -> float:
        """The current estimate (exact order statistic below five samples)."""

        heights = self._heights
        if not heights:
            return 0.0
        if len(heights) < 5:
            # Nearest-rank on the exact sample, matching metrics.percentile.
            rank = math.ceil(self.fraction * len(heights))
            return heights[max(0, min(len(heights), rank) - 1)]
        return heights[2]


class StreamingLatency:
    """Bounded-memory counterpart of :meth:`LatencySummary.of`.

    Feeds every requested percentile's :class:`P2Quantile` plus exact
    count/mean (Welford-free running sum is fine for latencies) and max, and
    renders the same :class:`LatencySummary` shape the exact path produces —
    estimates instead of order statistics, O(1) memory instead of O(n).

    :meth:`add` only appends to a pending list of at most
    :data:`FOLD_BUFFER` values; a full list, and every read, folds it into
    the running figures and each sketch's :meth:`P2Quantile.extend` in
    arrival order.
    """

    __slots__ = ("_sketches", "_pending", "_count", "_total", "_max")

    def __init__(self, percentiles: Sequence[float] = DEFAULT_PERCENTILES):
        fractions = tuple(sorted(set(percentiles) | set(DEFAULT_PERCENTILES)))
        self._sketches = {fraction: P2Quantile(fraction)
                          for fraction in fractions}
        self._pending: list[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def add(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= FOLD_BUFFER:
            self._flush()

    def _flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._count += len(pending)
        # One value at a time in arrival order, as an unbuffered add() would.
        self._total = left_sum(pending, self._total)
        # max() replaces only on a strict >, like a per-value update.
        self._max = max(self._max, *pending)
        for sketch in self._sketches.values():
            sketch.extend(pending)
        pending.clear()

    @property
    def count(self) -> int:
        self._flush()
        return self._count

    @property
    def total(self) -> float:
        self._flush()
        return self._total

    @property
    def max(self) -> float:
        self._flush()
        return self._max

    @property
    def fractions(self) -> tuple[float, ...]:
        """Every tracked quantile fraction, ascending (defaults included)."""

        return tuple(self._sketches)

    def quantile(self, fraction: float) -> float:
        self._flush()
        return self._sketches[fraction].value

    def copy(self) -> "StreamingLatency":
        """An independent summary holding everything added so far (pending
        values included)."""

        return deepcopy(self)

    def summary(self) -> LatencySummary:
        """Fold into the exact path's report type (same JSON keys)."""

        self._flush()
        sketches = self._sketches
        extras = tuple(
            (percentile_label(fraction), sketch.value)
            for fraction, sketch in sketches.items()
            if fraction not in DEFAULT_PERCENTILES)
        if not self._count:
            return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0,
                                  p99=0.0, max=0.0,
                                  extras=tuple((label, 0.0)
                                               for label, _ in extras))
        return LatencySummary(
            count=self._count, mean=self._total / self._count,
            p50=sketches[0.5].value, p95=sketches[0.95].value,
            p99=sketches[0.99].value, max=self._max, extras=extras)
