"""Serving-run accounting and the JSON-serialisable ``ServeReport``.

Every serving loop hands each completed request to one
:class:`ReportAccumulator`, which folds them into a :class:`ServeReport`:
latency percentiles, throughput, SLO attainment, energy per request,
per-model, per-replica and per-window summaries, and the engine result-cache
traffic of the run.  The summary mode picks only the latency sample behind
the percentiles: ``"exact"`` keeps every value (:class:`ExactLatency`,
nearest-rank, so they are exact order statistics, not interpolations) and
``"streaming"`` folds P² sketches in bounded memory.  Everything is a plain
float/int/str structure, so ``to_json()`` of two identical runs is
bit-identical — the determinism contract the tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Sequence

from repro.engine import CacheStats
from repro.fold import left_sum

#: Latency quantiles every report carries (the pre-configurable-percentile
#: default — the JSON shape with exactly these is the backward-compatible one).
DEFAULT_PERCENTILES = (0.5, 0.95, 0.99)

#: Report summary modes: ``"exact"`` keeps every latency (nearest-rank
#: percentiles, O(requests) memory); ``"streaming"`` folds completions into
#: P² sketches (bounded memory, estimated quantiles).
SUMMARY_MODES = ("exact", "streaming")


def percentile_label(fraction: float) -> str:
    """The JSON key for one latency quantile (``0.999`` -> ``"p99.9"``)."""

    return f"p{fraction * 100:g}"


def check_summary(summary: str) -> None:
    """Reject unknown summary modes up front."""

    if summary not in SUMMARY_MODES:
        raise ValueError(f"summary must be one of {SUMMARY_MODES}, "
                         f"got {summary!r}")


def check_fractions(name: str, fractions: Sequence[float]) -> None:
    """Reject quantile fractions that are not finite and strictly inside
    (0, 1), and distinct fractions that share a :func:`percentile_label`;
    the error names the argument.  Unchecked, an exact-summary run meets a
    bad fraction only after the whole simulation, and a second fraction
    labelled ``"p99"`` overwrites the first in every report."""

    labelled: dict[str, float] = {}
    for fraction in fractions:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"{name} must be finite and in (0, 1), "
                             f"got {fraction!r}")
        label = percentile_label(fraction)
        first = labelled.setdefault(label, fraction)
        if first != fraction:
            raise ValueError(f"{name} {first!r} and {fraction!r} share the "
                             f"label {label!r}")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of a non-empty sample."""

    if not values:
        raise ValueError("percentile of an empty sample")
    return _nearest_rank(sorted(values), fraction)


def _nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` of an already sorted, non-empty sample."""

    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of one latency-like sample (seconds).

    p50/p95/p99 are always present (the backward-compatible JSON shape);
    any further quantiles requested through ``percentiles`` — p99.9 for tail
    SLOs, say — ride along in ``extras`` and serialise as additional
    ``"p99.9"``-style keys.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    extras: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, values: Sequence[float],
           percentiles: Sequence[float] = DEFAULT_PERCENTILES) -> "LatencySummary":
        extra_fractions = tuple(sorted(fraction for fraction in set(percentiles)
                                       if fraction not in DEFAULT_PERCENTILES))
        if not values:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0,
                       extras=tuple((percentile_label(fraction), 0.0)
                                    for fraction in extra_fractions))
        # One sort serves every quantile.
        ordered = sorted(values)
        return cls(count=len(values), mean=left_sum(values) / len(values),
                   p50=_nearest_rank(ordered, 0.50),
                   p95=_nearest_rank(ordered, 0.95),
                   p99=_nearest_rank(ordered, 0.99), max=max(values),
                   extras=tuple((percentile_label(fraction),
                                 _nearest_rank(ordered, fraction))
                                for fraction in extra_fractions))

    def quantile(self, fraction: float) -> float:
        """Look up one reported quantile (base or extra) by its fraction."""

        base = {0.5: self.p50, 0.95: self.p95, 0.99: self.p99}
        if fraction in base:
            return base[fraction]
        label = percentile_label(fraction)
        for key, value in self.extras:
            if key == label:
                return value
        raise KeyError(f"percentile {label} was not computed for this summary; "
                       f"request it via the percentiles knob")

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "count": self.count, "mean": self.mean, "p50": self.p50,
            "p95": self.p95, "p99": self.p99, "max": self.max}
        payload.update(self.extras)
        return payload


class ExactLatency:
    """Every value of one latency-like sample — ``summary="exact"``.

    The counterpart of :class:`~repro.obs.sketch.StreamingLatency`, with the
    same ``add`` / ``count`` / ``quantile`` / ``copy`` / ``summary`` surface:
    it keeps the values in the order they were added and summarises through
    :meth:`LatencySummary.of`, so its mean sums in that order and its
    quantiles are nearest-rank order statistics.
    """

    __slots__ = ("percentiles", "values")

    def __init__(self, percentiles: Sequence[float] = DEFAULT_PERCENTILES):
        self.percentiles = percentiles
        self.values: list[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def quantile(self, fraction: float) -> float:
        return percentile(self.values, fraction)

    def copy(self) -> "ExactLatency":
        twin = ExactLatency(self.percentiles)
        twin.values = self.values.copy()
        return twin

    def summary(self) -> LatencySummary:
        return LatencySummary.of(self.values, self.percentiles)


def latency_sample(summary: str,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES):
    """An empty latency sample for one summary mode: an
    :class:`ExactLatency`, or a :class:`~repro.obs.sketch.StreamingLatency`
    of P² sketches."""

    check_summary(summary)
    if summary == "exact":
        return ExactLatency(percentiles)
    # Imported lazily: the obs layer builds on serve.metrics, so the
    # module-level dependency must keep pointing obs -> serve.
    from repro.obs.sketch import StreamingLatency

    return StreamingLatency(percentiles)


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling action, timestamped for the report.

    ``action`` is one of ``"scale-up"`` (capacity requested), ``"online"``
    (provisioned replica joined the routing set), ``"drain"`` (replica marked
    inactive, queue still emptying) and ``"retired"`` (drained replica went
    idle with an empty queue).
    """

    time: float
    action: str
    replica: str = ""
    detail: str = ""

    def to_dict(self) -> dict[str, object]:
        return {"time": self.time, "action": self.action,
                "replica": self.replica, "detail": self.detail}


@dataclass(frozen=True)
class WindowReport:
    """One fixed-width time slice of the run — the resolution scale events
    become visible at (replica counts and tails move window to window)."""

    start: float
    end: float
    arrivals: int
    completed: int
    throughput_rps: float
    p99: float                          # of latencies completing in-window
    mean_active_replicas: float         # provisioned-lifetime overlap / width

    def to_dict(self) -> dict[str, object]:
        return {"start": self.start, "end": self.end, "arrivals": self.arrivals,
                "completed": self.completed, "throughput_rps": self.throughput_rps,
                "p99": self.p99, "mean_active_replicas": self.mean_active_replicas}


@dataclass(frozen=True)
class ReplicaReport:
    """One replica's share of the run."""

    name: str
    target: str
    attention: str | None
    requests: int
    batches: int
    busy_seconds: float
    utilization: float
    energy_joules: float
    started_at: float = 0.0
    retired_at: float | None = None
    #: LLM-serving extras (set only by :mod:`repro.serve.llm` runs, so classic
    #: ``serve`` reports keep their exact pre-existing JSON shape).
    role: str | None = None
    kv_capacity_tokens: int | None = None
    kv_peak_tokens: int | None = None
    decode_steps: int | None = None
    #: Pipeline stage this replica's pool serves (set only by
    #: :mod:`repro.serve.pipeline` runs; None keeps the classic JSON shape).
    stage: str | None = None

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "name": self.name, "target": self.target, "attention": self.attention,
            "requests": self.requests, "batches": self.batches,
            "busy_seconds": self.busy_seconds, "utilization": self.utilization,
            "energy_joules": self.energy_joules,
            "started_at": self.started_at, "retired_at": self.retired_at}
        if self.role is not None:
            payload.update({
                "role": self.role,
                "kv_capacity_tokens": self.kv_capacity_tokens,
                "kv_peak_tokens": self.kv_peak_tokens,
                "decode_steps": self.decode_steps})
        if self.stage is not None:
            payload["stage"] = self.stage
        return payload


@dataclass(frozen=True)
class ServeReport:
    """Everything one serving run produced, ready for JSON."""

    config: dict[str, object]
    offered: int
    completed: int
    duration: float
    makespan: float                     # max(duration, last completion time)
    throughput_rps: float               # completed / makespan
    latency: LatencySummary             # queue wait + service, per request
    queue_wait: LatencySummary
    mean_batch_size: float
    slo_seconds: float
    slo_violation_rate: float
    total_energy_joules: float
    energy_per_request_joules: float
    per_model: tuple[tuple[str, LatencySummary], ...]
    per_replica: tuple[ReplicaReport, ...]
    cache: CacheStats
    #: Provisioned capacity consumed: sum over replicas of their lifetime
    #: (static fleet: replicas x makespan; autoscaling exists to shrink it).
    replica_seconds: float = 0.0
    scale_events: tuple[ScaleEvent, ...] = field(default_factory=tuple)
    windows: tuple[WindowReport, ...] | None = None
    #: Autoregressive-serving phase latencies (set only by LLM runs —
    #: time-to-first-token and time-per-output-token; JSON shape is additive).
    ttft: LatencySummary | None = None
    tpot: LatencySummary | None = None
    #: Token/KV accounting block of an LLM run (scheduler, generated tokens,
    #: decode throughput, per-phase SLO attainment), None for classic runs.
    llm: dict[str, object] | None = None
    #: Multi-stage pipeline block (per-stage latency/SLO breakdown, handoff
    #: accounting), set only by :mod:`repro.serve.pipeline` runs.
    pipeline: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "config": self.config,
            "offered": self.offered,
            "completed": self.completed,
            "duration": self.duration,
            "makespan": self.makespan,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "mean_batch_size": self.mean_batch_size,
            "slo_seconds": self.slo_seconds,
            "slo_violation_rate": self.slo_violation_rate,
            "total_energy_joules": self.total_energy_joules,
            "energy_per_request_joules": self.energy_per_request_joules,
            "per_model": {model: summary.to_dict() for model, summary in self.per_model},
            "per_replica": [replica.to_dict() for replica in self.per_replica],
            "cache": self.cache.to_dict(),
            "replica_seconds": self.replica_seconds,
            "scale_events": [event.to_dict() for event in self.scale_events],
        }
        if self.windows is not None:
            payload["windows"] = [window.to_dict() for window in self.windows]
        if self.ttft is not None:
            payload["ttft"] = self.ttft.to_dict()
        if self.tpot is not None:
            payload["tpot"] = self.tpot.to_dict()
        if self.llm is not None:
            payload["llm"] = self.llm
        if self.pipeline is not None:
            payload["pipeline"] = self.pipeline
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary_row(self) -> dict[str, object]:
        """One flat row for markdown tables (CLI and experiment reports)."""

        row: dict[str, object] = {
            "requests": self.completed,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.latency.p50 * 1e3,
            "p95_ms": self.latency.p95 * 1e3,
            "p99_ms": self.latency.p99 * 1e3,
        }
        for label, value in self.latency.extras:
            row[f"{label}_ms"] = value * 1e3
        if self.ttft is not None and self.tpot is not None:
            row["ttft_p95_ms"] = self.ttft.p95 * 1e3
            row["tpot_p95_ms"] = self.tpot.p95 * 1e3
        row.update({
            "mean_batch": self.mean_batch_size,
            "slo_violation_rate": self.slo_violation_rate,
            "energy_per_request_mj": self.energy_per_request_joules * 1e3,
        })
        return row


def _window_count(makespan: float, window_seconds: float) -> int:
    """Number of fixed-width windows covering ``[0, makespan]``."""

    count = max(1, math.ceil(makespan / window_seconds))
    while (count - 1) * window_seconds >= makespan:
        count -= 1                 # float drift: never emit a zero-width sliver
    return count


class ReportAccumulator:
    """The one fold behind every :class:`ServeReport`.

    A serving loop calls :meth:`observe` once per completed request and
    :meth:`finalize` once at the end.  ``summary`` picks the latency sample
    behind every percentile, the per-model and the per-window ``p99`` ones
    included, and when observations fold:

    * ``"streaming"`` folds each completion as it happens into P² quantile
      sketches (:class:`repro.obs.sketch.StreamingLatency`) plus exact
      running count/mean/max and per-window counters, so memory is
      O(replicas + models + windows + percentiles) — independent of the
      number of requests.
    * ``"exact"`` holds every observation and folds them at :meth:`finalize`,
      in request-index order, into :class:`ExactLatency` samples: every mean
      sums in index order and every quantile is a nearest-rank order
      statistic.

    ``completed`` and ``last_completion`` count at :meth:`observe` in both
    modes, so they may be read before :meth:`finalize`.

    Streaming error bound: counts, means, maxima, throughput, SLO violation
    and energy figures stay *exact* (they are running sums); only the
    reported quantiles (``p50``/``p95``/``p99``/extras, per-model, per-window
    ``p99``) become P² estimates.  P² carries no worst-case guarantee, but on
    the smooth latency distributions the simulator produces the estimates
    track the nearest-rank statistics to within a few percent; the test
    suite pins a 15 % relative (plus half-millisecond absolute) envelope
    across Poisson, bursty, diurnal and LLM traffic
    (``tests/test_serve_scale.py``).
    """

    def __init__(self, *, slo_seconds: float,
                 percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                 window_seconds: float | None = None,
                 track_ttft: bool = False, track_tpot: bool = False,
                 summary: str = "streaming"):
        self._sample = partial(latency_sample, summary)
        self.summary = summary
        self.percentiles = percentiles
        self.slo_seconds = slo_seconds
        self.window_seconds = window_seconds
        self.latency = self._sample(percentiles)
        self.queue_wait = self._sample(percentiles)
        self.per_model: dict[str, object] = {}
        self.ttft = self._sample(percentiles) if track_ttft else None
        self.tpot = self._sample(percentiles) if track_tpot else None
        self.completed = 0
        self.violations = 0
        self.last_completion = 0.0
        # Exact mode holds observations here until finalize folds them.
        self._held: list[tuple] | None = [] if summary == "exact" else None
        # Set by the exact fold, which knows the makespan; a streaming fold
        # clamps nothing and folds overflow back when it renders.
        self._last_window = math.inf
        self._window_arrivals: list[int] = []
        self._window_completed: list[int] = []
        self._window_tails: list[object] = []

    def _window(self, time: float) -> int:
        bucket = min(int(time / self.window_seconds), self._last_window)
        while len(self._window_arrivals) <= bucket:
            self._window_arrivals.append(0)
            self._window_completed.append(0)
            self._window_tails.append(self._sample((0.99,)))
        return bucket

    def _add_model(self, model: str):
        """Start ``model``'s summary.  While one model has arrived its stream
        is the run-wide latency stream, so its summary *is* ``self.latency``;
        a second model gives the first a copy, taken before the new
        request's latency is folded."""

        per_model = self.per_model
        if not per_model:
            per_model[model] = self.latency
            return self.latency
        for name, summary in per_model.items():
            if summary is self.latency:
                per_model[name] = summary.copy()
        summary = per_model[model] = self._sample(self.percentiles)
        return summary

    def observe(self, model: str, arrival: float, dispatch: float,
                completion: float, index: int = 0, ttft: float | None = None,
                tpot: float | None = None) -> None:
        """Account one completed request.

        ``index`` orders the exact fold; ``ttft`` and ``tpot`` feed the LLM
        summaries (``tpot=None`` for a request with no decode step).
        """

        self.completed += 1
        if completion > self.last_completion:
            self.last_completion = completion
        held = self._held
        if held is not None:
            held.append((model, arrival, dispatch, completion, index, ttft, tpot))
            return
        latency = completion - arrival
        by_model = self.per_model.get(model)
        if by_model is None:
            by_model = self._add_model(model)
        if by_model is not self.latency:
            by_model.add(latency)
        self.latency.add(latency)
        self.queue_wait.add(dispatch - arrival)
        if latency > self.slo_seconds:
            self.violations += 1
        if ttft is not None:
            self.ttft.add(ttft)
        if tpot is not None:
            self.tpot.add(tpot)
        if self.window_seconds is not None:
            self._window_arrivals[self._window(arrival)] += 1
            bucket = self._window(completion)
            self._window_completed[bucket] += 1
            self._window_tails[bucket].add(latency)

    def _windows(self, replicas, makespan: float) -> tuple[WindowReport, ...]:
        """Slice the run into fixed-width windows (the last one may be
        partial)."""

        window_seconds = self.window_seconds
        count = _window_count(makespan, window_seconds)
        arrivals = self._window_arrivals[:count]
        completed = self._window_completed[:count]
        tails = self._window_tails[:count]
        arrivals += [0] * (count - len(arrivals))
        completed += [0] * (count - len(completed))
        tails += [self._sample((0.99,)) for _ in range(count - len(tails))]
        # A streamed completion exactly at makespan landed one bucket past
        # the last (partial) window; fold any overflow back.
        for bucket in range(count, len(self._window_completed)):
            arrivals[-1] += self._window_arrivals[bucket]
            completed[-1] += self._window_completed[bucket]
            overflow = self._window_tails[bucket]
            if overflow.count:
                tails[-1] = overflow if not tails[-1].count else tails[-1]
        windows = []
        for index in range(count):
            # Boundaries multiply rather than accumulate: repeated float
            # addition drifts below an exact multiple.
            start = index * window_seconds
            end = min(start + window_seconds, makespan)
            width = end - start
            # Provisioned replica-seconds overlapping [start, end).
            overlap = left_sum(
                max(0.0, min(replica.retired_at if replica.retired_at is not None
                             else makespan, end) - max(replica.started_at, start))
                for replica in replicas)
            windows.append(WindowReport(
                start=start, end=end, arrivals=arrivals[index],
                completed=completed[index],
                throughput_rps=completed[index] / width if width else 0.0,
                p99=tails[index].quantile(0.99) if completed[index] else 0.0,
                mean_active_replicas=overlap / width if width else 0.0))
        return tuple(windows)

    def finalize(self, config: dict[str, object], offered: int,
                 duration: float, replicas, cache_stats: CacheStats,
                 scale_events: Sequence[ScaleEvent] = (),
                 llm: dict[str, object] | None = None,
                 pipeline: dict[str, object] | None = None) -> ServeReport:
        """Fold what exact mode held and render the run's report through
        :func:`build_report`."""

        held, self._held = self._held, None
        if held:
            # Replay in request-index order, so every mean sums in that
            # order; the replay counts the completions again.  The makespan
            # is known now, so a completion exactly at it lands in the last
            # window.
            self.completed = 0
            if self.window_seconds is not None:
                makespan = max(duration, self.last_completion)
                self._last_window = _window_count(
                    makespan, self.window_seconds) - 1
            held.sort(key=itemgetter(4))
            for observation in held:
                self.observe(*observation)
        return build_report(self, config, offered=offered, duration=duration,
                            replicas=replicas, cache_stats=cache_stats,
                            scale_events=scale_events, llm=llm,
                            pipeline=pipeline)


def build_report(accumulator: ReportAccumulator, config: dict[str, object], *,
                 offered: int, duration: float, replicas,
                 cache_stats: CacheStats,
                 scale_events: Sequence[ScaleEvent] = (),
                 llm: dict[str, object] | None = None,
                 pipeline: dict[str, object] | None = None) -> ServeReport:
    """Render a folded accumulator and the replicas' accounting as a report.

    ``llm`` and ``pipeline`` are the LLM-serving and pipeline blocks
    (:mod:`repro.serve.llm` and :mod:`repro.serve.pipeline` pass them); left
    at ``None``, like an accumulator that tracks no TTFT/TPOT, the report's
    JSON shape is exactly the classic one.
    """

    completed = accumulator.completed
    makespan = max(duration, accumulator.last_completion)
    total_energy = left_sum(replica.energy_joules for replica in replicas)
    total_batches = sum(replica.batches for replica in replicas)
    ttft, tpot = accumulator.ttft, accumulator.tpot
    return ServeReport(
        config=config,
        offered=offered,
        completed=completed,
        duration=duration,
        makespan=makespan,
        throughput_rps=completed / makespan,
        latency=accumulator.latency.summary(),
        queue_wait=accumulator.queue_wait.summary(),
        mean_batch_size=completed / total_batches if total_batches else 0.0,
        slo_seconds=accumulator.slo_seconds,
        slo_violation_rate=(accumulator.violations / completed
                            if completed else 0.0),
        total_energy_joules=total_energy,
        energy_per_request_joules=total_energy / completed if completed else 0.0,
        per_model=tuple(sorted(((model, sample.summary())
                                for model, sample in accumulator.per_model.items()),
                               key=lambda entry: entry[0])),
        per_replica=tuple(
            ReplicaReport(
                name=replica.name, target=replica.spec.target,
                attention=replica.spec.attention, requests=replica.served,
                batches=replica.batches, busy_seconds=replica.busy_seconds,
                utilization=replica.busy_seconds / makespan,
                energy_joules=replica.energy_joules,
                started_at=replica.started_at, retired_at=replica.retired_at,
                role=getattr(replica, "role", None),
                kv_capacity_tokens=getattr(replica, "kv_capacity", None),
                kv_peak_tokens=getattr(replica, "kv_peak", None),
                decode_steps=getattr(replica, "decode_steps", None),
                stage=getattr(replica, "stage", None))
            for replica in replicas),
        cache=cache_stats,
        replica_seconds=left_sum(replica.lifetime_seconds(makespan)
                                 for replica in replicas),
        scale_events=tuple(scale_events),
        windows=(None if accumulator.window_seconds is None
                 else accumulator._windows(replicas, makespan)),
        ttft=None if ttft is None else ttft.summary(),
        tpot=None if tpot is None else tpot.summary(),
        llm=llm,
        pipeline=pipeline,
    )
