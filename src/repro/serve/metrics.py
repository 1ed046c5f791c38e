"""Per-request accounting and the JSON-serialisable ``ServeReport``.

The simulator records one :class:`RequestRecord` per served request; this
module folds those into a :class:`ServeReport`: latency percentiles
(nearest-rank, so they are exact order statistics, not interpolations),
throughput, SLO attainment, energy per request, per-model and per-replica
summaries, and the engine result-cache traffic of the run.  Everything is a
plain float/int/str structure, so ``to_json()`` of two identical runs is
bit-identical — the determinism contract the tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine import CacheStats

#: Latency quantiles every report carries (the pre-configurable-percentile
#: default — the JSON shape with exactly these is the backward-compatible one).
DEFAULT_PERCENTILES = (0.5, 0.95, 0.99)


def percentile_label(fraction: float) -> str:
    """The JSON key for one latency quantile (``0.999`` -> ``"p99.9"``)."""

    return f"p{fraction * 100:g}"


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one served request."""

    index: int
    model: str
    arrival: float
    replica: str
    batch_size: int
    dispatch: float
    completion: float

    @property
    def queue_wait(self) -> float:
        return self.dispatch - self.arrival

    @property
    def service(self) -> float:
        return self.completion - self.dispatch

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


def check_fractions(name: str, fractions: Sequence[float]) -> None:
    """Reject quantile fractions that are not finite and strictly inside
    (0, 1); the error names the argument.  Unchecked, an exact-summary run
    meets a bad fraction only after the whole simulation."""

    for fraction in fractions:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"{name} must be finite and in (0, 1), "
                             f"got {fraction!r}")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of a non-empty sample."""

    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
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
        return cls(count=len(values), mean=sum(values) / len(values),
                   p50=percentile(values, 0.50), p95=percentile(values, 0.95),
                   p99=percentile(values, 0.99), max=max(values),
                   extras=tuple((percentile_label(fraction),
                                 percentile(values, fraction))
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


def _replica_window_overlap(replicas, makespan: float, start: float,
                            end: float) -> float:
    """Provisioned replica-seconds overlapping one ``[start, end)`` window."""

    return sum(
        max(0.0, min(replica.retired_at if replica.retired_at is not None
                     else makespan, end) - max(replica.started_at, start))
        for replica in replicas)


def _replica_reports(replicas, makespan: float) -> tuple[ReplicaReport, ...]:
    """Each replica's share of the run, the same under either summary fold."""

    return tuple(
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
        for replica in replicas
    )


class ReportAccumulator:
    """Bounded-memory fold of a serving run — ``summary="streaming"``.

    The exact path keeps one :class:`RequestRecord` per request and computes
    nearest-rank order statistics at the end; this accumulator folds each
    completion as it happens into P² quantile sketches
    (:class:`repro.obs.sketch.StreamingLatency`) plus exact running
    count/mean/max, per-model sketches and per-window counters, so memory is
    O(replicas + models + windows + percentiles) — independent of the number
    of requests.

    Error bound: counts, means, maxima, throughput, SLO violation and energy
    figures stay *exact* (they are running sums); only the reported quantiles
    (``p50``/``p95``/``p99``/extras, per-model, per-window ``p99``) become P²
    estimates.  P² carries no worst-case guarantee, but on the smooth latency
    distributions the simulator produces the estimates track the nearest-rank
    statistics to within a few percent; the test suite pins a 15 % relative
    (plus half-millisecond absolute) envelope across Poisson, bursty, diurnal
    and LLM traffic (``tests/test_serve_scale.py``).
    """

    def __init__(self, *, slo_seconds: float,
                 percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                 window_seconds: float | None = None,
                 track_ttft: bool = False, track_tpot: bool = False):
        # Imported lazily: the obs layer builds on serve.metrics, so the
        # module-level dependency must keep pointing obs -> serve.
        from repro.obs.sketch import P2Quantile, StreamingLatency

        self._sketch = lambda: StreamingLatency(percentiles)
        self._window_p2 = P2Quantile
        self.slo_seconds = slo_seconds
        self.window_seconds = window_seconds
        self.latency = self._sketch()
        self.queue_wait = self._sketch()
        self.per_model: dict[str, object] = {}
        self.ttft = self._sketch() if track_ttft else None
        self.tpot = self._sketch() if track_tpot else None
        self.violations = 0
        self.last_completion = 0.0
        self._window_arrivals: list[int] = []
        self._window_completed: list[int] = []
        self._window_tails: list[object] = []

    def _window(self, time: float) -> int | None:
        if self.window_seconds is None:
            return None
        bucket = int(time / self.window_seconds)
        while len(self._window_arrivals) <= bucket:
            self._window_arrivals.append(0)
            self._window_completed.append(0)
            self._window_tails.append(self._window_p2(0.99))
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
        summary = per_model[model] = self._sketch()
        return summary

    def observe(self, model: str, arrival: float, dispatch: float,
                completion: float) -> None:
        """Fold one completed request into every running summary."""

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
        if completion > self.last_completion:
            self.last_completion = completion
        if self.window_seconds is not None:
            self._window_arrivals[self._window(arrival)] += 1
            bucket = self._window(completion)
            self._window_completed[bucket] += 1
            self._window_tails[bucket].add(latency)

    def _windows(self, replicas, makespan: float) -> tuple[WindowReport, ...]:
        window_seconds = self.window_seconds
        count = _window_count(makespan, window_seconds)
        arrivals = self._window_arrivals[:count]
        completed = self._window_completed[:count]
        tails = self._window_tails[:count]
        arrivals += [0] * (count - len(arrivals))
        completed += [0] * (count - len(completed))
        tails += [self._window_p2(0.99) for _ in range(count - len(tails))]
        # A completion exactly at makespan landed one bucket past the last
        # (partial) window; fold any overflow back, mirroring the exact path.
        for bucket in range(count, len(self._window_completed)):
            arrivals[-1] += self._window_arrivals[bucket]
            completed[-1] += self._window_completed[bucket]
            overflow = self._window_tails[bucket]
            if overflow.count:
                tails[-1] = overflow if not tails[-1].count else tails[-1]
        windows = []
        for index in range(count):
            start = index * window_seconds
            end = min(start + window_seconds, makespan)
            width = end - start
            overlap = _replica_window_overlap(replicas, makespan, start, end)
            windows.append(WindowReport(
                start=start, end=end, arrivals=arrivals[index],
                completed=completed[index],
                throughput_rps=completed[index] / width if width else 0.0,
                p99=tails[index].value if completed[index] else 0.0,
                mean_active_replicas=overlap / width if width else 0.0))
        return tuple(windows)

    def finalize(self, config: dict[str, object], offered: int,
                 duration: float, replicas, cache_stats: CacheStats,
                 scale_events: Sequence[ScaleEvent] = (),
                 llm: dict[str, object] | None = None,
                 pipeline: dict[str, object] | None = None) -> ServeReport:
        """Render the same :class:`ServeReport` shape :func:`build_report`
        produces, from the streamed state."""

        completed = self.latency.count
        makespan = max(duration, self.last_completion)
        total_energy = sum(replica.energy_joules for replica in replicas)
        total_batches = sum(replica.batches for replica in replicas)
        return ServeReport(
            config=config,
            offered=offered,
            completed=completed,
            duration=duration,
            makespan=makespan,
            throughput_rps=completed / makespan,
            latency=self.latency.summary(),
            queue_wait=self.queue_wait.summary(),
            mean_batch_size=completed / total_batches if total_batches else 0.0,
            slo_seconds=self.slo_seconds,
            slo_violation_rate=self.violations / completed if completed else 0.0,
            total_energy_joules=total_energy,
            energy_per_request_joules=(total_energy / completed
                                       if completed else 0.0),
            per_model=tuple(sorted(((model, sketch.summary())
                                    for model, sketch in self.per_model.items()),
                                   key=lambda entry: entry[0])),
            per_replica=_replica_reports(replicas, makespan),
            cache=cache_stats,
            replica_seconds=sum(replica.lifetime_seconds(makespan)
                                for replica in replicas),
            scale_events=tuple(scale_events),
            windows=(None if self.window_seconds is None
                     else self._windows(replicas, makespan)),
            ttft=None if self.ttft is None else self.ttft.summary(),
            tpot=None if self.tpot is None else self.tpot.summary(),
            llm=llm,
            pipeline=pipeline,
        )


def _build_windows(records: Sequence[RequestRecord], replicas, makespan: float,
                   window_seconds: float) -> tuple[WindowReport, ...]:
    """Slice the run into fixed-width windows (the last one may be partial)."""

    count = _window_count(makespan, window_seconds)

    def bucket(time: float) -> int:
        # A completion exactly at makespan belongs to the (partial) last
        # window, not a nonexistent one past it.
        return min(int(time / window_seconds), count - 1)

    arrivals = [0] * count
    latencies: list[list[float]] = [[] for _ in range(count)]
    for record in records:         # one pass, not one scan per window
        arrivals[bucket(record.arrival)] += 1
        latencies[bucket(record.completion)].append(record.latency)

    windows = []
    for index in range(count):
        # Boundaries multiply rather than accumulate: repeated float addition
        # drifts below an exact multiple.
        start = index * window_seconds
        end = min(start + window_seconds, makespan)
        width = end - start
        overlap = _replica_window_overlap(replicas, makespan, start, end)
        completed = latencies[index]
        windows.append(WindowReport(
            start=start, end=end, arrivals=arrivals[index],
            completed=len(completed),
            throughput_rps=len(completed) / width if width else 0.0,
            p99=percentile(completed, 0.99) if completed else 0.0,
            mean_active_replicas=overlap / width if width else 0.0))
    return tuple(windows)


def build_report(config: dict[str, object], records: Sequence[RequestRecord],
                 offered: int, duration: float, slo_seconds: float,
                 replicas, cache_stats: CacheStats,
                 percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                 scale_events: Sequence[ScaleEvent] = (),
                 window_seconds: float | None = None,
                 ttft_values: Sequence[float] | None = None,
                 tpot_values: Sequence[float] | None = None,
                 llm: dict[str, object] | None = None,
                 pipeline: dict[str, object] | None = None) -> ServeReport:
    """Fold raw request records and replica accounting into a report.

    ``ttft_values`` / ``tpot_values`` / ``llm`` are the LLM-serving extras
    (:mod:`repro.serve.llm` passes them); left at ``None`` the report's JSON
    shape is exactly the classic one.
    """

    latencies = [record.latency for record in records]
    waits = [record.queue_wait for record in records]
    makespan = max([duration] + [record.completion for record in records])
    completed = len(records)
    violations = sum(1 for latency in latencies if latency > slo_seconds)
    total_energy = sum(replica.energy_joules for replica in replicas)
    total_batches = sum(replica.batches for replica in replicas)

    by_model: dict[str, list[float]] = {}
    for record in records:
        by_model.setdefault(record.model, []).append(record.latency)

    return ServeReport(
        config=config,
        offered=offered,
        completed=completed,
        duration=duration,
        makespan=makespan,
        throughput_rps=completed / makespan,
        latency=LatencySummary.of(latencies, percentiles),
        queue_wait=LatencySummary.of(waits, percentiles),
        mean_batch_size=completed / total_batches if total_batches else 0.0,
        slo_seconds=slo_seconds,
        slo_violation_rate=violations / completed if completed else 0.0,
        total_energy_joules=total_energy,
        energy_per_request_joules=total_energy / completed if completed else 0.0,
        per_model=tuple(sorted(((model, LatencySummary.of(values, percentiles))
                                for model, values in by_model.items()),
                               key=lambda entry: entry[0])),
        per_replica=_replica_reports(replicas, makespan),
        cache=cache_stats,
        replica_seconds=sum(replica.lifetime_seconds(makespan)
                            for replica in replicas),
        scale_events=tuple(scale_events),
        windows=(None if window_seconds is None
                 else _build_windows(records, replicas, makespan, window_seconds)),
        ttft=(None if ttft_values is None
              else LatencySummary.of(ttft_values, percentiles)),
        tpot=(None if tpot_values is None
              else LatencySummary.of(tpot_values, percentiles)),
        llm=llm,
        pipeline=pipeline,
    )
