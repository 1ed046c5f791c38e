"""The exact report fold against the per-request records fold it replaced.

Serving loops hand every completed request to one
:class:`~repro.serve.metrics.ReportAccumulator`.  Under ``summary="exact"``
it holds the observations and folds them at ``finalize`` in request-index
order.  The reference below is the earlier exact path, kept verbatim: one
:class:`RequestRecord` per request, sorted by index and folded by
:func:`build_report_from_records`, with :func:`_build_windows` clamping a
completion exactly at the makespan into the last window.  The accumulator
must render byte-identical JSON from the same requests, fed in any order.

:meth:`LatencySummary.of` sorts its sample once for every quantile; it is
held to the one-``percentile()``-call-per-quantile form it replaced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence

from hypothesis import example, given, settings, strategies as st

from repro.engine import CacheStats, ResultCache
from repro.serve import Fleet
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    ReplicaReport,
    ReportAccumulator,
    ScaleEvent,
    ServeReport,
    WindowReport,
    _window_count,
    percentile,
    percentile_label,
)


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


def _replica_window_overlap(replicas, makespan: float, start: float,
                            end: float) -> float:
    """Provisioned replica-seconds overlapping one ``[start, end)`` window."""

    return sum(
        max(0.0, min(replica.retired_at if replica.retired_at is not None
                     else makespan, end) - max(replica.started_at, start))
        for replica in replicas)


def _replica_reports(replicas, makespan: float) -> tuple[ReplicaReport, ...]:
    """Each replica's share of the run."""

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


def build_report_from_records(
        config: dict[str, object], records: Sequence[RequestRecord],
        offered: int, duration: float, slo_seconds: float, replicas,
        cache_stats: CacheStats,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
        scale_events: Sequence[ScaleEvent] = (),
        window_seconds: float | None = None,
        ttft_values: Sequence[float] | None = None,
        tpot_values: Sequence[float] | None = None,
        llm: dict[str, object] | None = None,
        pipeline: dict[str, object] | None = None) -> ServeReport:
    """Fold raw request records and replica accounting into a report."""

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


SLO = 0.1

#: One request: model, arrival as a fraction of the duration, queue wait,
#: service, TTFT, TPOT (None: no decode step) and whether its completion
#: snaps to exactly the makespan.
OBSERVATION = st.tuples(
    st.sampled_from(["deit-tiny", "levit-128", "decoder"]),
    st.floats(0.0, 0.6),
    st.floats(0.0, 0.1),
    st.floats(1e-4, 0.2),
    st.floats(1e-4, 0.05),
    st.one_of(st.none(), st.floats(1e-5, 0.01)),
    st.booleans(),
)

#: A completion at exactly 1.5 s ends the 0.5 s and 0.3 s windows' last one.
_EDGE = [("deit-tiny", 0.1, 0.01, 0.05, 0.01, None, False),
         ("levit-128", 0.2, 0.0, 0.02, 0.02, 0.001, True),
         ("deit-tiny", 0.5, 0.02, 0.1, 0.01, 0.002, False)]


def _replicas():
    replicas = Fleet.parse("2xvitality,1xgpu").replicas
    for ordinal, replica in enumerate(replicas, start=1):
        replica.busy_seconds = 0.1 * ordinal
        replica.energy_joules = 0.25 * ordinal
        replica.batches = 3 * ordinal
        replica.served = 5 * ordinal
    replicas[0].started_at = 0.2
    replicas[-1].retired_at = 0.7
    return replicas


@settings(max_examples=300, deadline=None)
@given(observations=st.lists(OBSERVATION, max_size=60),
       duration=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       window_seconds=st.sampled_from([None, 0.25, 0.3, 0.5]),
       percentiles=st.sampled_from([DEFAULT_PERCENTILES,
                                    (0.5, 0.95, 0.99, 0.999),
                                    (0.25, 0.999), (0.9,)]),
       order=st.randoms())
@example(observations=_EDGE, duration=1.5, window_seconds=0.5,
         percentiles=DEFAULT_PERCENTILES, order=random.Random(0))
@example(observations=_EDGE, duration=1.5, window_seconds=0.3,
         percentiles=(0.5, 0.95, 0.99, 0.999), order=random.Random(1))
def test_exact_fold_equals_the_records_fold(observations, duration,
                                            window_seconds, percentiles,
                                            order):
    rows = []
    for index, (model, start, wait, service, ttft, tpot, _) in enumerate(
            observations):
        arrival = start * duration
        dispatch = arrival + wait
        rows.append([index, model, arrival, dispatch, dispatch + service,
                     ttft, tpot])
    makespan = max([duration] + [row[4] for row in rows])
    for row, observation in zip(rows, observations):
        if observation[-1]:
            row[4] = makespan

    accumulator = ReportAccumulator(
        slo_seconds=SLO, percentiles=percentiles,
        window_seconds=window_seconds, track_ttft=True, track_tpot=True,
        summary="exact")
    shuffled = list(rows)
    order.shuffle(shuffled)
    for index, model, arrival, dispatch, completion, ttft, tpot in shuffled:
        accumulator.observe(model, arrival, dispatch, completion, index, ttft,
                            tpot)
    assert accumulator.completed == len(rows)
    assert accumulator.last_completion == max(
        [0.0] + [row[4] for row in rows])
    config = {"summary": "oracle"}
    cache_stats = ResultCache().stats()
    events = (ScaleEvent(0.5, "drain", "gpu#0"),)
    llm = {"scheduler": "continuous"}
    report = accumulator.finalize(
        dict(config), offered=len(rows) + 2, duration=duration,
        replicas=_replicas(), cache_stats=cache_stats, scale_events=events,
        llm=llm)

    records = [RequestRecord(index=index, model=model, arrival=arrival,
                             replica="vitality#0", batch_size=1,
                             dispatch=dispatch, completion=completion)
               for index, model, arrival, dispatch, completion, _, _ in rows]
    expected = build_report_from_records(
        dict(config), records, offered=len(rows) + 2, duration=duration,
        slo_seconds=SLO, replicas=_replicas(), cache_stats=cache_stats,
        percentiles=percentiles, scale_events=events,
        window_seconds=window_seconds,
        ttft_values=[row[5] for row in rows],
        tpot_values=[row[6] for row in rows if row[6] is not None], llm=llm)
    assert report.to_json() == expected.to_json()


# ------------------------------------------------ one sort per summary


def _per_fraction_summary(values: Sequence[float],
                          percentiles: Sequence[float]) -> LatencySummary:
    """``LatencySummary.of`` as it was: each quantile through its own
    :func:`percentile` call, and so its own sort."""

    extra_fractions = tuple(sorted(fraction for fraction in set(percentiles)
                                   if fraction not in DEFAULT_PERCENTILES))
    if not values:
        return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
                              max=0.0,
                              extras=tuple((percentile_label(fraction), 0.0)
                                           for fraction in extra_fractions))
    return LatencySummary(count=len(values), mean=sum(values) / len(values),
                          p50=percentile(values, 0.50),
                          p95=percentile(values, 0.95),
                          p99=percentile(values, 0.99), max=max(values),
                          extras=tuple((percentile_label(fraction),
                                        percentile(values, fraction))
                                       for fraction in extra_fractions))


#: Latencies with repeats, and both zeros, which compare equal but print apart.
LATENCY = st.one_of(st.floats(0.0, 10.0),
                    st.sampled_from([0.0, -0.0, 1e-3, 0.5, 2.0]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(LATENCY, max_size=120),
       extras=st.lists(st.one_of(st.floats(1e-6, 1 - 1e-6),
                                 st.sampled_from([0.25, 0.5, 0.999, 0.9999])),
                       max_size=4))
@example(values=[0.0, -0.0, 1e-3, 1e-3], extras=[0.25])
def test_summary_matches_the_per_fraction_percentiles(values, extras):
    percentiles = DEFAULT_PERCENTILES + tuple(extras)
    summary = LatencySummary.of(values, percentiles)
    expected = _per_fraction_summary(values, percentiles)
    assert summary == expected
    assert json.dumps(summary.to_dict()) == json.dumps(expected.to_dict())
