"""The discrete-event core of the serving simulator.

:func:`serve` runs one online-serving experiment: a traffic pattern emits
requests, a router places each on a fleet replica, the replica's batching
policy folds its queue into single-model batches, and every batch's service
time/energy comes from the engine (``simulate`` of a batched ``RunSpec``
through the run's own LRU-bounded :class:`~repro.engine.ResultCache`, so
repeated (model, batch-size) shapes simulate exactly once per run).

Each dispatch additionally pays ``dispatch_overhead_seconds`` — the host-side
launch/weight-staging cost a real deployment amortises by batching.  Without
it the engine's linear batch scaling would make batching a no-op; with it,
larger batches trade queueing delay for sustained throughput, which is the
trade-off the schedulers exist to navigate.

One kernel (:class:`_Kernel`) runs the event loop under both :func:`serve`
and :func:`~repro.serve.pipeline.serve_pipeline`: replica pools (a fleet,
its routing index, an optional autoscaler, a stage name) share one heap of
``(time, sequence, kind, payload)`` entries, and the kernel owns event
sequencing, the routing-estimate memo, route → enqueue → dispatch → retire,
autoscaling, the run-end flush and the report.  Callers plug in a
per-batch ``complete`` hook, an optional ``admit`` hook for arrivals, and
:meth:`_Kernel.schedule` for pipeline hops; :func:`serve` is the one-pool
caller whose hook observes the batch's requests.  ``serve_llm`` keeps its
own loop, whose chunk/step/gang events and KV state the kernel lacks.

Every random draw comes from the traffic pattern's seeded generator, so a
(traffic, fleet, policy, router, duration, seed) tuple maps to one bit-exact
:class:`ServeReport`.  Arrival events are sequenced by request index and all
runtime events from a disjoint higher range, so event ordering (ties
included) is identical whether arrivals are prefetched lazily or were all
pushed up front.

The loop *streams*: arrivals are pulled lazily from
:meth:`~repro.serve.traffic.TrafficPattern.iter_arrivals` (the heap holds
in-flight work plus exactly one future arrival, never the whole trace), and
every completed request goes to one
:class:`~repro.serve.metrics.ReportAccumulator`.  ``summary="streaming"``
folds it into bounded-memory P² sketches at once, making memory independent
of request count; the default ``summary="exact"`` keeps every observation
and folds them in request-index order at the end into nearest-rank order
statistics, bit-identical to the pre-streaming reports.

Fleets may be *dynamic*: pass an ``autoscaler`` (see
:mod:`repro.plan.autoscaler`) and the loop adds periodic ``"scale"`` control
events — the policy decides a desired replica count, scale-ups come online
``provision_seconds`` later (a ``"provision"`` event), and scale-downs drain:
the replica leaves the routing set at once but its queue keeps dispatching
(with the policy's drain flush) until it empties, at which point it retires.
Everything stays on the one event heap, so autoscaled runs are exactly as
deterministic as static ones.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from typing import Callable, Sequence

from repro.engine import ResultCache, RunSpec, simulate
from repro.serve.batching import BatchPolicy, make_policy
from repro.serve.cluster import (
    Estimate,
    Fleet,
    LoadIndex,
    Replica,
    ReplicaSpec,
    Router,
    make_router,
)
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    ReportAccumulator,
    ServeReport,
    check_fractions,
    check_summary,
)
from repro.serve.traffic import Request, TrafficPattern, check_finite
from repro.serve.traffic import iter_arrivals as _iter_arrivals

logger = logging.getLogger(__name__)

#: Default host-side cost of dispatching one batch to a replica (seconds).
DEFAULT_DISPATCH_OVERHEAD = 5e-4

#: Default latency SLO (seconds).
DEFAULT_SLO = 0.05

#: Default LRU bound of the per-run engine result cache.
DEFAULT_CACHE_ENTRIES = 1024

#: Runtime (non-arrival) events sequence from this base, far above any
#: realistic arrival index — arrival ties thus always beat runtime ties, the
#: exact ordering the historical push-everything-up-front loop produced.
RUNTIME_SEQUENCE_BASE = 2 ** 62


class _Pool:
    """One replica pool of a run: its fleet, optional autoscaler, pipeline
    stage name (``None`` under :func:`serve`) and least-loaded routing index
    (set by the kernel once the fleet is reset)."""

    __slots__ = ("fleet", "autoscaler", "stage", "index")

    def __init__(self, fleet: Fleet, autoscaler=None, stage: str | None = None):
        self.fleet = fleet
        self.autoscaler = autoscaler
        self.stage = stage
        self.index: LoadIndex | None = None


class _Kernel:
    """The event loop under :func:`serve` and ``serve_pipeline``.

    Construction validates the shared run parameters, resets every pool and
    opens the run; :meth:`run` drains the event heap and :meth:`report`
    folds the run into its :class:`ServeReport`.  Hooks hand each completed
    request to ``accumulator``.
    """

    def __init__(self, traffic: TrafficPattern, pools: Sequence[_Pool],
                 policy: BatchPolicy | str, router: Router | str, *,
                 duration: float, seed: int, slo_seconds: float,
                 dispatch_overhead_seconds: float, cache: ResultCache | None,
                 percentiles: Sequence[float], window_seconds: float | None,
                 summary: str, obs, label: str):
        check_finite(duration=duration, slo_seconds=slo_seconds)
        check_finite(dispatch_overhead_seconds=dispatch_overhead_seconds,
                     allow_zero=True)
        if window_seconds is not None:
            check_finite(window_seconds=window_seconds)
        check_summary(summary)
        self.traffic = traffic
        self.pools = tuple(pools)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.router = make_router(router) if isinstance(router, str) else router
        self.duration = duration
        self.seed = seed
        self.overhead = dispatch_overhead_seconds
        self.cache = (ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
                      if cache is None else cache)
        self.obs = obs
        self.label = label
        self.offered = 0
        self.accumulator = ReportAccumulator(
            slo_seconds=slo_seconds, percentiles=percentiles,
            window_seconds=window_seconds, summary=summary)
        self.events: list[tuple[float, int, str, object]] = []
        self.sequence = itertools.count(RUNTIME_SEQUENCE_BASE)
        uses_index = getattr(self.router, "uses_load_index", False)
        for pool in self.pools:
            pool.fleet.reset()
            for replica in pool.fleet.replicas:
                replica.stage = pool.stage
            # Least-loaded routing goes through an incrementally maintained
            # backlog index instead of a per-arrival scan over the pool.
            pool.index = LoadIndex(pool.fleet.replicas) if uses_index else None
        if obs is not None:
            obs.begin_run(self.replicas(), label)
        logger.info("%s: streaming arrivals over %.3fs (policy=%s router=%s "
                    "summary=%s)", label, duration, self.policy.name,
                    self.router.name, summary)

    def replicas(self) -> list[Replica]:
        """Every replica of the run, pool by pool."""

        return [replica for pool in self.pools for replica in pool.fleet.replicas]

    def schedule(self, time: float, pool: _Pool, request: Request) -> None:
        """Enqueue ``request`` on ``pool`` at ``time`` (a pipeline hop)."""

        heapq.heappush(self.events, (time, next(self.sequence), "hop",
                                     (pool, request)))

    def run(self, complete: Callable[..., None],
            admit: Callable[[Request], Request] | None = None,
            entry: _Pool | None = None) -> None:
        """Serve every arrival to completion.

        ``complete(pool, replica, batch, dispatch, finish)`` runs once per
        dispatched batch.  Each arrival is enqueued on ``entry`` (default:
        the first pool), rewritten by ``admit`` first when given.
        """

        # Locals, not attributes, on the per-event paths below.
        pools, events, sequence = self.pools, self.events, self.sequence
        policy, router, cache, obs = self.policy, self.router, self.cache, self.obs
        duration, overhead = self.duration, self.overhead
        entry = pools[0] if entry is None else entry

        # Routing estimates are memoised outside the result cache: one engine
        # simulation per (model, replica kind) for the whole run, and the
        # reported cache counters keep describing batch-dispatch reuse instead
        # of being swamped by per-arrival estimate lookups.
        estimates: dict[tuple[str, ReplicaSpec], Estimate] = {}

        def estimate(model: str, replica: Replica) -> Estimate:
            key = (model, replica.spec)
            cached = estimates.get(key)
            if cached is None:
                result = simulate(RunSpec(model, target=replica.spec.target,
                                          attention=replica.spec.attention),
                                  cache=cache)
                cached = Estimate(overhead + result.end_to_end_latency,
                                  result.end_to_end_energy)
                estimates[key] = cached
            return cached

        # Arrival events are sequenced by request index, runtime events from
        # RUNTIME_SEQUENCE_BASE up: the merged order (ties included) matches
        # the historical loop that pushed every arrival before any runtime
        # event.
        arrival_stream = _iter_arrivals(self.traffic, duration, self.seed)
        first = next(arrival_stream, None)
        exhausted = first is None
        if first is not None:
            events.append((first.arrival, first.index, "arrival", first))
        for pool in pools:
            scaler = pool.autoscaler
            if scaler is not None:
                scaler.begin(pool.fleet, observer=obs)
                if scaler.interval <= duration:
                    events.append((scaler.interval, next(sequence), "scale", pool))
        heapq.heapify(events)

        def dispatch(pool: _Pool, replica: Replica, now: float) -> None:
            # A draining replica flushes like a run-end drain: it will never
            # see another arrival, so holding out for a fuller batch only
            # delays its retirement (and the requests already queued on it).
            while replica.idle(now) and replica.queue:
                batch = policy.take(replica.queue, now,
                                    draining=(exhausted or not replica.active))
                if batch is None:
                    deadline = policy.deadline(replica.queue)
                    if deadline is not None and deadline > now:
                        heapq.heappush(events, (deadline, next(sequence), "poll",
                                                (pool, replica)))
                    break
                for request in batch:
                    replica.queued_seconds -= estimate(request.model,
                                                       replica).latency_seconds
                if not replica.queue:
                    replica.queued_seconds = 0.0    # shed float residue when empty
                spec = RunSpec(batch[0].model, target=replica.spec.target,
                               attention=replica.spec.attention,
                               batch_size=len(batch))
                result = simulate(spec, cache=cache)
                service = overhead + result.end_to_end_latency
                finish = now + service
                replica.busy_until = finish
                replica.busy_seconds += service
                replica.energy_joules += result.end_to_end_energy
                replica.batches += 1
                replica.served += len(batch)
                if obs is not None:
                    obs.batch_dispatched(replica, batch, now, finish, pool.stage)
                complete(pool, replica, batch, now, finish)
                heapq.heappush(events, (finish, next(sequence), "free",
                                        (pool, replica)))
                logger.debug("t=%.6f dispatch %s: %s x%d (service %.6fs, "
                             "%d queued)", now, replica.name, batch[0].model,
                             len(batch), service, len(replica.queue))
            if (not replica.active and replica.retired_at is None
                    and not replica.queue and replica.idle(now)):
                replica.retired_at = now
                if obs is not None:
                    obs.replica_retired(replica, now)
                logger.debug("t=%.6f retired %s", now, replica.name)
            if pool.index is not None and replica.active:
                pool.index.update(replica, now)

        def enqueue(pool: _Pool, request: Request, now: float,
                    entered: bool) -> None:
            index = pool.index
            if index is not None:
                replica = index.argmin(now)
                if replica is None:              # every replica is draining
                    replica = router.choose(pool.fleet.replicas, request.model,
                                            now, estimate)
            else:
                candidates = pool.fleet.active_replicas or pool.fleet.replicas
                replica = router.choose(candidates, request.model, now, estimate)
            replica.queue.append(request)
            replica.queued_seconds += estimate(request.model,
                                               replica).latency_seconds
            if index is not None and replica.active:
                index.update(replica, now)
            if obs is not None:
                obs.request_routed(request, replica, now, len(replica.queue),
                                   entry=entered)
            dispatch(pool, replica, now)

        offered = 0
        tick = obs.event_tick if obs is not None else None
        while events:
            now, _, kind, payload = heapq.heappop(events)
            if tick is not None:
                tick(now)
            if kind == "arrival":
                offered += 1
                upcoming = next(arrival_stream, None)
                if upcoming is None:
                    exhausted = True
                else:
                    heapq.heappush(events, (upcoming.arrival, upcoming.index,
                                            "arrival", upcoming))
                enqueue(entry, payload if admit is None else admit(payload),
                        now, True)
                if exhausted:
                    # Last arrival processed: policies holding out for bigger
                    # batches will never see another trigger, so flush every
                    # pool (hops arriving later dispatch in draining mode).
                    for pool in pools:
                        for other in pool.fleet.replicas:
                            dispatch(pool, other, now)
            elif kind == "hop":
                pool, request = payload
                enqueue(pool, request, now, False)
            elif kind == "scale":
                pool, scaler = payload, payload.autoscaler
                additions, drained = scaler.check(now, pool.fleet)
                for _ in range(additions):
                    heapq.heappush(events, (now + scaler.provision_seconds,
                                            next(sequence), "provision", pool))
                for replica in drained:
                    if pool.index is not None:
                        pool.index.remove(replica)
                    dispatch(pool, replica, now)     # flush or retire at once
                next_check = now + scaler.interval
                if next_check <= duration:
                    heapq.heappush(events, (next_check, next(sequence), "scale",
                                            pool))
            elif kind == "provision":
                pool = payload
                replica = pool.autoscaler.provision(now, pool.fleet)
                replica.stage = pool.stage
                if pool.index is not None:
                    pool.index.update(replica, now)
            else:                                    # "free" and "poll" re-evaluate
                pool, replica = payload
                dispatch(pool, replica, now)
        self.offered = offered

    def report(self, config: dict[str, object],
               pipeline: dict[str, object] | None = None) -> ServeReport:
        """Fold the finished run into its :class:`ServeReport`.

        ``config`` carries the caller's run description; the shared
        percentile, window and summary keys are appended here.
        """

        accumulator = self.accumulator
        if tuple(accumulator.percentiles) != DEFAULT_PERCENTILES:
            config["percentiles"] = sorted(set(accumulator.percentiles))
        if accumulator.window_seconds is not None:
            config["window_seconds"] = accumulator.window_seconds
        if accumulator.summary != "exact":
            config["summary"] = accumulator.summary
        scale_events = tuple(sorted(
            (event for pool in self.pools if pool.autoscaler is not None
             for event in pool.autoscaler.collect_events(pool.fleet)),
            key=lambda event: (event.time, event.action, event.replica)))
        report = accumulator.finalize(
            config, offered=self.offered, duration=self.duration,
            replicas=self.replicas(), cache_stats=self.cache.stats(),
            scale_events=scale_events, pipeline=pipeline)
        logger.info("%s: completed %d/%d requests, p99 %.4fs, throughput "
                    "%.1f rps", self.label, report.completed, report.offered,
                    report.latency.p99, report.throughput_rps)
        if self.obs is not None:
            self.obs.end_run(report)
        return report


def serve(traffic: TrafficPattern, fleet: Fleet | str,
          policy: BatchPolicy | str = "timeout", router: Router | str = "least-loaded",
          *, duration: float, seed: int = 0,
          slo_seconds: float = DEFAULT_SLO,
          dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
          cache: ResultCache | None = None,
          autoscaler=None,
          percentiles: Sequence[float] = DEFAULT_PERCENTILES,
          window_seconds: float | None = None,
          summary: str = "exact",
          obs=None) -> ServeReport:
    """Run one serving simulation and return its :class:`ServeReport`.

    ``fleet`` accepts a :class:`Fleet` or a spec string (``"2xvitality,1xgpu"``);
    ``policy`` and ``router`` accept built instances or registry names
    (``"fifo"`` / ``"size"`` / ``"timeout"``, ``"least-loaded"`` /
    ``"energy-aware"``).  A fresh LRU-bounded result cache is created unless
    one is passed in (pass one to share simulations across runs).

    ``autoscaler`` (a :class:`repro.plan.Autoscaler`) makes the fleet dynamic
    — its policy is consulted every ``interval`` seconds of simulated time and
    may add replicas (online after ``provision_seconds``) or drain them; the
    report then carries the scale events and per-replica lifetimes.
    ``percentiles`` adds latency quantiles beyond p50/p95/p99 (``0.999`` for
    p99.9); ``window_seconds`` adds per-window throughput/tail/replica-count
    rows so scale events are visible over time.

    ``summary`` selects the reporting fold: ``"exact"`` (default) keeps
    every latency and reports exact nearest-rank percentiles —
    bit-identical to historical reports; ``"streaming"`` folds completions
    into P² sketches as they happen, bounding memory at
    O(replicas + models + windows + percentiles) for arbitrarily long runs
    (quantiles become estimates — see
    :class:`~repro.serve.metrics.ReportAccumulator` for the error envelope).

    ``obs`` (a :class:`repro.obs.Observability`) attaches tracing, streaming
    metrics and/or progress reporting.  The hooks are pure observers: an
    instrumented run returns a bit-identical report, and ``obs=None`` (the
    default) skips every hook.
    """

    check_fractions("percentiles", percentiles)
    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    kernel = _Kernel(traffic, [_Pool(fleet, autoscaler)], policy, router,
                     duration=duration, seed=seed, slo_seconds=slo_seconds,
                     dispatch_overhead_seconds=dispatch_overhead_seconds,
                     cache=cache, percentiles=percentiles,
                     window_seconds=window_seconds, summary=summary, obs=obs,
                     label="serve")
    accumulator = kernel.accumulator

    def complete(pool: _Pool, replica: Replica, batch: list[Request],
                 now: float, finish: float) -> None:
        for request in batch:
            accumulator.observe(request.model, request.arrival, now, finish,
                                request.index)

    kernel.run(complete)
    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "fleet": fleet.describe(),
        "policy": kernel.policy.to_dict(),
        "router": kernel.router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    if autoscaler is not None:
        config["autoscaler"] = autoscaler.to_dict()
    return kernel.report(config)


def compare(traffic: TrafficPattern, fleets: dict[str, Fleet | str],
            policy: BatchPolicy | str = "timeout",
            router: Router | str = "least-loaded", *, duration: float,
            seed: int = 0, slo_seconds: float = DEFAULT_SLO,
            dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
            models: Sequence[str] | None = None,
            percentiles: Sequence[float] = DEFAULT_PERCENTILES,
            window_seconds: float | None = None,
            autoscaler=None,
            summary: str = "exact",
            obs=None) -> dict[str, ServeReport]:
    """Serve identical traffic on several fleets; one report per fleet.

    Every fleet sees the same arrival sequence (same traffic, duration and
    seed) and its own fresh replicas and cache, so reports differ only by the
    fleet under test — the setup behind the vanilla-vs-taylor serving tables.
    ``models``, when given, pre-warms each fleet's cache for those workloads.

    ``window_seconds``, ``autoscaler``, ``summary`` and ``obs`` thread
    straight through to each :func:`serve` run, so comparisons get windowed
    reports, dynamic fleets, streaming summaries and observability exactly
    like single runs do (one shared ``autoscaler``/``obs`` instance is reset
    by each run in turn, so per-fleet reports stay independent).
    """

    reports: dict[str, ServeReport] = {}
    for name, fleet_spec in fleets.items():
        fleet = Fleet.parse(fleet_spec) if isinstance(fleet_spec, str) else fleet_spec
        cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
        if models is not None:
            fleet.warmup(models, cache=cache)
        reports[name] = serve(
            traffic, fleet, policy, router, duration=duration, seed=seed,
            slo_seconds=slo_seconds,
            dispatch_overhead_seconds=dispatch_overhead_seconds, cache=cache,
            autoscaler=autoscaler, percentiles=percentiles,
            window_seconds=window_seconds, summary=summary, obs=obs)
    return reports
