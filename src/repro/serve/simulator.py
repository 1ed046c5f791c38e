"""The discrete-event core of the serving simulator.

:func:`serve` runs one online-serving experiment: a traffic pattern emits
requests, a router places each on a fleet replica, the replica's batching
policy folds its queue into single-model batches, and every batch's service
time/energy comes from the engine: each (model, replica kind, batch size)
shape goes through :func:`~repro.engine.resolve` once per run, and every
batch is one lookup in the run's own LRU-bounded
:class:`~repro.engine.ResultCache`, so repeated shapes simulate exactly once
per run.

Each dispatch additionally pays ``dispatch_overhead_seconds`` — the host-side
launch/weight-staging cost a real deployment amortises by batching.  Without
it the engine's linear batch scaling would make batching a no-op; with it,
larger batches trade queueing delay for sustained throughput, which is the
trade-off the schedulers exist to navigate.

One kernel (:class:`_Kernel`) runs the event loop under :func:`serve`,
:func:`~repro.serve.pipeline.serve_pipeline` and
:func:`~repro.serve.llm.serve_llm`.  It owns what the three share: the
run-parameter checks, the per-run result cache and report fold, one heap of
``(time, sequence, kind, payload)`` runtime events merged with the lazy
arrival stream, the observer's begin/tick/end calls and the report with its
config echo.  A simulator hands it an arrival hook plus one handler per
runtime event kind it schedules.  :class:`_Batching` is the pool side of
:func:`serve` and ``serve_pipeline``: replica pools (a fleet, its routing
index, an optional autoscaler, a stage name), the routing-estimate memo,
route → enqueue → dispatch → retire, autoscaling and the run-end flush, with
a per-batch ``complete`` hook, an optional ``admit`` hook for arrivals and
:meth:`_Batching.schedule` for pipeline hops.  ``serve_llm`` registers its
own chunk/step/gang/handoff handlers over its KV state.

Every random draw comes from the traffic pattern's seeded generator, so a
(traffic, fleet, policy, router, duration, seed) tuple maps to one bit-exact
:class:`ServeReport`.  An arrival runs before every runtime event at the same
time, and runtime events at one time run in the order they were scheduled,
so event ordering (ties included) is the one a single heap holding every
arrival, sequenced by request index below all runtime events, would give.

The loop *streams*: arrivals are pulled lazily from
:meth:`~repro.serve.traffic.TrafficPattern.iter_arrivals`, one at a time.
The one pending arrival waits beside the heap, which holds only in-flight
work, and every completed request goes to one
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
from typing import Callable, Iterable, Sequence

from repro.engine import ResultCache, RunResult, RunSpec, resolve
from repro.serve.batching import BatchPolicy, make_policy
from repro.serve.cluster import (
    Estimate,
    Fleet,
    LoadIndex,
    Replica,
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
#: realistic request index.  Loops that put arrivals on the heap sequenced
#: them by request index, so an arrival won every time tie;
#: :meth:`_Kernel.run` keeps that rule with the arrival off the heap.
RUNTIME_SEQUENCE_BASE = 2 ** 62


class _Pool:
    """One replica pool of a :class:`_Batching` run: its fleet, optional
    autoscaler, pipeline stage name (``None`` under :func:`serve`) and
    least-loaded routing index (set by :class:`_Batching` once the fleet is
    reset)."""

    __slots__ = ("fleet", "autoscaler", "stage", "index")

    def __init__(self, fleet: Fleet, autoscaler=None, stage: str | None = None):
        self.fleet = fleet
        self.autoscaler = autoscaler
        self.stage = stage
        self.index: LoadIndex | None = None


class _Kernel:
    """The event loop under :func:`serve`, ``serve_pipeline`` and
    ``serve_llm``.

    Construction validates the shared run parameters and opens the run's
    result cache and :class:`ReportAccumulator` (``llm`` adds the TTFT and
    TPOT summaries); :meth:`run` merges the arrival stream with the event
    heap until both are empty and :meth:`report` renders the finished run.
    Callers push runtime events onto :attr:`events`, sequenced by
    :attr:`sequence`, and hand each completed request to
    :attr:`accumulator`.  Arrivals never enter the heap: the one pending
    arrival runs before the heap's top whenever it is no later.
    """

    def __init__(self, traffic: TrafficPattern, *, duration: float, seed: int,
                 slo_seconds: float, cache: ResultCache | None,
                 percentiles: Sequence[float], summary: str, obs, label: str,
                 window_seconds: float | None = None, llm: bool = False):
        check_finite(duration=duration, slo_seconds=slo_seconds)
        if window_seconds is not None:
            check_finite(window_seconds=window_seconds)
        check_fractions("percentiles", percentiles)
        check_summary(summary)
        self.traffic = traffic
        self.duration = duration
        self.seed = seed
        self.cache = (ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
                      if cache is None else cache)
        self.obs = obs
        self.label = label
        self.offered = 0
        self.accumulator = ReportAccumulator(
            slo_seconds=slo_seconds, percentiles=percentiles,
            window_seconds=window_seconds, summary=summary, track_ttft=llm,
            track_tpot=llm)
        self.events: list[tuple[float, int, str, object]] = []
        self.sequence = itertools.count(RUNTIME_SEQUENCE_BASE)

    def run(self, replicas: Sequence,
            arrive: Callable[[Request, float, bool], None],
            handlers: dict[str, Callable[[object, float], None]],
            arrivals: Iterable[Request] | None = None) -> None:
        """Serve every arrival to completion.

        ``arrive(request, now, last)`` takes each arrival, ``last`` set on
        the final one; ``handlers[kind](payload, now)`` takes each runtime
        event.  Arrivals stream from the traffic pattern unless ``arrivals``
        already holds them.
        """

        events, obs, duration = self.events, self.obs, self.duration
        heappop = heapq.heappop
        if obs is not None:
            obs.begin_run(replicas, self.label)
        logger.info("%s: streaming arrivals over %.3fs to %d replica(s) "
                    "(summary=%s)", self.label, duration, len(replicas),
                    self.accumulator.summary)
        stream = (_iter_arrivals(self.traffic, duration, self.seed)
                  if arrivals is None else iter(arrivals))
        offered = 0
        tick = obs.event_tick if obs is not None else None
        # The one pending arrival waits beside the heap, not in it.  It runs
        # before the heap's top when it is no later: on the heap it would
        # have carried its request index as sequence, below every runtime
        # sequence (RUNTIME_SEQUENCE_BASE up), so it won every time tie too.
        upcoming = next(stream, None)
        while upcoming is not None or events:
            if upcoming is not None and (not events
                                         or upcoming.arrival <= events[0][0]):
                request, now = upcoming, upcoming.arrival
                if tick is not None:
                    tick(now)
                offered += 1
                upcoming = next(stream, None)
                arrive(request, now, upcoming is None)
            else:
                now, _, kind, payload = heappop(events)
                if tick is not None:
                    tick(now)
                handlers[kind](payload, now)
        self.offered = offered

    def report(self, config: dict[str, object], replicas: Sequence,
               **blocks) -> ServeReport:
        """Fold the finished run into its :class:`ServeReport`.

        ``config`` carries the caller's run description; the shared
        percentile, window and summary keys are appended here.  ``blocks``
        (``scale_events``, ``llm``, ``pipeline``) pass through to
        :meth:`ReportAccumulator.finalize`.
        """

        accumulator = self.accumulator
        if tuple(accumulator.percentiles) != DEFAULT_PERCENTILES:
            config["percentiles"] = sorted(set(accumulator.percentiles))
        if accumulator.window_seconds is not None:
            config["window_seconds"] = accumulator.window_seconds
        if accumulator.summary != "exact":
            config["summary"] = accumulator.summary
        report = accumulator.finalize(
            config, offered=self.offered, duration=self.duration,
            replicas=replicas, cache_stats=self.cache.stats(), **blocks)
        logger.info("%s: completed %d/%d requests, p99 %.4fs, throughput "
                    "%.1f rps", self.label, report.completed, report.offered,
                    report.latency.p99, report.throughput_rps)
        if self.obs is not None:
            self.obs.end_run(report)
        return report


class _Batching:
    """The pool side of :func:`serve` and ``serve_pipeline`` on a
    :class:`_Kernel`: routing, batch policies, dispatch, autoscaling and the
    run-end flush, as the kernel's arrival hook and its ``hop``, ``free``,
    ``poll``, ``scale`` and ``provision`` handlers."""

    def __init__(self, kernel: _Kernel, pools: Sequence[_Pool],
                 policy: BatchPolicy | str, router: Router | str,
                 dispatch_overhead_seconds: float):
        check_finite(dispatch_overhead_seconds=dispatch_overhead_seconds,
                     allow_zero=True)
        self.kernel = kernel
        self.pools = tuple(pools)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.router = make_router(router) if isinstance(router, str) else router
        self.overhead = dispatch_overhead_seconds
        self.events, self.sequence = kernel.events, kernel.sequence
        uses_index = getattr(self.router, "uses_load_index", False)
        for pool in self.pools:
            pool.fleet.reset()
            for replica in pool.fleet.replicas:
                replica.stage = pool.stage
            # Least-loaded routing goes through an incrementally maintained
            # backlog index instead of a per-arrival scan over the pool.
            pool.index = LoadIndex(pool.fleet.replicas) if uses_index else None

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
        kernel, pools, events, sequence = (self.kernel, self.pools, self.events,
                                           self.sequence)
        policy, router, cache, obs = self.policy, self.router, kernel.cache, kernel.obs
        duration, overhead = kernel.duration, self.overhead
        entry = pools[0] if entry is None else entry

        # Each (model, replica kind, batch size) shape is resolved once per
        # run, to its canonical spec and its target's simulator, shared by
        # the estimates and every dispatch of that shape; each still makes
        # its own cache lookup, so hits, misses and LRU order are
        # ``simulate``'s.  Replica kinds key as their (target, attention)
        # strings, which hash in C, where ``ReplicaSpec``'s generated hash
        # would run in Python on every lookup.
        shapes: dict[tuple[str, str, str | None, int],
                     tuple[RunSpec, Callable[[RunSpec], RunResult]]] = {}
        get_or_run = cache.get_or_run

        def run_shape(model: str, replica: Replica, size: int) -> RunResult:
            target, attention = replica.spec.target, replica.spec.attention
            key = (model, target, attention, size)
            shape = shapes.get(key)
            if shape is None:
                resolved, spec = resolve(RunSpec(model, target=target,
                                                 attention=attention,
                                                 batch_size=size))
                shape = shapes[key] = (spec, resolved.simulate)
            return get_or_run(*shape)

        # Routing estimates are memoised outside the result cache: one engine
        # simulation per (model, replica kind) for the whole run, and the
        # reported cache counters keep describing batch-dispatch reuse instead
        # of being swamped by per-arrival estimate lookups.
        estimates: dict[tuple[str, str, str | None], Estimate] = {}

        def estimate(model: str, replica: Replica) -> Estimate:
            key = (model, replica.spec.target, replica.spec.attention)
            cached = estimates.get(key)
            if cached is None:
                result = run_shape(model, replica, 1)
                cached = Estimate(overhead + result.end_to_end_latency,
                                  result.end_to_end_energy)
                estimates[key] = cached
            return cached

        exhausted = False                    # the last arrival has been taken

        def dispatch(slot: tuple[_Pool, Replica], now: float) -> None:
            # ``slot`` is the (pool, replica) pair its "free" and "poll"
            # events carry back here to re-evaluate it.
            pool, replica = slot
            # Nothing below toggles ``active``, so one read of the property
            # serves the whole call.  A draining replica flushes like a
            # run-end drain: it will never see another arrival, so holding
            # out for a fuller batch only delays its retirement (and the
            # requests already queued on it).
            active = replica.active
            draining = exhausted or not active
            while replica.busy_until <= now and replica.queue:
                batch = policy.take(replica.queue, now, draining=draining)
                if batch is None:
                    deadline = policy.deadline(replica.queue)
                    if deadline is not None and deadline > now:
                        heapq.heappush(events, (deadline, next(sequence), "poll",
                                                slot))
                    break
                # Batches are single-model, so one estimate prices every
                # request; subtracting it once per request keeps the float
                # operations that mirror enqueue's additions.
                model, size = batch[0].model, len(batch)
                latency = estimate(model, replica).latency_seconds
                for _ in batch:
                    replica.queued_seconds -= latency
                if not replica.queue:
                    replica.queued_seconds = 0.0    # shed float residue when empty
                result = run_shape(model, replica, size)
                service = overhead + result.end_to_end_latency
                finish = now + service
                replica.busy_until = finish
                replica.busy_seconds += service
                replica.energy_joules += result.end_to_end_energy
                replica.batches += 1
                replica.served += size
                if obs is not None:
                    obs.batch_dispatched(replica, batch, now, finish, pool.stage)
                complete(pool, replica, batch, now, finish)
                heapq.heappush(events, (finish, next(sequence), "free", slot))
                logger.debug("t=%.6f dispatch %s: %s x%d (service %.6fs, "
                             "%d queued)", now, replica.name, model, size,
                             service, len(replica.queue))
            if active:
                if pool.index is not None:
                    pool.index.update(replica, now)
            elif (replica.retired_at is None and not replica.queue
                    and replica.busy_until <= now):
                replica.retired_at = now
                if obs is not None:
                    obs.replica_retired(replica, now)
                logger.debug("t=%.6f retired %s", now, replica.name)

        def enqueue(target: tuple[_Pool, Request], now: float,
                    entered: bool = False) -> None:
            # ``target`` is the (pool, request) pair a "hop" event carries;
            # ``entered`` marks an arrival at the entry pool.
            pool, request = target
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
            # The index is not updated here: the dispatch below re-indexes
            # the replica at its end, and nothing reads the index in between.
            if obs is not None:
                obs.request_routed(request, replica, now, len(replica.queue),
                                   entry=entered)
            dispatch((pool, replica), now)

        def arrive(request: Request, now: float, last: bool) -> None:
            nonlocal exhausted
            exhausted = last
            enqueue((entry, request if admit is None else admit(request)), now,
                    True)
            if last:
                # Policies holding out for bigger batches will never see
                # another trigger, so flush every pool (hops arriving later
                # dispatch in draining mode).
                for pool in pools:
                    for other in pool.fleet.replicas:
                        dispatch((pool, other), now)

        def scale(pool: _Pool, now: float) -> None:
            scaler = pool.autoscaler
            additions, drained = scaler.check(now, pool.fleet)
            for _ in range(additions):
                heapq.heappush(events, (now + scaler.provision_seconds,
                                        next(sequence), "provision", pool))
            for replica in drained:
                if pool.index is not None:
                    pool.index.remove(replica)
                dispatch((pool, replica), now)   # flush or retire at once
            next_check = now + scaler.interval
            if next_check <= duration:
                heapq.heappush(events, (next_check, next(sequence), "scale",
                                        pool))

        def provision(pool: _Pool, now: float) -> None:
            replica = pool.autoscaler.provision(now, pool.fleet)
            replica.stage = pool.stage
            if pool.index is not None:
                pool.index.update(replica, now)

        for pool in pools:
            scaler = pool.autoscaler
            if scaler is not None:
                scaler.begin(pool.fleet, observer=obs)
                if scaler.interval <= duration:
                    heapq.heappush(events, (scaler.interval, next(sequence),
                                            "scale", pool))
        kernel.run(self.replicas(), arrive,
                   {"hop": enqueue, "free": dispatch, "poll": dispatch,
                    "scale": scale, "provision": provision})

    def report(self, config: dict[str, object],
               pipeline: dict[str, object] | None = None) -> ServeReport:
        """The kernel's report, with the pools' scale events."""

        scale_events = tuple(sorted(
            (event for pool in self.pools if pool.autoscaler is not None
             for event in pool.autoscaler.collect_events(pool.fleet)),
            key=lambda event: (event.time, event.action, event.replica)))
        return self.kernel.report(config, self.replicas(),
                                  scale_events=scale_events, pipeline=pipeline)


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

    kernel = _Kernel(traffic, duration=duration, seed=seed,
                     slo_seconds=slo_seconds, cache=cache,
                     percentiles=percentiles, window_seconds=window_seconds,
                     summary=summary, obs=obs, label="serve")
    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    batching = _Batching(kernel, [_Pool(fleet, autoscaler)], policy, router,
                         dispatch_overhead_seconds)
    accumulator = kernel.accumulator

    def complete(pool: _Pool, replica: Replica, batch: list[Request],
                 now: float, finish: float) -> None:
        for request in batch:
            accumulator.observe(request.model, request.arrival, now, finish,
                                request.index)

    batching.run(complete)
    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "fleet": fleet.describe(),
        "policy": batching.policy.to_dict(),
        "router": batching.router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    if autoscaler is not None:
        config["autoscaler"] = autoscaler.to_dict()
    return batching.report(config)


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
