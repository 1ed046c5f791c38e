"""Multi-stage request DAGs: RAG-style pipeline serving.

A :class:`PipelineSpec` names a DAG of stages, each serving one (possibly
configured) workload on its own replica pool — retrieval→generation chains,
encoder/reranker mixes, cascade draft→verify.  :func:`serve_pipeline` runs
the discrete-event simulation: every request enters at the entry stage,
queues and batches on that stage's pool, then *hops* — after a fixed
handoff delay — to a successor stage drawn from the stage's routing table,
until it exits.  Probabilistic routes model cascades (a draft stage exits
with the seeded acceptance probability and escalates to the verifier
otherwise); deterministic routes model linear chains, spelled with the arrow
grammar::

    rag = encoder[tokens=512] -> rerank:encoder[tokens=128] -> deit-tiny

The event loop is the one :func:`~repro.serve.serve` runs (the kernel in
:mod:`repro.serve.simulator`), with one batching pool per stage: routing,
batching, dispatch, per-stage autoscaling, the run-end flush and the report
fold are shared.  This module adds only what a pipeline means — the spec,
per-stage statistics, the seeded route draw after each batch, the hop to the
next stage's pool and the ``pipeline`` report block.  Pools may be different
hardware kinds, so the whole run is a tandem queueing network;
:mod:`repro.plan.queueing` carries the matching analytic composition and
``plan_pipeline_capacity`` sizes all pools jointly.

Determinism contract: arrivals come from the traffic pattern's seeded
stream, route draws come from one dedicated generator seeded from the run
seed and consumed in event order — identical under ``summary="exact"`` and
``"streaming"`` — so a (traffic, pipeline, pools, policy, router, duration,
seed) tuple maps to one bit-exact :class:`ServeReport`.  The report is the
classic shape plus an additive ``pipeline`` block (per-stage latency/SLO
breakdown, handoff accounting); per-request end-to-end latency spans
arrival at the entry stage to completion at the exit stage, and the report's
``queue_wait`` is the *sum* of the request's per-stage queue waits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.engine import ResultCache
from repro.fold import left_sum
from repro.serve.batching import BatchPolicy
from repro.serve.cluster import Fleet, Replica, Router
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    ServeReport,
    latency_sample,
)
from repro.serve.simulator import (
    DEFAULT_DISPATCH_OVERHEAD,
    DEFAULT_SLO,
    _Batching,
    _Kernel,
    _Pool,
)
from repro.serve.traffic import (
    Request,
    TrafficPattern,
    _check_workload_name,
    check_finite,
)

#: Default stage-to-stage handoff delay (seconds): the host-side cost of
#: shipping one request's intermediate state to the next stage's pool.
DEFAULT_STAGE_HANDOFF = 1e-3

#: Replica-index stride between stage pools: keeps ``replica.index`` globally
#: unique across one run's pools (observability thread ids and LoadIndex
#: entries key on it) with plenty of headroom for autoscaled additions.
_STAGE_INDEX_STRIDE = 1024


class StageRoute(NamedTuple):
    """One outgoing edge of a stage: successor name (``None`` = exit the
    pipeline) and the probability this request takes it."""

    to: str | None
    probability: float


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a name, the workload it serves, and its routes.

    ``routes`` empty means the stage is terminal (every request exits with
    probability 1); otherwise the probabilities must sum to 1.
    """

    name: str
    model: str
    routes: tuple[StageRoute, ...] = ()

    def exit_probability(self) -> float:
        """Probability a request leaving this stage exits the pipeline."""

        if not self.routes:
            return 1.0
        return left_sum(route.probability for route in self.routes
                        if route.to is None)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "model": self.model,
                "routes": [{"to": route.to, "probability": route.probability}
                           for route in (self.routes or
                                         (StageRoute(None, 1.0),))]}


@dataclass(frozen=True)
class PipelineSpec:
    """A validated DAG of :class:`PipelineStage`s with one entry point.

    Construction validates everything the simulator would otherwise trip
    over mid-run: stage names are unique, every stage's workload resolves
    through the knob grammar (errors name the offending stage), route
    targets exist, per-stage route probabilities are positive and sum to 1,
    the graph is acyclic, and every stage is reachable from ``entry``.
    """

    name: str
    stages: tuple[PipelineStage, ...]
    entry: str

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError(f"pipeline {self.name!r} needs at least one stage")
        names = [stage.name for stage in self.stages]
        seen: set[str] = set()
        for stage_name in names:
            if stage_name in seen:
                raise ValueError(f"pipeline {self.name!r} has duplicate stage "
                                 f"name {stage_name!r}; label stages "
                                 f"explicitly ('rerank:encoder[tokens=128]')")
            seen.add(stage_name)
        if self.entry not in seen:
            raise ValueError(f"pipeline {self.name!r} entry {self.entry!r} "
                             f"names no stage (stages: {', '.join(names)})")
        for stage in self.stages:
            _check_workload_name(
                stage.model, f"pipeline {self.name!r} stage {stage.name!r}")
            if stage.routes:
                total = 0.0
                for route in stage.routes:
                    if route.to is not None and route.to not in seen:
                        raise ValueError(
                            f"pipeline {self.name!r} stage {stage.name!r} "
                            f"routes to unknown stage {route.to!r}")
                    if route.probability <= 0:
                        raise ValueError(
                            f"pipeline {self.name!r} stage {stage.name!r} "
                            f"route probability must be positive, "
                            f"got {route.probability}")
                    total += route.probability
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"pipeline {self.name!r} stage {stage.name!r} route "
                        f"probabilities must sum to 1, got {total}")
        self.topological()                   # raises on cycles
        reachable = self._reachable()
        unreachable = [n for n in names if n not in reachable]
        if unreachable:
            raise ValueError(f"pipeline {self.name!r} stages "
                             f"{', '.join(repr(n) for n in unreachable)} are "
                             f"unreachable from entry {self.entry!r}")

    # -------------------------------------------------------------- grammar

    @classmethod
    def parse(cls, text: str) -> "PipelineSpec":
        """Parse the arrow grammar: ``"rag = encoder[tokens=512] ->
        rerank:encoder[tokens=128] -> deit-tiny"``.

        The leading ``name =`` is optional (default ``"pipeline"``); each
        stage is ``[label:]model`` where the model may carry knobs and the
        label defaults to the model's family name.  Arrow chains are linear;
        build branching DAGs (cascades) via :meth:`cascade` or the
        constructor.
        """

        eq, bracket = text.find("="), text.find("[")
        if eq != -1 and (bracket == -1 or eq < bracket):
            name, body = text[:eq].strip(), text[eq + 1:]
        else:
            name, body = "pipeline", text
        if not name:
            raise ValueError(f"empty pipeline name in {text!r}")
        parts = [part.strip() for part in body.split("->")]
        if not all(parts):
            raise ValueError(f"empty stage in pipeline spec {text!r}")
        labelled: list[tuple[str, str]] = []
        for part in parts:
            bracket, colon = part.find("["), part.find(":")
            if colon != -1 and (bracket == -1 or colon < bracket):
                label, model = part[:colon].strip(), part[colon + 1:].strip()
            else:
                model = part
                label = (part[:bracket] if bracket != -1 else part).strip()
            if not label or not model:
                raise ValueError(f"malformed stage {part!r} in pipeline "
                                 f"spec {text!r}")
            labelled.append((label, model))
        labels = [label for label, _ in labelled]
        stages = tuple(
            PipelineStage(label, model,
                          routes=(() if position == len(labelled) - 1
                                  else (StageRoute(labels[position + 1], 1.0),)))
            for position, (label, model) in enumerate(labelled))
        return cls(name, stages, entry=labels[0])

    @classmethod
    def cascade(cls, name: str, draft: str, verify: str,
                acceptance_rate: float, *, draft_name: str = "draft",
                verify_name: str = "verify") -> "PipelineSpec":
        """A two-stage draft→verify cascade: requests exit at the draft
        stage with probability ``acceptance_rate`` and escalate to the
        verify stage otherwise."""

        if not 0.0 < acceptance_rate < 1.0:
            raise ValueError(f"acceptance_rate must be in (0, 1), "
                             f"got {acceptance_rate}")
        stages = (
            PipelineStage(draft_name, draft, routes=(
                StageRoute(None, acceptance_rate),
                StageRoute(verify_name, 1.0 - acceptance_rate))),
            PipelineStage(verify_name, verify),
        )
        return cls(name, stages, entry=draft_name)

    # ------------------------------------------------------------- topology

    def stage(self, name: str) -> PipelineStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline {self.name!r} has no stage {name!r}")

    def topological(self) -> tuple[PipelineStage, ...]:
        """The stages in topological order (definition order breaks ties);
        raises ``ValueError`` on a routing cycle."""

        indegree = {stage.name: 0 for stage in self.stages}
        for stage in self.stages:
            for route in stage.routes:
                if route.to is not None:
                    indegree[route.to] += 1
        ready = [stage for stage in self.stages if indegree[stage.name] == 0]
        order: list[PipelineStage] = []
        while ready:
            stage = ready.pop(0)
            order.append(stage)
            for route in stage.routes:
                if route.to is None:
                    continue
                indegree[route.to] -= 1
                if indegree[route.to] == 0:
                    ready.append(self.stage(route.to))
        if len(order) != len(self.stages):
            cyclic = sorted(name for name, degree in indegree.items()
                            if degree > 0)
            raise ValueError(f"pipeline {self.name!r} has a routing cycle "
                             f"through {', '.join(repr(n) for n in cyclic)}")
        return tuple(order)

    def _reachable(self) -> set[str]:
        frontier, reachable = [self.entry], {self.entry}
        while frontier:
            stage = self.stage(frontier.pop())
            for route in stage.routes:
                if route.to is not None and route.to not in reachable:
                    reachable.add(route.to)
                    frontier.append(route.to)
        return reachable

    def visit_ratios(self) -> dict[str, float]:
        """Expected visits per entering request, stage by stage.

        The tandem-queue composition: the entry stage sees every request;
        downstream stages see the sum over predecessors of (predecessor
        visits × branch probability).  Acyclicity makes one topological
        pass exact.
        """

        visits = {stage.name: 0.0 for stage in self.stages}
        visits[self.entry] = 1.0
        for stage in self.topological():
            for route in stage.routes:
                if route.to is not None:
                    visits[route.to] += visits[stage.name] * route.probability
        return visits

    def expected_handoffs(self) -> float:
        """Expected stage-to-stage hops per request (each pays the handoff
        delay once)."""

        visits = self.visit_ratios()
        return left_sum(visits[stage.name] * (1.0 - stage.exit_probability())
                        for stage in self.stages)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "entry": self.entry,
                "stages": [stage.to_dict() for stage in self.stages]}


class _Flight:
    """Mutable per-request traversal state (index → flight while in flight)."""

    __slots__ = ("arrival", "queue_wait")

    def __init__(self, arrival: float):
        self.arrival = arrival
        self.queue_wait = 0.0


class _StageStats:
    """Per-stage request accounting: latency, queue-wait and service samples
    of the run's summary mode, added in completion order, and an SLO
    counter that is exact in both modes."""

    def __init__(self, summary: str, percentiles: Sequence[float],
                 slo_seconds: float | None):
        self.slo_seconds = slo_seconds
        self.count = 0
        self.violations = 0
        self.latency, self.wait, self.service = (
            latency_sample(summary, percentiles) for _ in range(3))

    def observe(self, wait: float, service: float) -> None:
        latency = wait + service
        self.count += 1
        if self.slo_seconds is not None and latency > self.slo_seconds:
            self.violations += 1
        self.latency.add(latency)
        self.wait.add(wait)
        self.service.add(service)

    def summaries(self) -> tuple[LatencySummary, LatencySummary, LatencySummary]:
        return self.latency.summary(), self.wait.summary(), self.service.summary()


class _Stage(_Pool):
    """One stage's kernel pool plus its spec, request stats and routes."""

    __slots__ = ("spec", "stats", "successors")

    def __init__(self, spec: PipelineStage, fleet: Fleet, autoscaler,
                 stats: _StageStats):
        super().__init__(fleet, autoscaler, spec.name)
        self.spec = spec
        self.stats = stats
        self.successors = spec.routes or (StageRoute(None, 1.0),)


def _stage_pool(pool: "Fleet | str", ordinal: int, stage_name: str) -> Fleet:
    """Build a stage's pool with globally unique replica indices/names."""

    base = ordinal * _STAGE_INDEX_STRIDE
    prefix = f"{stage_name}/"
    if isinstance(pool, Fleet):
        return Fleet(pool.replica_specs, index_base=base, name_prefix=prefix)
    return Fleet.parse(pool, index_base=base, name_prefix=prefix)


def serve_pipeline(traffic: TrafficPattern, pipeline: "PipelineSpec | str",
                   pools: "dict[str, Fleet | str]",
                   policy: BatchPolicy | str = "timeout",
                   router: Router | str = "least-loaded", *,
                   duration: float, seed: int = 0,
                   slo_seconds: float = DEFAULT_SLO,
                   stage_slo_seconds: "dict[str, float] | None" = None,
                   handoff_seconds: float = DEFAULT_STAGE_HANDOFF,
                   dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                   cache: ResultCache | None = None,
                   autoscalers: "dict[str, object] | None" = None,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                   window_seconds: float | None = None,
                   summary: str = "exact",
                   obs=None) -> ServeReport:
    """Serve a multi-stage pipeline and return its :class:`ServeReport`.

    ``traffic`` supplies arrival times (and request indices) only — each
    stage serves its *own* workload, so the mix's model names are ignored.
    ``pools`` maps every stage name to its replica pool (a :class:`Fleet` or
    a ``"2xvitality"``-style spec string); stages may run different hardware
    kinds.  ``stage_slo_seconds`` optionally attaches per-stage latency SLOs
    (reported in the ``pipeline`` block); ``slo_seconds`` stays the
    end-to-end SLO.  ``autoscalers`` maps stage names to per-stage
    :class:`repro.plan.Autoscaler` instances (one instance per stage — they
    carry per-fleet state).

    The report is the classic :class:`ServeReport` shape — latency is
    end-to-end (entry arrival to exit completion), ``queue_wait`` sums the
    per-stage waits, ``model`` is the pipeline name — plus the additive
    ``pipeline`` block with per-stage breakdowns and handoff accounting.
    """

    kernel = _Kernel(traffic, duration=duration, seed=seed,
                     slo_seconds=slo_seconds, cache=cache,
                     percentiles=percentiles, window_seconds=window_seconds,
                     summary=summary, obs=obs, label="serve-pipeline")
    if isinstance(pipeline, str):
        pipeline = PipelineSpec.parse(pipeline)
    check_finite(handoff_seconds=handoff_seconds, allow_zero=True)
    stage_names = [stage.name for stage in pipeline.stages]
    missing = [name for name in stage_names if name not in pools]
    if missing:
        raise ValueError(f"pools is missing stages "
                         f"{', '.join(repr(n) for n in missing)} of "
                         f"pipeline {pipeline.name!r}")
    unknown = [name for name in pools if name not in stage_names]
    if unknown:
        raise ValueError(f"pools names unknown stages "
                         f"{', '.join(repr(n) for n in unknown)} "
                         f"(pipeline {pipeline.name!r} has: "
                         f"{', '.join(stage_names)})")
    stage_slo_seconds = dict(stage_slo_seconds or {})
    for name, slo in stage_slo_seconds.items():
        if name not in stage_names:
            raise ValueError(f"stage_slo_seconds names unknown stage {name!r}")
        check_finite(**{f"stage_slo_seconds[{name!r}]": slo})
    autoscalers = dict(autoscalers or {})
    for name in autoscalers:
        if name not in stage_names:
            raise ValueError(f"autoscalers names unknown stage {name!r}")
    if len({id(scaler) for scaler in autoscalers.values()}) != len(autoscalers):
        raise ValueError("each stage needs its own Autoscaler instance "
                         "(they carry per-fleet state)")

    stages = {stage.name: _Stage(
                  stage, _stage_pool(pools[stage.name], ordinal, stage.name),
                  autoscalers.get(stage.name),
                  _StageStats(summary, percentiles,
                              stage_slo_seconds.get(stage.name)))
              for ordinal, stage in enumerate(pipeline.stages)}
    batching = _Batching(kernel, list(stages.values()), policy, router,
                         dispatch_overhead_seconds)
    accumulator = kernel.accumulator
    entry = stages[pipeline.entry]

    # One dedicated generator for route draws, consumed in event order —
    # string seeding hashes deterministically, so the draw sequence is part
    # of the run's bit-reproducibility contract.
    route_rng = random.Random(f"pipeline-routes:{pipeline.name}:{seed}")
    flights: dict[int, _Flight] = {}
    handoffs = 0

    def choose_route(stage: _Stage) -> str | None:
        routes = stage.successors
        if len(routes) == 1:
            return routes[0].to
        pick = route_rng.random()
        cumulative = 0.0
        for route in routes:
            cumulative += route.probability
            if pick < cumulative:
                return route.to
        return routes[-1].to

    entry_model, new = entry.spec.model, tuple.__new__

    # Both Request builds below are per request, so they go straight to
    # tuple.__new__ with every field (see Request).
    def admit(request: Request) -> Request:
        index, arrival = request.index, request.arrival
        flights[index] = _Flight(arrival)
        return new(Request, (index, entry_model, arrival, None, None))

    def complete(stage: _Stage, replica: Replica, batch: list[Request],
                 now: float, finish: float) -> None:
        nonlocal handoffs
        for request in batch:
            flight = flights[request.index]
            wait = now - request.arrival
            flight.queue_wait += wait
            stage.stats.observe(wait, finish - now)
            target = choose_route(stage)
            if target is None:
                del flights[request.index]
                # The report's dispatch is synthetic — arrival plus the summed
                # per-stage waits — so the report's queue wait is the total
                # time spent queued across every stage the request visited.
                accumulator.observe(pipeline.name, flight.arrival,
                                    flight.arrival + flight.queue_wait, finish,
                                    request.index)
                if obs is not None:
                    obs.pipeline_completed(request.index, pipeline.name,
                                           flight.arrival, flight.queue_wait,
                                           finish)
                continue
            handoffs += 1
            successor = stages[target]
            next_arrival = finish + handoff_seconds
            batching.schedule(next_arrival, successor, new(Request, (
                request.index, successor.spec.model, next_arrival, None,
                None)))
            if obs is not None:
                obs.stage_handoff(request.index, request.model, replica.name,
                                  finish, next_arrival, stage.spec.name)

    batching.run(complete, admit=admit, entry=entry)

    makespan = max(duration, accumulator.last_completion)
    stage_rows = []
    for stage in stages.values():
        latency, wait, service = stage.stats.summaries()
        replicas = stage.fleet.replicas
        slo = stage.stats.slo_seconds
        stage_rows.append({
            "name": stage.spec.name,
            "model": stage.spec.model,
            "pool": stage.fleet.describe(),
            "requests": stage.stats.count,
            "latency": latency.to_dict(),
            "queue_wait": wait.to_dict(),
            "service": service.to_dict(),
            "utilization": (left_sum(replica.busy_seconds
                                     for replica in replicas)
                            / (len(replicas) * makespan)
                            if replicas and makespan else 0.0),
            "slo_seconds": slo,
            "slo_attainment": (1.0 - stage.stats.violations / stage.stats.count
                               if slo is not None and stage.stats.count
                               else None),
        })

    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "pipeline": pipeline.to_dict(),
        "pools": {name: stage.fleet.describe()
                  for name, stage in stages.items()},
        "policy": batching.policy.to_dict(),
        "router": batching.router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "handoff_seconds": handoff_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    if stage_slo_seconds:
        config["stage_slo_seconds"] = dict(sorted(stage_slo_seconds.items()))
    if autoscalers:
        config["autoscalers"] = {name: autoscalers[name].to_dict()
                                 for name in sorted(autoscalers)}
    return batching.report(config, pipeline={
        "name": pipeline.name,
        "entry": pipeline.entry,
        "handoff_seconds": handoff_seconds,
        "handoffs": handoffs,
        "stages": stage_rows,
    })
