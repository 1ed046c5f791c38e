"""Analytic M/M/c-style queueing estimates over cached engine results.

Where :func:`repro.serve.serve` replays every arrival through the event loop,
this module answers the same capacity questions — utilization, throughput
ceiling, approximate latency percentiles — in microseconds, from three
ingredients:

* **batch-aware service times** from the engine: one memoised simulation per
  (model-config, target-config, attention, batch size), shared through a
  :class:`~repro.engine.ResultCache` (:class:`ServiceTimes`);
* an **effective batch size**: the fixed point of "requests that accumulate
  while one batch is in service (or the batching window is open)", bounded by
  the policy's maximum batch;
* the **Erlang C** delay formula for an M/M/c queue at the resulting
  per-request service rate, giving the wait-probability, mean wait, and
  exponential wait-tail quantiles.

The model is deliberately approximate — heterogeneous fleets are averaged
into one server speed, batch formation is a fixed point rather than a
distribution, and waits are exponential — but it tracks the discrete-event
simulator closely enough (utilization within a few percent at moderate load)
to prune a fleet search space before the expensive validation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine import ResultCache, RunSpec, simulate
from repro.fold import left_sum
from repro.serve.batching import BatchPolicy, make_policy
from repro.serve.cluster import Fleet, ReplicaSpec
from repro.serve.llm import (
    DEFAULT_HANDOFF_SECONDS,
    DEFAULT_KV_BUCKET,
    DEFAULT_MAX_BATCH,
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PREFILL_CHUNK,
    DEFAULT_PROMPT_TOKENS,
    DEFAULT_STEP_OVERHEAD,
    KVCacheConfig,
    _bucket,
)
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    check_fractions,
    percentile_label,
)
from repro.serve.pipeline import DEFAULT_STAGE_HANDOFF, PipelineSpec
from repro.serve.simulator import DEFAULT_DISPATCH_OVERHEAD
from repro.serve.traffic import WorkloadMix, check_counts, check_finite
from repro.workloads import configured_name, get_workload


def erlang_c(servers: int, offered_erlangs: float) -> float:
    """P(an arriving request waits) in an M/M/c queue.

    ``offered_erlangs`` is the offered load ``a = lambda / mu``; the queue is
    stable only for ``a < servers`` (returns 1.0 at or beyond saturation).
    Computed through the numerically stable Erlang B recurrence.
    """

    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_erlangs < 0:
        raise ValueError(f"offered load must be >= 0, got {offered_erlangs}")
    if offered_erlangs == 0:
        return 0.0
    if offered_erlangs >= servers:
        return 1.0
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_erlangs * blocking / (k + offered_erlangs * blocking)
    rho = offered_erlangs / servers
    return blocking / (1.0 - rho + rho * blocking)


def _erlang_latency(servers: int, rate: float, per_request: float,
                    before: float, after: float,
                    percentiles: Sequence[float]
                    ) -> tuple[float, float, float | None,
                               tuple[tuple[str, float | None], ...]]:
    """The wait model: latency ``before + wait + after`` in an M/M/c queue.

    ``rate`` req/s share ``servers`` servers at ``per_request`` seconds of
    service each; ``wait`` is the Erlang C queueing delay, exponential past
    the wait probability.  ``before`` is paid ahead of the queue (batch
    formation), ``after`` behind it (the service itself).  Returns
    (utilization, wait probability, mean latency, per-percentile latency);
    for an unstable queue (utilization >= 1) the wait probability is 1 and
    every latency ``None`` — the queue grows without bound.
    """

    offered = rate * per_request                      # erlangs
    utilization = offered / servers
    fractions = sorted(set(percentiles))
    if not utilization < 1.0:
        return utilization, 1.0, None, tuple(
            (percentile_label(fraction), None) for fraction in fractions)
    wait_probability = erlang_c(servers, offered)
    drain = servers / per_request - rate              # spare service rate

    def wait_quantile(fraction: float) -> float:
        if fraction <= 1.0 - wait_probability:
            return 0.0
        return -math.log((1.0 - fraction) / wait_probability) / drain

    mean_latency = before + wait_probability / drain + after
    latency = tuple((percentile_label(fraction),
                     before + wait_quantile(fraction) + after)
                    for fraction in fractions)
    return utilization, wait_probability, mean_latency, latency


def _settle(bound: int, demand: Callable[[int], float]) -> int:
    """The batch fixed point: the batch size load forms, in ``[1, bound]``.

    ``demand(batch)`` is the batch that accumulates while batches of
    ``batch`` are in service (one engine lookup per call).  Each of at most
    32 steps moves halfway to it, so two-cycles converge; deterministic.
    """

    batch = 1.0
    for _ in range(32):
        target = min(float(bound), demand(max(1, round(batch))))
        if abs(target - batch) < 0.5:
            batch = target
            break
        batch = (batch + target) / 2.0
    return max(1, min(bound, round(batch)))


def _predicted(latency: tuple[tuple[str, float | None], ...],
               fraction: float) -> float | None:
    """The latency an estimate predicts at one percentile fraction."""

    label = percentile_label(fraction)
    for key, value in latency:
        if key == label:
            return value
    raise KeyError(f"percentile {label} was not estimated; "
                   f"request it via the percentiles knob")


class ServiceTimes:
    """Batch-aware service-time/energy lookups backed by the engine cache.

    ``service_seconds(model, spec, batch)`` is the full cost of dispatching
    one ``batch``-sized batch of ``model`` on a ``spec`` replica — engine
    latency plus the host-side dispatch overhead — exactly the quantity the
    simulator charges per dispatch.  Every distinct shape simulates once per
    table (the :class:`~repro.engine.ResultCache` underneath is shared, so a
    planner evaluating hundreds of candidate fleets pays for each shape once).
    """

    def __init__(self,
                 dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                 cache: ResultCache | None = None):
        check_finite(dispatch_overhead_seconds=dispatch_overhead_seconds,
                     allow_zero=True)
        self.dispatch_overhead_seconds = dispatch_overhead_seconds
        self.cache = ResultCache() if cache is None else cache
        self._specs: dict[tuple, RunSpec] = {}

    def _result(self, model: str, spec: ReplicaSpec, batch: int):
        # One engine spec per shape, like the serving kernel's ``run_spec``;
        # every lookup still calls ``simulate``, so the cache counts hold.
        # The key holds the batch's type: 2.0 and True equal the int keys 2
        # and 1, and must still meet RunSpec's check.
        key = (model, spec.target, spec.attention, batch, type(batch))
        run = self._specs.get(key)
        if run is None:
            run = self._specs[key] = RunSpec(model, target=spec.target,
                                             attention=spec.attention,
                                             batch_size=batch)
        return simulate(run, cache=self.cache)

    def service_seconds(self, model: str, spec: ReplicaSpec,
                        batch: int = 1) -> float:
        """Seconds one replica is busy serving one ``batch``-sized dispatch."""

        return (self.dispatch_overhead_seconds
                + self._result(model, spec, batch).end_to_end_latency)

    def energy_joules(self, model: str, spec: ReplicaSpec,
                      batch: int = 1) -> float:
        """Joules one ``batch``-sized dispatch costs (whole batch)."""

        return self._result(model, spec, batch).end_to_end_energy

    def mixed_service_seconds(self, mix: WorkloadMix, spec: ReplicaSpec,
                              batch: int = 1) -> float:
        """Mix-weighted expected batch service time on one replica kind."""

        total = left_sum(weight for _, weight in mix.entries)
        return left_sum(weight * self.service_seconds(model, spec, batch)
                        for model, weight in mix.entries) / total

    def mixed_energy_joules(self, mix: WorkloadMix, spec: ReplicaSpec,
                            batch: int = 1) -> float:
        total = left_sum(weight for _, weight in mix.entries)
        return left_sum(weight * self.energy_joules(model, spec, batch)
                        for model, weight in mix.entries) / total


@dataclass(frozen=True)
class QueueingEstimate:
    """What the analytic model predicts for one (fleet, traffic) pairing.

    ``latency`` maps percentile labels (``"p99"``) to predicted seconds; for
    an unstable fleet (``utilization >= 1``) the percentiles and mean are
    ``None`` — the queue grows without bound, there is no steady state.
    """

    fleet: str
    replicas: int
    rate_rps: float
    effective_batch: int
    batch_service_seconds: float
    per_request_seconds: float
    utilization: float
    stable: bool
    throughput_ceiling_rps: float
    wait_probability: float
    mean_latency_seconds: float | None
    latency: tuple[tuple[str, float | None], ...]
    energy_per_request_joules: float

    def predicted(self, fraction: float) -> float | None:
        """The predicted latency at one percentile fraction (``0.99``)."""

        return _predicted(self.latency, fraction)

    def to_dict(self) -> dict[str, object]:
        return {
            "fleet": self.fleet,
            "replicas": self.replicas,
            "rate_rps": self.rate_rps,
            "effective_batch": self.effective_batch,
            "batch_service_seconds": self.batch_service_seconds,
            "per_request_seconds": self.per_request_seconds,
            "utilization": self.utilization,
            "stable": self.stable,
            "throughput_ceiling_rps": self.throughput_ceiling_rps,
            "wait_probability": self.wait_probability,
            "mean_latency_seconds": self.mean_latency_seconds,
            "latency": dict(self.latency),
            "energy_per_request_joules": self.energy_per_request_joules,
        }


def _policy_batching(policy: BatchPolicy) -> tuple[int, float, bool]:
    """(max batch, batching window, fixed?) the analytic model should assume.

    ``fixed`` marks strict-size batching: every dispatch is a full batch, so
    the effective batch is the policy's size rather than a load-dependent
    fixed point, and requests pay the batch *formation* time.  The model does
    not capture strict-size starvation (a partial batch waiting indefinitely
    for its trigger — the tail blow-up :mod:`repro.serve.batching` documents),
    so its percentile predictions under ``size`` are optimistic.
    """

    if policy.name == "fifo":
        return 1, 0.0, False
    if policy.name == "size":
        return policy.batch_size, 0.0, True
    if policy.name == "timeout":
        return policy.max_batch, policy.timeout, False
    raise ValueError(f"unknown batching policy {policy.name!r}")


def estimate_fleet(fleet: Fleet | str, rate: float,
                   mix: WorkloadMix | Sequence[str] | str, *,
                   policy: BatchPolicy | str = "timeout",
                   dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                   service_times: ServiceTimes | None = None) -> QueueingEstimate:
    """Predict steady-state behavior of ``fleet`` under ``rate`` req/s.

    ``mix`` accepts a :class:`~repro.serve.WorkloadMix`, a workload name, or a
    sequence of names (uniform weights).  ``policy`` is the batching policy
    the simulator runs — a built :class:`~repro.serve.BatchPolicy`, or a name
    built by :func:`~repro.serve.make_policy` at its defaults — and
    contributes its own ``max_batch`` / ``timeout``.  Pass a shared
    :class:`ServiceTimes` to reuse engine results across many estimates (the
    optimizer does).
    """

    check_finite(rate=rate)
    check_fractions("percentiles", percentiles)
    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    if isinstance(mix, str):
        mix = WorkloadMix.of([mix])
    elif not isinstance(mix, WorkloadMix):
        mix = WorkloadMix.of(tuple(mix))
    if service_times is None:
        service_times = ServiceTimes(dispatch_overhead_seconds)
    max_batch, batching_window, fixed_batch = _policy_batching(
        make_policy(policy) if isinstance(policy, str) else policy)

    servers = len(fleet.replicas)
    specs = [replica.spec for replica in fleet.replicas]
    rate_per_server = rate / servers

    # Heterogeneous fleets collapse to one average server: the mix-weighted
    # batch service time, averaged across replica kinds.
    def service_at(batch: int) -> float:
        return left_sum(service_times.mixed_service_seconds(mix, spec, batch)
                        for spec in specs) / servers

    # At light load a timeout batch is its opening request plus whatever
    # arrives during the window; near saturation batches form back-to-back
    # while the previous one is in service.
    batch = max_batch if fixed_batch or max_batch <= 1 else _settle(
        max_batch, lambda size: max(1.0 + rate_per_server * batching_window,
                                    rate_per_server * service_at(size)))
    batch_service = service_at(batch)
    per_request = batch_service / batch
    if rate * per_request >= servers and batch < max_batch:
        # The light-load fixed point says overload, but a saturated queue
        # builds full batches — amortising the dispatch overhead further.
        # Judge stability at the batch size saturation actually produces.
        batch = max_batch
        batch_service = service_at(batch)
        per_request = batch_service / batch
    energy = left_sum(service_times.mixed_energy_joules(mix, spec, batch)
                      for spec in specs) / (servers * batch)

    # Batching charges a formation delay on top of queueing: the opener of a
    # timeout batch waits out the window, the opener of a strict-size batch
    # waits for its batch to fill.  Charging the opener's full delay keeps
    # the percentile prediction conservative where it matters (pruning).
    if fixed_batch:
        formation_delay = (batch - 1) / rate_per_server
    else:
        formation_delay = batching_window
    utilization, wait_probability, mean_latency, latency = _erlang_latency(
        servers, rate, per_request, formation_delay, batch_service,
        percentiles)

    return QueueingEstimate(
        fleet=fleet.describe(),
        replicas=servers,
        rate_rps=rate,
        effective_batch=batch,
        batch_service_seconds=batch_service,
        per_request_seconds=per_request,
        utilization=utilization,
        stable=mean_latency is not None,
        throughput_ceiling_rps=servers / per_request,
        wait_probability=wait_probability,
        mean_latency_seconds=mean_latency,
        latency=latency,
        energy_per_request_joules=energy,
    )


@dataclass(frozen=True)
class PipelineEstimate:
    """Tandem M/M/c composition over one pipeline's stage pools.

    Each stage is estimated independently at its *thinned* arrival rate —
    the entry rate times the stage's visit ratio (upstream throughput ×
    branch probability, exact for acyclic routing) — and the end-to-end
    figures add the per-stage predictions weighted by those ratios plus the
    expected handoff delay.  Summing per-stage quantiles is conservative
    (tails rarely align across stages), which is the right bias for pruning
    a capacity search.  For an unstable pipeline (any stage's pool at or
    past saturation) the latency figures are ``None`` and
    ``unstable_stages`` names the offenders; ``bottleneck`` always names
    the highest-utilization stage — where one more replica buys the most.
    """

    pipeline: str
    rate_rps: float
    handoff_seconds: float
    expected_handoffs: float
    stages: tuple[tuple[str, float, QueueingEstimate], ...]
    stable: bool
    bottleneck: str
    unstable_stages: tuple[str, ...]
    mean_latency_seconds: float | None
    latency: tuple[tuple[str, float | None], ...]

    def stage_estimate(self, name: str) -> QueueingEstimate:
        for stage_name, _, estimate in self.stages:
            if stage_name == name:
                return estimate
        raise KeyError(f"pipeline estimate has no stage {name!r}")

    def predicted(self, fraction: float) -> float | None:
        """The predicted end-to-end latency at one percentile fraction."""

        return _predicted(self.latency, fraction)

    @classmethod
    def compose(cls, pipeline: PipelineSpec, rate: float,
                handoff_seconds: float,
                estimates: "dict[str, QueueingEstimate]") -> PipelineEstimate:
        """The tandem composition of per-stage estimates (one per stage
        name, each at the stage's thinned rate and the same percentiles)."""

        visits = pipeline.visit_ratios()
        expected_handoffs = pipeline.expected_handoffs()
        stages = tuple((stage.name, visits[stage.name], estimates[stage.name])
                       for stage in pipeline.stages)
        unstable = tuple(name for name, _, estimate in stages
                         if not estimate.stable)
        labels = [label for label, _ in stages[0][2].latency]
        handoff_total = expected_handoffs * handoff_seconds
        if unstable:
            mean_latency = None
            latency = tuple((label, None) for label in labels)
        else:
            mean_latency = handoff_total + left_sum(
                ratio * estimate.mean_latency_seconds
                for _, ratio, estimate in stages)
            latency = tuple(
                (label, handoff_total + left_sum(
                    ratio * dict(estimate.latency)[label]
                    for _, ratio, estimate in stages))
                for label in labels)
        return cls(
            pipeline=pipeline.name,
            rate_rps=rate,
            handoff_seconds=handoff_seconds,
            expected_handoffs=expected_handoffs,
            stages=stages,
            stable=not unstable,
            # Ties go to the first stage in pipeline order.
            bottleneck=max(stages, key=lambda entry: entry[2].utilization)[0],
            unstable_stages=unstable,
            mean_latency_seconds=mean_latency,
            latency=latency,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "rate_rps": self.rate_rps,
            "handoff_seconds": self.handoff_seconds,
            "expected_handoffs": self.expected_handoffs,
            "stages": [{"name": name, "visit_ratio": visits,
                        **estimate.to_dict()}
                       for name, visits, estimate in self.stages],
            "stable": self.stable,
            "bottleneck": self.bottleneck,
            "unstable_stages": list(self.unstable_stages),
            "mean_latency_seconds": self.mean_latency_seconds,
            "latency": dict(self.latency),
        }


def estimate_pipeline(pipeline: PipelineSpec | str,
                      pools: "dict[str, Fleet | str]", rate: float, *,
                      policy: BatchPolicy | str = "timeout",
                      handoff_seconds: float = DEFAULT_STAGE_HANDOFF,
                      dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                      percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                      service_times: ServiceTimes | None = None
                      ) -> PipelineEstimate:
    """Predict steady-state behavior of a pipeline's stage pools jointly.

    Stage-k arrival rate is ``rate * visit_ratio(k)`` — the tandem-queue
    thinning :func:`repro.serve.serve_pipeline` realises event by event —
    and each stage pool goes through :func:`estimate_fleet` on its own
    workload; :meth:`PipelineEstimate.compose` joins them.  Pass a shared
    :class:`ServiceTimes` to reuse engine results across many candidate pool
    sizings (``plan_pipeline_capacity`` does).
    """

    if isinstance(pipeline, str):
        pipeline = PipelineSpec.parse(pipeline)
    check_finite(rate=rate)
    check_finite(handoff_seconds=handoff_seconds, allow_zero=True)
    missing = [stage.name for stage in pipeline.stages if stage.name not in pools]
    if missing:
        raise ValueError(f"pools is missing stages "
                         f"{', '.join(repr(n) for n in missing)} of "
                         f"pipeline {pipeline.name!r}")
    if service_times is None:
        service_times = ServiceTimes(dispatch_overhead_seconds)

    visits = pipeline.visit_ratios()
    return PipelineEstimate.compose(pipeline, rate, handoff_seconds, {
        stage.name: estimate_fleet(
            pools[stage.name], rate * visits[stage.name], stage.model,
            policy=policy, dispatch_overhead_seconds=dispatch_overhead_seconds,
            percentiles=percentiles, service_times=service_times)
        for stage in pipeline.stages})


@dataclass(frozen=True)
class LLMPoolEstimate:
    """Analytic prediction for a disaggregated prefill/decode deployment.

    The prefill pool is an M/M/c queue whose service time is one full
    chunked prompt; its wait quantiles plus the prefill service give the
    ``ttft`` predictions.  The decode pool is a batch fixed point: the
    concurrency ``rate * decode_steps * tpot`` spreads over the replicas,
    bounded per replica by ``max_batch`` and by how many reservations fit in
    KV; ``tpot`` is one decode step at that batch size.  For an unstable
    pool the corresponding predictions are ``None``.
    """

    prefill_fleet: str
    decode_fleet: str
    rate_rps: float
    prompt_tokens: int
    output_tokens: int
    prefill_service_seconds: float
    prefill_utilization: float
    prefill_stable: bool
    ttft_mean_seconds: float | None
    ttft: tuple[tuple[str, float | None], ...]
    decode_batch: int
    decode_concurrency_cap: int
    decode_step_seconds: float
    tpot_seconds: float | None
    decode_utilization: float
    decode_stable: bool
    decode_ceiling_tokens_per_second: float

    @property
    def stable(self) -> bool:
        return self.prefill_stable and self.decode_stable

    def predicted_ttft(self, fraction: float) -> float | None:
        """The predicted TTFT at one percentile fraction (``0.95``)."""

        return _predicted(self.ttft, fraction)

    def to_dict(self) -> dict[str, object]:
        return {
            "prefill_fleet": self.prefill_fleet,
            "decode_fleet": self.decode_fleet,
            "rate_rps": self.rate_rps,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "prefill_service_seconds": self.prefill_service_seconds,
            "prefill_utilization": self.prefill_utilization,
            "prefill_stable": self.prefill_stable,
            "ttft_mean_seconds": self.ttft_mean_seconds,
            "ttft": dict(self.ttft),
            "decode_batch": self.decode_batch,
            "decode_concurrency_cap": self.decode_concurrency_cap,
            "decode_step_seconds": self.decode_step_seconds,
            "tpot_seconds": self.tpot_seconds,
            "decode_utilization": self.decode_utilization,
            "decode_stable": self.decode_stable,
            "decode_ceiling_tokens_per_second":
                self.decode_ceiling_tokens_per_second,
            "stable": self.stable,
        }


def estimate_llm_pools(prefill_fleet: Fleet | str, decode_fleet: Fleet | str,
                       rate: float, model: str, *,
                       prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
                       output_tokens: int = DEFAULT_OUTPUT_TOKENS,
                       prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
                       max_batch: int = DEFAULT_MAX_BATCH,
                       kv: KVCacheConfig | None = None,
                       step_overhead_seconds: float = DEFAULT_STEP_OVERHEAD,
                       kv_bucket: int = DEFAULT_KV_BUCKET,
                       percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                       cache: ResultCache | None = None) -> LLMPoolEstimate:
    """Size both pools of a disaggregated LLM deployment analytically.

    Service times come from the same engine lowering :func:`serve_llm` uses
    (chunked ``phase=prefill`` runs, bucketed ``phase=decode`` steps), so the
    estimate and the simulator price identical shapes — the planner prunes
    with this and validates survivors through the event loop.
    """

    check_finite(rate=rate)
    check_finite(step_overhead_seconds=step_overhead_seconds, allow_zero=True)
    check_counts(prompt_tokens=prompt_tokens, output_tokens=output_tokens,
                 prefill_chunk=prefill_chunk, max_batch=max_batch,
                 kv_bucket=kv_bucket)
    check_fractions("percentiles", percentiles)
    prefill_fleet = Fleet.parse(prefill_fleet) \
        if isinstance(prefill_fleet, str) else prefill_fleet
    decode_fleet = Fleet.parse(decode_fleet) \
        if isinstance(decode_fleet, str) else decode_fleet
    kv = KVCacheConfig() if kv is None else kv
    service_times = ServiceTimes(step_overhead_seconds, cache)
    bytes_per_token = kv.bytes_per_token(get_workload(model))

    # --- prefill pool: M/M/c on the full chunked-prompt service time -------
    prefill_specs = [replica.spec for replica in prefill_fleet.replicas]
    servers_p = len(prefill_specs)

    def prefill_seconds(spec: ReplicaSpec) -> float:
        total, progress = 0.0, 0
        while progress < prompt_tokens:
            chunk = min(prefill_chunk, prompt_tokens - progress)
            name = configured_name(model, tokens=chunk,
                                   kv_tokens=progress + chunk, phase="prefill")
            total += service_times.service_seconds(name, spec)
            progress += chunk
        return total

    prefill_service = left_sum(prefill_seconds(spec)
                               for spec in prefill_specs) / servers_p
    utilization_p, _, ttft_mean, ttft = _erlang_latency(
        servers_p, rate, prefill_service, 0.0, prefill_service, percentiles)

    # --- decode pool: batch fixed point under the KV concurrency cap -------
    decode_specs = [replica.spec for replica in decode_fleet.replicas]
    servers_d = len(decode_specs)
    reserved = prompt_tokens + output_tokens
    cap = min(min(max_batch, kv.capacity_for(spec, bytes_per_token) // reserved)
              for spec in decode_specs)
    if cap < 1:
        raise ValueError(
            f"one {prompt_tokens}+{output_tokens}-token reservation does not "
            f"fit the smallest decode replica's KV cache")
    decode_name = configured_name(model, tokens=1,
                                  kv_tokens=_bucket(reserved, kv_bucket),
                                  phase="decode")

    def step_seconds(batch: int) -> float:
        return left_sum(service_times.service_seconds(decode_name, spec, batch)
                        for spec in decode_specs) / servers_d

    decode_steps = output_tokens - 1
    if decode_steps == 0:
        batch_d, step, tpot = 1, step_seconds(1), None
        utilization_d, stable_d = 0.0, True
    else:
        # Concurrency fixed point: requests decoding at once = arrival rate x
        # time spent decoding, spread across the pool and clamped to the cap.
        batch_d = _settle(cap, lambda size: max(
            1.0, rate * decode_steps * step_seconds(size) / servers_d))
        step = step_seconds(batch_d)
        utilization_d = rate * decode_steps * step / (servers_d * batch_d)
        if utilization_d >= 1.0 and batch_d < cap:
            # The fixed point says overload, but a saturated pool runs full
            # batches — judge stability at the batch saturation produces.
            batch_d = cap
            step = step_seconds(batch_d)
            utilization_d = rate * decode_steps * step / (servers_d * batch_d)
        stable_d = utilization_d < 1.0
        tpot = step if stable_d else None
    ceiling = servers_d * cap / step_seconds(cap)

    return LLMPoolEstimate(
        prefill_fleet=prefill_fleet.describe(),
        decode_fleet=decode_fleet.describe(),
        rate_rps=rate,
        prompt_tokens=prompt_tokens,
        output_tokens=output_tokens,
        prefill_service_seconds=prefill_service,
        prefill_utilization=utilization_p,
        prefill_stable=ttft_mean is not None,
        ttft_mean_seconds=ttft_mean,
        ttft=ttft,
        decode_batch=batch_d,
        decode_concurrency_cap=cap,
        decode_step_seconds=step,
        tpot_seconds=tpot,
        decode_utilization=utilization_d,
        decode_stable=stable_d,
        decode_ceiling_tokens_per_second=ceiling,
    )
