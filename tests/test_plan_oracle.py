"""The planner's analytic estimators, held to the code they replaced.

``repro.plan.queueing`` states each analytic-model decision once: one
Erlang C wait model, one damped batch fixed point, one percentile lookup, one
engine pricing table (:class:`ServiceTimes`) and one tandem composition
(:meth:`PipelineEstimate.compose`).  The estimators before it wrote the wait
model, the fixed point and the composition once per caller; they are kept
here verbatim as the oracle (``_effective_batch``, ``_policy_batching``,
``estimate_fleet``, ``estimate_pipeline`` and ``estimate_llm_pools`` below;
the code under test is reached as ``queueing.*``).  Every estimate must
serialise byte for byte as theirs did and make the same engine lookups in the
same order, over:

- homogeneous and mixed fleets and workload mixes;
- fifo, size and timeout policies, built at batch sizes 1-16 and timeouts of
  0-5 ms or named at :func:`make_policy`'s defaults;
- rates from light load to past saturation, with extra percentiles (label
  collisions included: the reference carried both fractions under one key,
  and the code under test refuses them before any engine lookup);
- two-stage, three-stage and cascade pipelines;
- LLM pools across prefill and decode counts, token lengths (one-token
  outputs included), chunk sizes and KV capacities, too-small ones included.

The plan goldens pin one policy per planner; these pin the estimators under
all three.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ResultCache, RunSpec, simulate
from repro.plan import queueing
from repro.plan.queueing import (
    LLMPoolEstimate,
    PipelineEstimate,
    QueueingEstimate,
    ServiceTimes,
    erlang_c,
)
from repro.serve.batching import BatchPolicy, make_policy
from repro.serve.cluster import Fleet, ReplicaSpec
from repro.serve.llm import (
    DEFAULT_KV_BUCKET,
    DEFAULT_MAX_BATCH,
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PREFILL_CHUNK,
    DEFAULT_PROMPT_TOKENS,
    DEFAULT_STEP_OVERHEAD,
    KVCacheConfig,
    _bucket,
)
from repro.serve.metrics import DEFAULT_PERCENTILES, percentile_label
from repro.serve.pipeline import DEFAULT_STAGE_HANDOFF, PipelineSpec
from repro.serve.simulator import DEFAULT_DISPATCH_OVERHEAD
from repro.serve.traffic import WorkloadMix, check_counts, check_finite
from repro.workloads import configured_name, get_workload


# ------------------------------------------------- the replaced estimators

def _effective_batch(rate_per_server: float, service_at, max_batch: int,
                     batching_window: float) -> int:
    """Fixed point of batch formation under load.

    At light load a timeout batch is its opening request plus whatever
    arrives during the window (``1 + rate * window``); near saturation
    batches form back-to-back while the previous one is in service
    (``rate * service``).  The next batch is the larger of the two, bounded
    to ``[1, max_batch]``, iterated with half-step damping so two-cycles
    converge; deterministic.
    """

    if max_batch <= 1:
        return 1
    batch = 1.0
    for _ in range(32):
        service = service_at(max(1, round(batch)))
        target = min(float(max_batch),
                     max(1.0 + rate_per_server * batching_window,
                         rate_per_server * service))
        if abs(target - batch) < 0.5:
            batch = target
            break
        batch = (batch + target) / 2.0
    return max(1, min(max_batch, round(batch)))


def _policy_batching(policy: BatchPolicy | str, batch_size: int,
                     timeout: float) -> tuple[int, float, bool]:
    """(max batch, batching window, fixed?) the analytic model should assume.

    ``fixed`` marks strict-size batching: every dispatch is a full batch, so
    the effective batch is the policy's size rather than a load-dependent
    fixed point, and requests pay the batch *formation* time.  The model does
    not capture strict-size starvation (a partial batch waiting indefinitely
    for its trigger — the tail blow-up :mod:`repro.serve.batching` documents),
    so its percentile predictions under ``size`` are optimistic.
    """

    if not isinstance(policy, str):
        name = policy.name
        batch_size = getattr(policy, "max_batch",
                             getattr(policy, "batch_size", batch_size))
        timeout = getattr(policy, "timeout", timeout)
        policy = name
    if policy == "fifo":
        return 1, 0.0, False
    if policy == "size":
        return batch_size, 0.0, True
    if policy == "timeout":
        return batch_size, timeout, False
    raise ValueError(f"unknown batching policy {policy!r}")


def estimate_fleet(fleet: Fleet | str, rate: float,
                   mix: WorkloadMix | Sequence[str] | str, *,
                   policy: BatchPolicy | str = "timeout",
                   batch_size: int = 8, timeout: float = 2e-3,
                   dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                   service_times: ServiceTimes | None = None) -> QueueingEstimate:
    """Predict steady-state behavior of ``fleet`` under ``rate`` req/s.

    ``mix`` accepts a :class:`~repro.serve.WorkloadMix`, a workload name, or a
    sequence of names (uniform weights).  ``policy`` mirrors the simulator's
    batching argument; a built policy instance contributes its own
    ``max_batch`` / ``timeout``.  Pass a shared :class:`ServiceTimes` to reuse
    engine results across many estimates (the optimizer does).
    """

    check_finite(rate=rate)
    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    if isinstance(mix, str):
        mix = WorkloadMix.of([mix])
    elif not isinstance(mix, WorkloadMix):
        mix = WorkloadMix.of(tuple(mix))
    if service_times is None:
        service_times = ServiceTimes(dispatch_overhead_seconds)
    max_batch, batching_window, fixed_batch = _policy_batching(
        policy, batch_size, timeout)

    servers = len(fleet.replicas)
    specs = [replica.spec for replica in fleet.replicas]
    rate_per_server = rate / servers

    # Heterogeneous fleets collapse to one average server: the mix-weighted
    # batch service time, averaged across replica kinds.
    def service_at(batch: int) -> float:
        return sum(service_times.mixed_service_seconds(mix, spec, batch)
                   for spec in specs) / servers

    batch = max_batch if fixed_batch else _effective_batch(
        rate_per_server, service_at, max_batch, batching_window)
    batch_service = service_at(batch)
    per_request = batch_service / batch
    offered = rate * per_request                      # erlangs
    if offered >= servers and batch < max_batch:
        # The light-load fixed point says overload, but a saturated queue
        # builds full batches — amortising the dispatch overhead further.
        # Judge stability at the batch size saturation actually produces.
        batch = max_batch
        batch_service = service_at(batch)
        per_request = batch_service / batch
        offered = rate * per_request
    utilization = offered / servers
    stable = utilization < 1.0
    ceiling = servers / per_request
    wait_probability = erlang_c(servers, offered) if stable else 1.0
    energy = sum(service_times.mixed_energy_joules(mix, spec, batch)
                 for spec in specs) / (servers * batch)

    # Batching charges a formation delay on top of queueing: the opener of a
    # timeout batch waits out the window, the opener of a strict-size batch
    # waits for its batch to fill.  Charging the opener's full delay keeps
    # the percentile prediction conservative where it matters (pruning).
    if fixed_batch:
        formation_delay = (batch - 1) / rate_per_server
    else:
        formation_delay = batching_window
    fractions = sorted(set(percentiles))
    if stable:
        drain = servers / per_request - rate          # spare service rate
        mean_wait = wait_probability / drain
        mean_latency = formation_delay + mean_wait + batch_service

        def wait_quantile(fraction: float) -> float:
            if fraction <= 1.0 - wait_probability:
                return 0.0
            return -math.log((1.0 - fraction) / wait_probability) / drain

        latency = tuple(
            (percentile_label(fraction),
             formation_delay + wait_quantile(fraction) + batch_service)
            for fraction in fractions)
    else:
        mean_latency = None
        latency = tuple((percentile_label(fraction), None)
                        for fraction in fractions)

    return QueueingEstimate(
        fleet=fleet.describe(),
        replicas=servers,
        rate_rps=rate,
        effective_batch=batch,
        batch_service_seconds=batch_service,
        per_request_seconds=per_request,
        utilization=utilization,
        stable=stable,
        throughput_ceiling_rps=ceiling,
        wait_probability=wait_probability,
        mean_latency_seconds=mean_latency,
        latency=latency,
        energy_per_request_joules=energy,
    )



def estimate_pipeline(pipeline: PipelineSpec | str,
                      pools: "dict[str, Fleet | str]", rate: float, *,
                      policy: BatchPolicy | str = "timeout",
                      batch_size: int = 8, timeout: float = 2e-3,
                      handoff_seconds: float = DEFAULT_STAGE_HANDOFF,
                      dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                      percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                      service_times: ServiceTimes | None = None
                      ) -> PipelineEstimate:
    """Predict steady-state behavior of a pipeline's stage pools jointly.

    Stage-k arrival rate is ``rate * visit_ratio(k)`` — the tandem-queue
    thinning :func:`repro.serve.serve_pipeline` realises event by event —
    and each stage pool goes through :func:`estimate_fleet` on its own
    workload.  Pass a shared :class:`ServiceTimes` to reuse engine results
    across many candidate pool sizings (``plan_pipeline_capacity`` does).
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
    expected_handoffs = pipeline.expected_handoffs()
    stages: list[tuple[str, float, QueueingEstimate]] = []
    for stage in pipeline.stages:
        estimate = estimate_fleet(
            pools[stage.name], rate * visits[stage.name], stage.model,
            policy=policy, batch_size=batch_size, timeout=timeout,
            dispatch_overhead_seconds=dispatch_overhead_seconds,
            percentiles=percentiles, service_times=service_times)
        stages.append((stage.name, visits[stage.name], estimate))

    unstable = tuple(name for name, _, estimate in stages if not estimate.stable)
    stable = not unstable
    bottleneck = max(stages, key=lambda entry: entry[2].utilization)[0]
    handoff_total = expected_handoffs * handoff_seconds
    if stable:
        mean_latency = handoff_total + sum(
            ratio * estimate.mean_latency_seconds
            for _, ratio, estimate in stages)
        latency = tuple(
            (label, handoff_total + sum(
                ratio * dict(estimate.latency)[label]
                for _, ratio, estimate in stages))
            for label in (percentile_label(fraction)
                          for fraction in sorted(set(percentiles))))
    else:
        mean_latency = None
        latency = tuple((percentile_label(fraction), None)
                        for fraction in sorted(set(percentiles)))

    return PipelineEstimate(
        pipeline=pipeline.name,
        rate_rps=rate,
        handoff_seconds=handoff_seconds,
        expected_handoffs=expected_handoffs,
        stages=tuple(stages),
        stable=stable,
        bottleneck=bottleneck,
        unstable_stages=unstable,
        mean_latency_seconds=mean_latency,
        latency=latency,
    )



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
    prefill_fleet = Fleet.parse(prefill_fleet) \
        if isinstance(prefill_fleet, str) else prefill_fleet
    decode_fleet = Fleet.parse(decode_fleet) \
        if isinstance(decode_fleet, str) else decode_fleet
    kv = KVCacheConfig() if kv is None else kv
    cache = ResultCache() if cache is None else cache
    bytes_per_token = kv.bytes_per_token(get_workload(model))

    def run_seconds(name: str, spec: ReplicaSpec, batch: int = 1) -> float:
        result = simulate(RunSpec(name, target=spec.target,
                                  attention=spec.attention, batch_size=batch),
                          cache=cache)
        return step_overhead_seconds + result.end_to_end_latency

    # --- prefill pool: M/M/c on the full chunked-prompt service time -------
    prefill_specs = [replica.spec for replica in prefill_fleet.replicas]
    servers_p = len(prefill_specs)

    def prefill_seconds(spec: ReplicaSpec) -> float:
        total, progress = 0.0, 0
        while progress < prompt_tokens:
            chunk = min(prefill_chunk, prompt_tokens - progress)
            name = configured_name(model, tokens=chunk,
                                   kv_tokens=progress + chunk, phase="prefill")
            total += run_seconds(name, spec)
            progress += chunk
        return total

    prefill_service = sum(prefill_seconds(spec)
                          for spec in prefill_specs) / servers_p
    offered_p = rate * prefill_service
    utilization_p = offered_p / servers_p
    stable_p = utilization_p < 1.0
    fractions = sorted(set(percentiles))
    if stable_p:
        wait_probability = erlang_c(servers_p, offered_p)
        drain = servers_p / prefill_service - rate
        ttft_mean = wait_probability / drain + prefill_service

        def wait_quantile(fraction: float) -> float:
            if fraction <= 1.0 - wait_probability:
                return 0.0
            return -math.log((1.0 - fraction) / wait_probability) / drain

        ttft = tuple((percentile_label(fraction),
                      wait_quantile(fraction) + prefill_service)
                     for fraction in fractions)
    else:
        ttft_mean = None
        ttft = tuple((percentile_label(fraction), None)
                     for fraction in fractions)

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
        return sum(run_seconds(decode_name, spec, batch)
                   for spec in decode_specs) / servers_d

    decode_steps = output_tokens - 1
    if decode_steps == 0:
        batch_d, step, tpot = 1, step_seconds(1), None
        utilization_d, stable_d = 0.0, True
    else:
        # Concurrency fixed point: requests decoding at once = arrival rate x
        # time spent decoding, spread across the pool and clamped to the cap.
        batch = 1.0
        for _ in range(32):
            step = step_seconds(max(1, round(batch)))
            target = min(float(cap),
                         max(1.0, rate * decode_steps * step / servers_d))
            if abs(target - batch) < 0.5:
                batch = target
                break
            batch = (batch + target) / 2.0
        batch_d = max(1, min(cap, round(batch)))
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
        prefill_stable=stable_p,
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


# ------------------------------------------------------------ the harness

#: Engine results by spec, shared by every example.  Results are immutable,
#: so a miss in one example's fresh cache need not simulate a shape twice.
_RESULTS: dict[RunSpec, object] = {}


class _LoggedCache(ResultCache):
    """A fresh result cache that logs the spec of every lookup in order.
    Its hit and miss counts are its own; its misses read :data:`_RESULTS`."""

    def __init__(self):
        super().__init__()
        self.lookups: list[RunSpec] = []

    def get_or_run(self, spec, runner):
        self.lookups.append(spec)
        return super().get_or_run(
            spec, lambda key: _RESULTS[key] if key in _RESULTS
            else _RESULTS.setdefault(key, runner(key)))


def _outcome(estimate) -> tuple:
    """What ``estimate(cache)`` shows: its payload as JSON and its repr (or
    its error), the cache's counts and every engine lookup, in order."""

    cache = _LoggedCache()
    try:
        result = estimate(cache)
        shown = (json.dumps(result.to_dict()), repr(result))
    except ValueError as error:
        shown = ("ValueError", str(error))
    return shown, cache.stats(), cache.lookups


#: The replaced estimators, under the names the code under test uses.
REFERENCE = SimpleNamespace(estimate_fleet=estimate_fleet,
                            estimate_pipeline=estimate_pipeline,
                            estimate_llm_pools=estimate_llm_pools)


def _shared_label(percentiles: Sequence[float]) -> tuple[float, float] | None:
    """(earlier, later) for the first fraction, in order, whose label a
    different earlier fraction already has; None if the labels are unique."""

    labelled: dict[str, float] = {}
    for fraction in percentiles:
        first = labelled.setdefault(percentile_label(fraction), fraction)
        if first != fraction:
            return first, fraction
    return None


def assert_matches(run, percentiles: Sequence[float]) -> None:
    """``run(module, cache)`` shows the same outcome with ``module`` the
    code under test (:mod:`repro.plan.queueing`) and the reference, unless
    two of ``percentiles`` share a label: then the code under test refuses
    them, naming both, before any engine lookup."""

    new = _outcome(lambda cache: run(queueing, cache))
    shared = _shared_label(percentiles)
    if shared is not None:
        first, second = shared
        assert new == (("ValueError",
                        f"percentiles {first!r} and {second!r} share the "
                        f"label {percentile_label(first)!r}"),
                       ResultCache().stats(), [])
        return
    old = _outcome(lambda cache: run(REFERENCE, cache))
    assert new == old


KINDS = ("vitality", "sanger", "gpu:taylor")
FLEETS = st.one_of(
    st.builds("{}x{}".format, st.integers(1, 4), st.sampled_from(KINDS)),
    st.sampled_from(["1xvitality,1xgpu:taylor", "2xvitality,1xsanger"]))
MIXES = st.one_of(
    st.just("deit-tiny"),
    st.builds(lambda weight: WorkloadMix.of(["deit-tiny", "levit-128"],
                                            [1.0, weight]),
              st.floats(0.25, 4.0)))
POLICY_NAMES = st.sampled_from(["fifo", "size", "timeout"])
POLICIES = st.one_of(
    POLICY_NAMES,
    st.builds(make_policy, POLICY_NAMES, batch_size=st.integers(1, 16),
              timeout=st.floats(0.0, 5e-3)))
#: Log-uniform from 1 req/s, light load on any fleet, to 31,623 req/s, past
#: saturation on every one.
RATES = st.floats(0.0, 4.5).map(lambda exponent: 10.0 ** exponent)
#: The defaults plus up to three extra fractions; free floats can share a
#: label with another fraction (``0.5`` and ``0.5000001`` are both "p50").
PERCENTILES = st.lists(
    st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]),
              st.floats(0.001, 0.999)),
    max_size=3).map(lambda extra: (*DEFAULT_PERCENTILES, *extra))
OVERHEADS = st.floats(0.0, 1e-3)
PIPELINES = st.one_of(
    st.sampled_from([
        "two = encoder[tokens=128] -> deit-tiny",
        "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny",
    ]).map(PipelineSpec.parse),
    st.builds(lambda acceptance: PipelineSpec.cascade(
        "spec", "encoder[tokens=32]", "encoder[tokens=512]",
        acceptance_rate=acceptance), st.floats(0.05, 0.95)))


# ------------------------------------------------------------- the oracle


@settings(max_examples=100, deadline=None)
@given(fleet=FLEETS, rate=RATES, mix=MIXES, policy=POLICIES,
       percentiles=PERCENTILES, overhead=OVERHEADS)
def test_estimate_fleet_matches_reference(fleet, rate, mix, policy,
                                          percentiles, overhead):
    assert_matches(lambda module, cache: module.estimate_fleet(
        fleet, rate, mix, policy=policy, percentiles=percentiles,
        service_times=ServiceTimes(overhead, cache)), percentiles)


@settings(max_examples=80, deadline=None)
@given(pipeline=PIPELINES, data=st.data(), rate=RATES, policy=POLICIES,
       handoff=st.floats(0.0, 1e-3), percentiles=PERCENTILES,
       overhead=OVERHEADS)
def test_estimate_pipeline_matches_reference(pipeline, data, rate, policy,
                                             handoff, percentiles, overhead):
    pools = {stage.name: data.draw(FLEETS, label=stage.name)
             for stage in pipeline.stages}
    assert_matches(lambda module, cache: module.estimate_pipeline(
        pipeline, pools, rate, policy=policy, handoff_seconds=handoff,
        percentiles=percentiles, service_times=ServiceTimes(overhead, cache)),
        percentiles)


@settings(max_examples=80, deadline=None)
@given(prefill=st.sampled_from(["1xvitality", "2xvitality",
                                "1xvitality,1xgpu:taylor"]),
       decode=st.sampled_from(["1xvitality", "3xvitality", "2xgpu:taylor",
                               "1xgpu:taylor,1xvitality"]),
       rate=st.floats(-1.0, 3.0).map(lambda exponent: 10.0 ** exponent),
       prompt_tokens=st.sampled_from([1, 32, 100, 512, 1024]),
       output_tokens=st.one_of(st.just(1), st.integers(2, 64)),
       prefill_chunk=st.sampled_from([32, 128, 256, 512]),
       max_batch=st.integers(1, 32),
       capacity=st.one_of(st.none(), st.integers(1, 20_000)),
       kv_bucket=st.sampled_from([16, 64, 256]),
       percentiles=PERCENTILES, overhead=OVERHEADS)
def test_estimate_llm_pools_matches_reference(
        prefill, decode, rate, prompt_tokens, output_tokens, prefill_chunk,
        max_batch, capacity, kv_bucket, percentiles, overhead):
    kv = KVCacheConfig(capacity_tokens=capacity)
    assert_matches(lambda module, cache: module.estimate_llm_pools(
        prefill, decode, rate, "decoder", prompt_tokens=prompt_tokens,
        output_tokens=output_tokens, prefill_chunk=prefill_chunk,
        max_batch=max_batch, kv=kv, step_overhead_seconds=overhead,
        kv_bucket=kv_bucket, percentiles=percentiles, cache=cache),
        percentiles)


@pytest.mark.parametrize("extra", [(0.9900001,), (0.9, 0.5000001),
                                   (0.25, 0.2500000001, 0.25)],
                         ids=["p99", "p50", "p25"])
def test_percentiles_sharing_a_label_are_refused(extra):
    """The strategies above seldom draw two fractions that agree to six
    significant digits of the percent; these always do."""

    percentiles = (*DEFAULT_PERCENTILES, *extra)
    assert _shared_label(percentiles) is not None
    assert_matches(lambda module, cache: module.estimate_fleet(
        "2xvitality", 600.0, "deit-tiny", percentiles=percentiles,
        service_times=ServiceTimes(0.0, cache)), percentiles)
    assert_matches(lambda module, cache: module.estimate_pipeline(
        "two = encoder[tokens=128] -> deit-tiny",
        {"encoder": "1xvitality", "deit-tiny": "1xvitality"}, 60.0,
        percentiles=percentiles, service_times=ServiceTimes(0.0, cache)),
        percentiles)
    assert_matches(lambda module, cache: module.estimate_llm_pools(
        "1xvitality", "1xvitality", 2.0, "decoder", percentiles=percentiles,
        cache=cache), percentiles)
