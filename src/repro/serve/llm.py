"""Continuous batching and prefill/decode disaggregation for LLM serving.

Classic :func:`repro.serve.serve` treats a request as one monolithic batch
job.  Autoregressive workloads are different: a request *prefills* its
prompt once (parallel over tokens, compute-bound) and then *decodes* one
token at a time against its growing KV cache (bandwidth-bound, hundreds of
tiny steps).  :func:`serve_llm` models the two serving disciplines built
around that split:

* **Continuous (iteration-level) batching** — every decode replica runs a
  rolling batch; requests join the moment their prefill hands over and leave
  the moment their last token is generated, at iteration granularity.  Each
  step lowers the current batch to one engine run of
  ``decoder[tokens=1,kv_tokens=K,phase=decode]`` (``K`` bucketed so the
  result cache stays small) at ``batch_size = len(batch)``; prefill runs as
  chunked ``phase=prefill`` calls through the same engine.
* **Monolithic (request-level) batching** — the classic baseline: a gang of
  up to ``max_batch`` requests is admitted together, prefilled sequentially
  and decoded in lockstep at the *initial* gang size until the longest
  member finishes.  Early finishers pad the batch and their KV stays
  resident, which is exactly the waste continuous batching removes.

Replicas carry **KV-cache accounting**: capacity derives from the hardware
core's SRAM knob (``target_sram_kb`` times a DRAM-backing ratio, divided by
the model's bytes-per-token) and admission is reservation-based — a request
reserves ``prompt + output`` tokens when its prefill is admitted and frees
them on completion, so admission blocks (queues) when KV is full and a
completion unblocks the queue head.

Fleets come in two shapes.  A **colocated** fleet (``fleet=...``) serves
both phases on every replica — prefill chunks interleave with decode steps,
so a long prompt stalls every in-flight decode on that replica (TPOT
interference).  A **disaggregated** deployment (``prefill_fleet=`` +
``decode_fleet=``) dedicates one pool per phase, with a ``handoff_seconds``
KV-transfer event between them: decode steps never wait behind prefill, at
the cost of the handoff latency and a statically split fleet.

TTFT (time-to-first-token: arrival to prefill completion) and TPOT
(time-per-output-token over the decode phase) are threaded through
:class:`~repro.serve.metrics.ServeReport` as additive ``ttft`` / ``tpot``
latency summaries plus an ``llm`` token-accounting block.  Determinism
matches the classic simulator, whose event-loop kernel runs this one too:
one event heap with a monotone tie-break and every random draw inside the
traffic pattern, so a fixed (traffic, fleets, scheduler, duration, seed)
tuple maps to one bit-exact report.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine import ResultCache, RunResult, RunSpec, resolve, target_sram_kb
from repro.knobs import is_count
from repro.serve.cluster import Fleet, Replica, ReplicaSpec
from repro.serve.metrics import DEFAULT_PERCENTILES, ServeReport
from repro.serve.simulator import _Kernel
from repro.serve.traffic import (
    Request,
    TrafficPattern,
    check_counts,
    check_finite,
    traffic_models,
)
from repro.workloads import configured_name, get_family, get_workload

logger = logging.getLogger(__name__)

#: Scheduler names accepted by :func:`serve_llm` and the CLI.
SCHEDULERS = ("continuous", "monolithic")

#: Replica roles an LLM run reports (``role`` in each replica report).
ROLE_UNIFIED = "unified"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"

#: Token defaults for requests whose traffic carries no per-request counts.
DEFAULT_PROMPT_TOKENS = 512
DEFAULT_OUTPUT_TOKENS = 64

#: Default prompt-chunk size for prefill (one engine call per chunk).
DEFAULT_PREFILL_CHUNK = 256

#: Default cap on a decode batch (and a monolithic gang).
DEFAULT_MAX_BATCH = 8

#: Host-side cost of launching one iteration (chunk or decode step) — the
#: per-step overhead continuous batching amortises across the batch.
DEFAULT_STEP_OVERHEAD = 2e-4

#: KV-cache transfer delay from a prefill replica to a decode replica.
DEFAULT_HANDOFF_SECONDS = 2e-3

#: KV lengths are rounded up to this granularity when lowered to the engine,
#: so a run touches O(tens) of distinct decode shapes instead of one per step.
DEFAULT_KV_BUCKET = 256

#: Default per-phase SLOs (seconds): time-to-first-token, time-per-output-token.
DEFAULT_TTFT_SLO = 0.2
DEFAULT_TPOT_SLO = 0.01

#: Default end-to-end latency SLO for LLM runs (a full prefill+decode pass is
#: orders slower than one classic batch job, so the classic 50 ms is wrong).
DEFAULT_LLM_SLO = 1.0


@dataclass(frozen=True)
class KVCacheConfig:
    """How replica KV-cache capacity is derived and accounted.

    Capacity per replica is ``sram_kb * 1024 * dram_ratio`` bytes — the
    accelerator's SRAM knob scaled by the off-chip pool backing it — divided
    by the model's KV bytes per token (``(qk_dim + v_dim) * heads`` summed
    over layers, at ``bytes_per_value`` precision).  Platform targets (no
    SRAM model) fall back to ``platform_sram_kb``; ``capacity_tokens`` pins
    the capacity directly, bypassing the derivation (the tests' knob).
    Multi-model runs convert conservatively at the largest bytes-per-token.
    """

    capacity_tokens: int | None = None
    bytes_per_value: int = 2
    dram_ratio: float = 1024.0
    platform_sram_kb: float = 512.0

    def __post_init__(self):
        check_counts(bytes_per_value=self.bytes_per_value)
        if self.capacity_tokens is not None:
            check_counts(capacity_tokens=self.capacity_tokens)
        check_finite(dram_ratio=self.dram_ratio,
                     platform_sram_kb=self.platform_sram_kb)

    def bytes_per_token(self, workload) -> int:
        """KV bytes one cached token costs for ``workload``'s geometry."""

        values = sum((layer.qk_dim + layer.v_dim) * layer.heads * layer.repeats
                     for layer in workload.attention_layers)
        return values * self.bytes_per_value

    def capacity_for(self, spec: ReplicaSpec, bytes_per_token: int) -> int:
        """KV capacity (tokens) of one ``spec`` replica."""

        if self.capacity_tokens is not None:
            return self.capacity_tokens
        sram_kb = target_sram_kb(spec.target)
        if sram_kb is None:
            sram_kb = self.platform_sram_kb
        return max(1, int(sram_kb * 1024 * self.dram_ratio // bytes_per_token))

    def to_dict(self) -> dict[str, object]:
        return {"capacity_tokens": self.capacity_tokens,
                "bytes_per_value": self.bytes_per_value,
                "dram_ratio": self.dram_ratio,
                "platform_sram_kb": self.platform_sram_kb}


class LLMRequest:
    """Mutable in-flight state of one autoregressive request."""

    __slots__ = ("index", "model", "arrival", "prompt_tokens", "output_tokens",
                 "decode_target", "prefilled", "decoded", "prefill_start",
                 "first_token_time", "completion", "decode_batch")

    def __init__(self, request: Request, prompt_tokens: int, output_tokens: int):
        if not (is_count(prompt_tokens) and is_count(output_tokens)):
            raise ValueError(f"request {request.index} needs integer "
                             f"prompt_tokens and output_tokens >= 1, got "
                             f"{prompt_tokens!r}/{output_tokens!r}")
        self.index = request.index
        self.model = request.model
        self.arrival = request.arrival
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        # Decode steps still owed after prefill emits the first token.
        self.decode_target = output_tokens - 1
        self.prefilled = 0                      # prompt tokens cached so far
        self.decoded = 0                        # tokens generated after the first
        self.prefill_start: float | None = None
        self.first_token_time: float | None = None
        self.completion: float | None = None
        self.decode_batch = 1                   # batch size when decode admitted

    @property
    def reserved_tokens(self) -> int:
        """KV tokens a reservation-based admission holds for this request."""

        return self.prompt_tokens + self.output_tokens


class LLMReplica(Replica):
    """One LLM-serving instance: a :class:`~repro.serve.cluster.Replica`
    (its ``batches`` count engine dispatches, chunks plus steps) with
    KV-cache accounting and the LLM extras its report row carries (role,
    KV capacity/peak, decode steps)."""

    def __init__(self, index: int, ordinal: int, spec: ReplicaSpec, role: str,
                 kv_capacity: int):
        super().__init__(index, ordinal, spec,
                         name_prefix="" if role == ROLE_UNIFIED else f"{role}/")
        self.role = role
        self.kv_capacity = kv_capacity
        self.kv_used = 0
        self.kv_peak = 0
        self.decode_steps = 0
        self.prefill_queue: deque[LLMRequest] = deque()
        self.queued_prompt_tokens = 0              # summed over prefill_queue
        self.current_prefill: LLMRequest | None = None
        self.decode_ready: list[LLMRequest] = []   # KV-admitted, awaiting a slot
        self.batch: list[LLMRequest] = []          # running decode batch
        self.gang: list[LLMRequest] = []           # monolithic request-level gang
        self.gang_steps_left = 0

    @property
    def kv_free(self) -> int:
        return self.kv_capacity - self.kv_used

    def reserve(self, tokens: int) -> None:
        self.kv_used += tokens
        self.kv_peak = max(self.kv_peak, self.kv_used)

    def release(self, tokens: int) -> None:
        self.kv_used -= tokens

    def queue_prefill(self, request: LLMRequest) -> None:
        self.prefill_queue.append(request)
        self.queued_prompt_tokens += request.prompt_tokens

    def next_prefill(self) -> LLMRequest:
        request = self.prefill_queue.popleft()
        self.queued_prompt_tokens -= request.prompt_tokens
        return request

    @property
    def slots_used(self) -> int:
        return len(self.batch) + len(self.decode_ready) + len(self.gang)

    @property
    def pending_load(self) -> int:
        """Requests routed here and not yet finished (routing tie-break)."""

        return (len(self.prefill_queue) + self.slots_used
                + (1 if self.current_prefill is not None else 0))

    @property
    def pending_prefill_tokens(self) -> int:
        """Prompt tokens routed here and not yet prefilled (disaggregated
        routing key); the queued part is a running count, not a scan."""

        tokens = self.queued_prompt_tokens
        if self.current_prefill is not None:
            tokens += self.current_prefill.prompt_tokens - self.current_prefill.prefilled
        return tokens


def _check_sequence_model(model: str) -> None:
    """LLM serving needs a family with the autoregressive knob set."""

    base = model.partition("[")[0]
    family = get_family(base)        # unknown names raise here with the usual hint
    if "phase" not in family.schema.knobs:
        raise ValueError(
            f"LLM serving needs a sequence-family workload with "
            f"kv_tokens/phase knobs (encoder, decoder, transformer); "
            f"got {model!r} from family {base!r}")


def _bucket(kv_tokens: int, granularity: int) -> int:
    return max(granularity, math.ceil(kv_tokens / granularity) * granularity)


def serve_llm(traffic: TrafficPattern, fleet: Fleet | str | None = None, *,
              prefill_fleet: Fleet | str | None = None,
              decode_fleet: Fleet | str | None = None,
              scheduler: str = "continuous",
              duration: float, seed: int = 0,
              prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
              output_tokens: int = DEFAULT_OUTPUT_TOKENS,
              prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
              max_batch: int = DEFAULT_MAX_BATCH,
              kv: KVCacheConfig | None = None,
              step_overhead_seconds: float = DEFAULT_STEP_OVERHEAD,
              handoff_seconds: float = DEFAULT_HANDOFF_SECONDS,
              kv_bucket: int = DEFAULT_KV_BUCKET,
              ttft_slo_seconds: float = DEFAULT_TTFT_SLO,
              tpot_slo_seconds: float = DEFAULT_TPOT_SLO,
              slo_seconds: float = DEFAULT_LLM_SLO,
              percentiles: Sequence[float] = DEFAULT_PERCENTILES,
              cache: ResultCache | None = None,
              summary: str = "exact",
              obs=None) -> ServeReport:
    """Run one LLM-serving simulation and return its :class:`ServeReport`.

    Pass ``fleet`` for a colocated deployment (every replica serves both
    phases) or ``prefill_fleet`` + ``decode_fleet`` for a disaggregated one
    (mutually exclusive; spec strings like ``"2xvitality"`` are accepted
    everywhere).  ``scheduler`` is ``"continuous"`` (iteration-level) or
    ``"monolithic"`` (request-level gangs, colocated fleets only — it is the
    baseline continuous batching is measured against).

    Requests take their prompt/output token counts from the traffic (token
    profiles or token-carrying traces), falling back to ``prompt_tokens`` /
    ``output_tokens``.  KV capacity is sized from the models the *traffic
    declares* (mix entries or trace models; a pattern that declares none is
    generated once to learn them), not the models that happen to arrive.  A
    request whose KV reservation cannot fit the largest relevant replica
    raises ``ValueError`` when it arrives; one that fits only when capacity
    frees simply queues.  The report's ``ttft`` / ``tpot`` summaries and
    ``llm`` block carry the phase-level results.

    ``summary`` mirrors :func:`repro.serve.serve` and picks only the latency
    sample: ``"exact"`` (default) folds every completion's latency, TTFT and
    TPOT in request-index order into exact order statistics; ``"streaming"``
    folds each completion into P² sketches at once, bounding memory for
    arbitrarily long runs.  Both modes pull arrivals lazily.

    ``obs`` (a :class:`repro.obs.Observability`) attaches tracing, streaming
    metrics and/or progress reporting; hooks are pure observers and
    ``obs=None`` skips them all, so reports stay bit-identical either way.
    """

    disaggregated = prefill_fleet is not None or decode_fleet is not None
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; "
                         f"available: {', '.join(SCHEDULERS)}")
    if disaggregated:
        if fleet is not None:
            raise ValueError("pass either fleet= (colocated) or "
                             "prefill_fleet=+decode_fleet= (disaggregated), not both")
        if prefill_fleet is None or decode_fleet is None:
            raise ValueError("disaggregated serving needs both prefill_fleet "
                             "and decode_fleet")
        if scheduler == "monolithic":
            raise ValueError("monolithic batching is the colocated baseline; "
                             "disaggregated pools imply continuous scheduling")
    elif fleet is None:
        raise ValueError("serve_llm needs a fleet (colocated) or "
                         "prefill_fleet+decode_fleet (disaggregated)")
    check_counts(prompt_tokens=prompt_tokens, output_tokens=output_tokens,
                 prefill_chunk=prefill_chunk, max_batch=max_batch,
                 kv_bucket=kv_bucket)
    check_finite(ttft_slo_seconds=ttft_slo_seconds,
                 tpot_slo_seconds=tpot_slo_seconds)
    check_finite(step_overhead_seconds=step_overhead_seconds,
                 handoff_seconds=handoff_seconds, allow_zero=True)
    kernel = _Kernel(traffic, duration=duration, seed=seed,
                     slo_seconds=slo_seconds, cache=cache,
                     percentiles=percentiles, summary=summary, obs=obs,
                     label="serve-llm", llm=True)
    kv = KVCacheConfig() if kv is None else kv

    def _parse(spec: Fleet | str) -> Fleet:
        return Fleet.parse(spec) if isinstance(spec, str) else spec

    # KV capacity follows the models the traffic declares; a pattern that
    # declares none is generated once to learn them, and that list is what
    # the kernel then serves.
    models = traffic_models(traffic)
    arrivals = None
    if models is None:
        arrivals = traffic.arrivals(duration, seed)
        models = sorted({request.model for request in arrivals})
    for model in models:
        _check_sequence_model(model)
    bytes_per_token = max((kv.bytes_per_token(get_workload(model))
                           for model in models), default=1)

    def _pool(fleet_spec: Fleet | str, role: str, start_index: int
              ) -> list[LLMReplica]:
        ordinals: dict[str, int] = {}
        replicas = []
        for offset, spec in enumerate(_parse(fleet_spec).replica_specs):
            ordinal = ordinals.get(spec.label, 0)
            ordinals[spec.label] = ordinal + 1
            capacity = kv.capacity_for(spec, bytes_per_token)
            replicas.append(LLMReplica(start_index + offset, ordinal, spec,
                                       role, capacity))
        return replicas

    if disaggregated:
        prefill_pool = _pool(prefill_fleet, ROLE_PREFILL, 0)
        decode_pool = _pool(decode_fleet, ROLE_DECODE, len(prefill_pool))
        all_replicas = prefill_pool + decode_pool
    else:
        prefill_pool = decode_pool = all_replicas = _pool(fleet, ROLE_UNIFIED, 0)
    prefill_cap = max(replica.kv_capacity for replica in prefill_pool)
    decode_cap = max(replica.kv_capacity for replica in decode_pool)

    # Runtime events (chunks, steps, gangs, handoffs) go on the kernel's
    # heap, sequenced by its runtime counter.
    events, sequence, cache = kernel.events, kernel.sequence, kernel.cache
    accumulator = kernel.accumulator
    ttft_ok = tpot_ok = tpot_count = joint_ok = 0
    pending_decode: deque[LLMRequest] = deque()     # disaggregated pool queue
    total_prefill_tokens = 0
    total_generated = 0

    # Each iteration shape is resolved once per run, to its canonical spec
    # and its target's simulator; every chunk and step then makes one cache
    # lookup, with ``simulate``'s hits, misses and LRU order.
    shapes: dict[tuple, tuple[RunSpec, Callable[[RunSpec], RunResult]]] = {}
    get_or_run = cache.get_or_run

    def run_iteration(replica: LLMReplica, now: float, kind: str, payload,
                      model: str, phase: str, tokens: int, kv_tokens: int,
                      batch_size: int) -> float:
        """Simulate, charge and schedule one prefill chunk or decode step."""

        target, attention = replica.spec.target, replica.spec.attention
        key = (model, phase, tokens, kv_tokens, target, attention, batch_size)
        shape = shapes.get(key)
        if shape is None:
            name = configured_name(model, tokens=tokens, kv_tokens=kv_tokens,
                                   phase=phase)
            resolved, spec = resolve(RunSpec(name, target=target,
                                             attention=attention,
                                             batch_size=batch_size))
            shape = shapes[key] = (spec, resolved.simulate)
        result = get_or_run(*shape)
        service = step_overhead_seconds + result.end_to_end_latency
        replica.busy_until = finish = now + service
        replica.busy_seconds += service
        replica.energy_joules += result.end_to_end_energy
        replica.batches += 1
        heapq.heappush(events, (finish, next(sequence), kind, payload))
        return finish

    def run_prefill_chunk(replica: LLMReplica, now: float) -> None:
        request = replica.current_prefill
        chunk = min(prefill_chunk, request.prompt_tokens - request.prefilled)
        finish = run_iteration(replica, now, "chunk", (replica, request, chunk),
                               request.model, "prefill", chunk,
                               request.prefilled + chunk, 1)
        if obs is not None:
            obs.prefill_chunk(replica, request, now, finish, chunk)
        logger.debug("t=%.6f %s: prefill chunk of %d tokens for request %d",
                     now, replica.name, chunk, request.index)

    def run_decode_step(replica: LLMReplica, now: float, kind: str,
                        members: list[LLMRequest]) -> None:
        # A monolithic gang is charged at its full size: members that
        # already finished pad the batch until the gang drains.
        batch = tuple(members)
        kv_tokens = 0
        for request in batch:
            tokens = request.prompt_tokens + request.decoded
            if tokens > kv_tokens:
                kv_tokens = tokens
        # ``_bucket``'s KV bucket in integers; a prompt holds at least one
        # token, so its floor of one bucket never binds.
        finish = run_iteration(replica, now, kind, (replica, batch),
                               batch[0].model, "decode", 1,
                               -(-kv_tokens // kv_bucket) * kv_bucket, len(batch))
        replica.decode_steps += 1
        if obs is not None:
            obs.decode_step(replica, batch, now, finish)

    def record_completion(request: LLMRequest, replica: LLMReplica,
                          now: float, batch_size: int) -> None:
        nonlocal ttft_ok, tpot_ok, tpot_count, joint_ok
        request.completion = now
        replica.served += 1
        ttft = request.first_token_time - request.arrival
        tpot = None
        if request.decode_target:
            tpot = (now - request.first_token_time) / request.decode_target
            tpot_count += 1
            if tpot <= tpot_slo_seconds:
                tpot_ok += 1
        if ttft <= ttft_slo_seconds:
            ttft_ok += 1
            if tpot is None or tpot <= tpot_slo_seconds:
                joint_ok += 1
        accumulator.observe(request.model, request.arrival,
                            request.prefill_start, now, request.index, ttft,
                            tpot)
        if obs is not None:
            obs.request_completed(request, replica, now, batch_size)

    def admit_ready(replica: LLMReplica, now: float) -> None:
        """Fold KV-admitted requests into the running batch (same model only —
        a decode step lowers to one engine shape); ``decode_ready`` is not
        empty."""

        model = replica.batch[0].model if replica.batch \
            else replica.decode_ready[0].model
        kept = []
        for request in replica.decode_ready:
            if len(replica.batch) < max_batch and request.model == model:
                request.decode_batch = len(replica.batch) + 1
                replica.batch.append(request)
                if obs is not None:
                    obs.decode_joined(request, replica, now)
            else:
                kept.append(request)
        replica.decode_ready = kept

    def admit_decode_pool(now: float) -> None:
        """Strict-FIFO admission from the disaggregated pool queue."""

        while pending_decode:
            head = pending_decode[0]
            candidates = [replica for replica in decode_pool
                          if replica.slots_used < max_batch
                          and head.reserved_tokens <= replica.kv_free]
            if not candidates:
                return
            replica = max(candidates,
                          key=lambda r: (r.kv_free, -r.index))
            pending_decode.popleft()
            replica.reserve(head.reserved_tokens)
            replica.decode_ready.append(head)
            if obs is not None:
                obs.decode_admitted(head, replica, now)
            kick(replica, now)

    def finish_prefill(replica: LLMReplica, request: LLMRequest,
                       now: float) -> None:
        request.first_token_time = now
        replica.current_prefill = None
        if obs is not None:
            obs.prefill_finished(request, replica, now)
        if scheduler == "monolithic":
            if request.decode_target == 0:
                request.completion = now    # recorded at gang retirement
        elif disaggregated:
            replica.release(request.prompt_tokens)   # KV ships to the decode pool
            if request.decode_target == 0:
                record_completion(request, replica, now, batch_size=1)
            else:
                heapq.heappush(events, (now + handoff_seconds, next(sequence),
                                        "handoff", request))
                if obs is not None:
                    obs.handoff(request, replica, now, now + handoff_seconds)
        elif request.decode_target == 0:
            replica.release(request.reserved_tokens)
            record_completion(request, replica, now, batch_size=1)
        else:
            replica.decode_ready.append(request)
            if obs is not None:
                obs.decode_pending(request, now)

    def form_gang(replica: LLMReplica, now: float) -> None:
        while (replica.prefill_queue and len(replica.gang) < max_batch
               and replica.prefill_queue[0].reserved_tokens <= replica.kv_free):
            request = replica.next_prefill()
            replica.reserve(request.reserved_tokens)
            request.prefill_start = now
            replica.gang.append(request)
            if obs is not None:
                obs.prefill_admitted(request, replica, now)
        replica.gang_steps_left = -1        # set once every prefill completes

    def kick_monolithic(replica: LLMReplica, now: float) -> None:
        if not replica.gang:
            form_gang(replica, now)
            if not replica.gang:
                return
        if replica.current_prefill is None:
            for member in replica.gang:
                if member.prefilled < member.prompt_tokens:
                    replica.current_prefill = member
                    break
        if replica.current_prefill is not None:
            run_prefill_chunk(replica, now)
            return
        if replica.gang_steps_left < 0:     # prefills just drained: arm decode
            replica.gang_steps_left = max(member.decode_target
                                          for member in replica.gang)
            if replica.gang_steps_left == 0:
                retire_gang(replica, now)
                kick_monolithic(replica, now)
                return
        if replica.gang_steps_left > 0:
            run_decode_step(replica, now, "gang", replica.gang)

    def retire_gang(replica: LLMReplica, now: float) -> None:
        size = len(replica.gang)
        for member in replica.gang:
            replica.release(member.reserved_tokens)
            record_completion(member, replica,
                              member.completion if member.completion is not None
                              else now, batch_size=size)
        replica.gang = []

    def kick(replica: LLMReplica, now: float) -> None:
        if replica.busy_until > now:
            return
        if scheduler == "monolithic":
            kick_monolithic(replica, now)
            return
        if replica.decode_ready:
            admit_ready(replica, now)
        if replica.role != ROLE_DECODE:
            if replica.current_prefill is None and replica.prefill_queue:
                head = replica.prefill_queue[0]
                need = (head.prompt_tokens if disaggregated
                        else head.reserved_tokens)
                if need <= replica.kv_free:
                    replica.next_prefill()
                    replica.reserve(need)
                    head.prefill_start = now
                    replica.current_prefill = head
                    if obs is not None:
                        obs.prefill_admitted(head, replica, now)
            # Prefill-priority: new prompts preempt the decode batch at the
            # iteration boundary — colocated TPOT pays for it, which is the
            # interference disaggregation exists to remove.
            if replica.current_prefill is not None:
                run_prefill_chunk(replica, now)
                return
        if replica.batch:
            run_decode_step(replica, now, "step", replica.batch)

    def arrive(raw: Request, now: float, last: bool) -> None:
        # Feasibility is checked per request, so an impossible request is a
        # clean ValueError, not an event loop that never drains.
        request = LLMRequest(raw, raw.prompt_tokens or prompt_tokens,
                             raw.output_tokens or output_tokens)
        need = request.prompt_tokens if disaggregated else request.reserved_tokens
        if need > prefill_cap:
            raise ValueError(
                f"request {request.index} ({request.model!r}) needs {need} KV "
                f"tokens for prefill admission but the largest "
                f"{'prefill ' if disaggregated else ''}replica holds "
                f"{prefill_cap}")
        if disaggregated and request.reserved_tokens > decode_cap:
            raise ValueError(
                f"request {request.index} ({request.model!r}) needs "
                f"{request.reserved_tokens} KV tokens for decode admission "
                f"but the largest decode replica holds {decode_cap}")
        if disaggregated:
            replica = min(prefill_pool,
                          key=lambda r: (r.pending_prefill_tokens, r.index))
        else:
            replica = min(prefill_pool,
                          key=lambda r: (r.pending_load, r.index))
        replica.queue_prefill(request)
        if obs is not None:
            obs.request_routed(request, replica, now,
                               len(replica.prefill_queue))
        kick(replica, now)

    def on_chunk(payload: tuple, now: float) -> None:
        nonlocal total_prefill_tokens
        replica, request, chunk = payload
        request.prefilled += chunk
        total_prefill_tokens += chunk
        if request.prefilled >= request.prompt_tokens:
            finish_prefill(replica, request, now)
        kick(replica, now)

    def on_step(payload: tuple, now: float) -> None:
        nonlocal total_generated
        replica, batch = payload
        for request in batch:
            request.decoded += 1
            total_generated += 1
            if request.decoded >= request.decode_target:
                replica.batch.remove(request)
                replica.release(request.reserved_tokens)
                record_completion(request, replica, now,
                                  batch_size=request.decode_batch)
        if disaggregated:
            admit_decode_pool(now)
        kick(replica, now)

    def on_gang(payload: tuple, now: float) -> None:
        nonlocal total_generated
        replica, gang = payload
        replica.gang_steps_left -= 1
        for member in gang:
            if member.decoded < member.decode_target:
                member.decoded += 1
                total_generated += 1
                if (member.decoded >= member.decode_target
                        and member.completion is None):
                    member.completion = now
        if replica.gang_steps_left == 0:
            retire_gang(replica, now)
        kick(replica, now)

    def on_handoff(request: LLMRequest, now: float) -> None:
        pending_decode.append(request)
        admit_decode_pool(now)

    kernel.run(all_replicas, arrive,
               {"chunk": on_chunk, "step": on_step, "gang": on_gang,
                "handoff": on_handoff}, arrivals)

    makespan = max(duration, accumulator.last_completion)
    total_steps = sum(replica.decode_steps for replica in all_replicas)
    completed = accumulator.completed
    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "scheduler": scheduler,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "prompt_tokens": prompt_tokens,
        "output_tokens": output_tokens,
        "prefill_chunk": prefill_chunk,
        "max_batch": max_batch,
        "step_overhead_seconds": step_overhead_seconds,
        "kv_bucket": kv_bucket,
        "ttft_slo_seconds": ttft_slo_seconds,
        "tpot_slo_seconds": tpot_slo_seconds,
        "kv": kv.to_dict(),
    }
    if disaggregated:
        config["prefill_fleet"] = _parse(prefill_fleet).describe()
        config["decode_fleet"] = _parse(decode_fleet).describe()
        config["handoff_seconds"] = handoff_seconds
    else:
        config["fleet"] = _parse(fleet).describe()

    llm_block: dict[str, object] = {
        "scheduler": scheduler,
        "disaggregated": disaggregated,
        "prefill_tokens": total_prefill_tokens,
        "generated_tokens": total_generated,
        "decode_steps": total_steps,
        "mean_decode_batch": (total_generated / total_steps
                              if total_steps else 0.0),
        "decode_tokens_per_second": total_generated / makespan,
        "ttft_slo_seconds": ttft_slo_seconds,
        "tpot_slo_seconds": tpot_slo_seconds,
        "ttft_attainment": ttft_ok / completed if completed else 1.0,
        "tpot_attainment": tpot_ok / tpot_count if tpot_count else 1.0,
        "slo_attainment": joint_ok / completed if completed else 1.0,
        "kv_bytes_per_token": bytes_per_token,
    }
    return kernel.report(config, all_replicas, llm=llm_block)
