"""Discrete-event inference-serving simulation on top of :mod:`repro.engine`.

Where the engine answers "how fast is one run of model M on target T", this
package answers the fleet-level questions the ROADMAP's serving north-star
needs: tail latency, SLO attainment, sustained throughput and energy per
request under load.  The pieces:

* :mod:`traffic` — seeded arrival generators (Poisson, bursty/MMPP, diurnal,
  trace replay), each request naming a workload;
* :mod:`batching` — pluggable batch formation (FIFO no-batching,
  size-triggered, timeout-based), folding queued requests into batched
  ``RunSpec`` dispatches;
* :mod:`cluster` — heterogeneous fleets of engine targets with least-loaded
  and energy-aware routing;
* :mod:`simulator` — the deterministic event-loop kernel shared by
  :func:`serve`, :func:`serve_pipeline` and :func:`serve_llm`, the replica
  batching the first two add to it, plus :func:`compare`;
* :mod:`llm` — autoregressive serving: continuous (iteration-level) batching
  vs monolithic gangs, chunked prefill, KV-cache admission and
  prefill/decode-disaggregated fleets via :func:`serve_llm`;
* :mod:`pipeline` — multi-stage request DAGs (RAG chains, cascade
  draft→verify) traversing per-stage replica pools of that kernel via
  :func:`serve_pipeline`;
* :mod:`metrics` — the one :class:`ReportAccumulator` fold every loop hands
  its completed requests to, exact or streaming, rendered as the
  JSON-serialisable :class:`ServeReport` (p50/p95/p99, throughput,
  utilisation, SLO violations, energy/request, cache traffic).

Typical use::

    from repro.serve import Fleet, PoissonTraffic, WorkloadMix, serve

    traffic = PoissonTraffic(rate=200.0, mix=WorkloadMix.of(["deit-tiny"]))
    report = serve(traffic, Fleet.parse("2xvitality"), policy="size",
                   duration=5.0, seed=0)
    print(report.throughput_rps, report.latency.p99, report.to_json())
"""

from repro.serve.batching import (
    BATCH_POLICIES,
    BatchPolicy,
    FIFOPolicy,
    SizeBatchPolicy,
    TimeoutBatchPolicy,
    make_policy,
)
from repro.serve.cluster import (
    ROUTERS,
    EnergyAwareRouter,
    Estimate,
    Fleet,
    LeastLoadedRouter,
    LoadIndex,
    Replica,
    ReplicaSpec,
    Router,
    make_router,
)
from repro.serve.llm import (
    DEFAULT_HANDOFF_SECONDS,
    DEFAULT_MAX_BATCH,
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PREFILL_CHUNK,
    DEFAULT_PROMPT_TOKENS,
    DEFAULT_TPOT_SLO,
    DEFAULT_TTFT_SLO,
    KVCacheConfig,
    LLMReplica,
    LLMRequest,
    SCHEDULERS,
    serve_llm,
)
from repro.serve.pipeline import (
    DEFAULT_STAGE_HANDOFF,
    PipelineSpec,
    PipelineStage,
    StageRoute,
    serve_pipeline,
)
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    SUMMARY_MODES,
    ExactLatency,
    LatencySummary,
    ReplicaReport,
    ReportAccumulator,
    ScaleEvent,
    ServeReport,
    WindowReport,
    build_report,
    percentile,
    percentile_label,
)
from repro.serve.simulator import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_DISPATCH_OVERHEAD,
    DEFAULT_SLO,
    compare,
    serve,
)
from repro.serve.traffic import (
    TRAFFIC_PATTERNS,
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    ReplayTraffic,
    Request,
    TokenDistribution,
    TokenProfile,
    TrafficPattern,
    WorkloadMix,
    iter_arrivals,
    make_traffic,
)

__all__ = [
    "BATCH_POLICIES",
    "BatchPolicy",
    "BurstyTraffic",
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_DISPATCH_OVERHEAD",
    "DEFAULT_HANDOFF_SECONDS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_OUTPUT_TOKENS",
    "DEFAULT_PERCENTILES",
    "DEFAULT_PREFILL_CHUNK",
    "DEFAULT_PROMPT_TOKENS",
    "DEFAULT_SLO",
    "DEFAULT_STAGE_HANDOFF",
    "DEFAULT_TPOT_SLO",
    "DEFAULT_TTFT_SLO",
    "DiurnalTraffic",
    "EnergyAwareRouter",
    "Estimate",
    "ExactLatency",
    "FIFOPolicy",
    "Fleet",
    "KVCacheConfig",
    "LLMReplica",
    "LLMRequest",
    "LatencySummary",
    "LeastLoadedRouter",
    "LoadIndex",
    "PipelineSpec",
    "PipelineStage",
    "PoissonTraffic",
    "ROUTERS",
    "Replica",
    "ReplicaReport",
    "ReportAccumulator",
    "ReplicaSpec",
    "ReplayTraffic",
    "Request",
    "Router",
    "SCHEDULERS",
    "SUMMARY_MODES",
    "ScaleEvent",
    "ServeReport",
    "SizeBatchPolicy",
    "StageRoute",
    "TRAFFIC_PATTERNS",
    "TimeoutBatchPolicy",
    "TokenDistribution",
    "TokenProfile",
    "TrafficPattern",
    "WindowReport",
    "WorkloadMix",
    "build_report",
    "iter_arrivals",
    "compare",
    "make_policy",
    "make_router",
    "make_traffic",
    "percentile",
    "percentile_label",
    "serve",
    "serve_llm",
    "serve_pipeline",
]
