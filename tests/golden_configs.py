"""Shared serving and planning configs pinned by ``tests/data/*_goldens.json``.

``build_golden_reports()`` runs every pinned serving config through the
library and returns ``{name: report.to_json()}`` — plus, for the traced
runs, the sha256 of the Chrome trace JSON — pinned by ``serve_goldens.json``.
``build_plan_goldens()`` returns ``{name: json.dumps(payload)}`` for the
three capacity planners, pinned by ``plan_goldens.json``.  The first six
serving goldens were captured before the streaming-summary refactor landed,
so the test asserting equality is the bit-identity contract for
``summary="exact"`` (the default): lazy arrivals, the incremental load index
and the heapify seeding must all reproduce the pre-refactor event order and
report bytes exactly.  The streaming, pipeline, trace and planner entries
were captured before ``serve()`` and ``serve_pipeline()`` shared one event
loop and the planners one search driver, and pin those refactors the same
way.  The three-model streaming, streaming LLM and Prometheus-digest entries
were captured before the streaming summaries folded their P² sketches a
batch at a time, and pin that change: every per-model count, quantile and
exported sample must come out as the one-value-at-a-time fold made them.
The two-model LLM entries (continuous, monolithic and disaggregated on a
mixed, attention-pinned fleet) were captured while ``serve_llm`` still built
a new engine spec on every iteration, and pin building each distinct shape's
spec once per run.  The shape-churn LLM entries (two models with short
prompts and outputs at 400 rps, 16-token KV buckets and batches of at most
3, so the decode shape changes on most steps and each run visits 86-87
engine shapes: continuous and monolithic on ``2xvitality``, and
disaggregated ``1xvitality`` -> ``1xgpu:taylor`` with streaming summaries)
were captured while every iteration still resolved its spec through
``simulate``, and pin resolving each shape once per run.

Regenerate (only when a report-shape change is intended and documented)::

    PYTHONPATH=src:tests python -c \
        "import json, golden_configs; json.dump(golden_configs.build_golden_reports(), \
         open('tests/data/serve_goldens.json', 'w'), indent=1)"
    PYTHONPATH=src:tests python -c \
        "import json, golden_configs; json.dump(golden_configs.build_plan_goldens(), \
         open('tests/data/plan_goldens.json', 'w'), indent=1)"
"""

import hashlib
import json

from repro.obs import (
    MetricsCollector,
    Observability,
    TraceRecorder,
    chrome_trace_json,
    prometheus_text,
)
from repro.plan import (
    Autoscaler,
    plan_capacity,
    plan_llm_capacity,
    plan_pipeline_capacity,
)
from repro.serve import (
    BurstyTraffic,
    DiurnalTraffic,
    PipelineSpec,
    PoissonTraffic,
    ReplayTraffic,
    TokenProfile,
    WorkloadMix,
    serve,
    serve_llm,
    serve_pipeline,
)

MIXED = WorkloadMix.of(["deit-tiny", "levit-128"], [2.0, 1.0])
SINGLE = WorkloadMix.of(["deit-tiny"])
THREE = WorkloadMix.of(["deit-tiny", "levit-128", "deit-small"], [3.0, 2.0, 1.0])
LLM_MIX = WorkloadMix.of(["decoder"], tokens=TokenProfile.of("64:256", "16:64"))
LLM_PAIR = WorkloadMix.of(["decoder", "decoder[layers=6]"],
                          tokens=TokenProfile.of("64:256", "16:64"))
LLM_SHORT = WorkloadMix.of(["decoder", "decoder[layers=6]"],
                           tokens=TokenProfile.of("8:40", "4:24"))
TAIL = (0.5, 0.95, 0.99, 0.999)
CHAIN = "rag = encoder[tokens=128] -> rerank:encoder[tokens=64] -> deit-tiny"
CHAIN_POOLS = {"encoder": "2xvitality", "rerank": "1xvitality",
               "deit-tiny": "1xvitality,1xgpu:taylor"}
CASCADE = PipelineSpec.cascade("cascade", "deit-tiny", "levit-128", 0.6)
CASCADE_POOLS = {"draft": "1xvitality,1xgpu", "verify": "1xvitality"}


def _autoscaler() -> Autoscaler:
    return Autoscaler("queue-depth", "vitality", max_replicas=4,
                      interval=0.25, provision_seconds=0.1)


def _trace_digest(run) -> str:
    """sha256 of the Chrome trace JSON a traced run records."""

    obs = Observability(trace=TraceRecorder())
    run(obs)
    return hashlib.sha256(chrome_trace_json(obs.trace).encode()).hexdigest()


def _prometheus_digest(run) -> str:
    """sha256 of the Prometheus text a run's metrics collector exports."""

    obs = Observability(metrics=MetricsCollector(window_seconds=0.5,
                                                 percentiles=TAIL))
    run(obs)
    return hashlib.sha256(prometheus_text(obs.metrics).encode()).hexdigest()


def build_golden_reports() -> dict[str, str]:
    reports: dict[str, str] = {}
    reports["poisson-hetero-timeout"] = serve(
        PoissonTraffic(80.0, MIXED), "2xvitality,1xgpu:taylor",
        policy="timeout", router="least-loaded", duration=2.0, seed=7,
        window_seconds=0.5).to_json()
    reports["bursty-energy-fifo"] = serve(
        BurstyTraffic(60.0, SINGLE), "1xvitality,1xgpu",
        policy="fifo", router="energy-aware", duration=2.0, seed=3).to_json()
    reports["diurnal-autoscale"] = serve(
        DiurnalTraffic(120.0, MIXED, period=3.0), "1xvitality",
        policy="size", duration=3.0, seed=11, window_seconds=0.5,
        autoscaler=Autoscaler("queue-depth", "vitality", max_replicas=4,
                              interval=0.25, provision_seconds=0.1),
        percentiles=(0.5, 0.95, 0.99, 0.999)).to_json()
    reports["replay-tail"] = serve(
        ReplayTraffic(((0.01, "deit-tiny"), (0.02, "levit-128"),
                       (0.02, "deit-tiny"), (0.5, "deit-tiny"),
                       (0.95, "levit-128"))), "1xvitality",
        policy="fifo", duration=1.0, seed=0).to_json()
    reports["llm-continuous"] = serve_llm(
        PoissonTraffic(30.0, WorkloadMix.of(
            ["decoder"], tokens=TokenProfile.of("64:256", "16:64"))),
        "2xvitality", scheduler="continuous", duration=2.0, seed=5).to_json()
    reports["llm-disagg"] = serve_llm(
        PoissonTraffic(20.0, WorkloadMix.of(["decoder"])),
        prefill_fleet="1xvitality", decode_fleet="1xvitality",
        duration=2.0, seed=9).to_json()
    reports["poisson-hetero-streaming"] = serve(
        PoissonTraffic(200.0, MIXED), "2xvitality,1xgpu:taylor",
        policy="timeout", duration=2.0, seed=7, window_seconds=0.5,
        summary="streaming").to_json()
    reports["diurnal-autoscale-streaming"] = serve(
        DiurnalTraffic(120.0, MIXED, period=3.0), "1xvitality",
        policy="size", duration=3.0, seed=11, window_seconds=0.5,
        autoscaler=_autoscaler(), summary="streaming").to_json()
    for summary in ("exact", "streaming"):
        reports[f"pipeline-chain-{summary}"] = serve_pipeline(
            PoissonTraffic(90.0, SINGLE), CHAIN, CHAIN_POOLS, duration=2.0,
            seed=4, window_seconds=0.5, stage_slo_seconds={"rerank": 0.006},
            summary=summary).to_json()
        reports[f"pipeline-cascade-{summary}"] = serve_pipeline(
            BurstyTraffic(150.0, SINGLE), CASCADE, CASCADE_POOLS,
            policy="fifo", router="energy-aware", duration=2.0, seed=3,
            summary=summary).to_json()
        reports[f"pipeline-autoscale-{summary}"] = serve_pipeline(
            DiurnalTraffic(300.0, SINGLE, period=3.0), CHAIN, CHAIN_POOLS,
            policy="timeout", duration=3.0, seed=2, window_seconds=0.5,
            autoscalers={"encoder": Autoscaler(
                "queue-depth", "vitality", max_replicas=4, interval=0.25,
                provision_seconds=0.1)},
            summary=summary).to_json()
    reports["trace-serve-autoscale-sha256"] = _trace_digest(
        lambda obs: serve(
            DiurnalTraffic(120.0, MIXED, period=3.0), "1xvitality",
            policy="size", duration=3.0, seed=11, autoscaler=_autoscaler(),
            obs=obs))
    reports["trace-pipeline-cascade-sha256"] = _trace_digest(
        lambda obs: serve_pipeline(
            BurstyTraffic(150.0, SINGLE), CASCADE, CASCADE_POOLS,
            policy="fifo", router="energy-aware", duration=2.0, seed=3,
            obs=obs))
    # Streaming summaries past one fold buffer, per model and per window:
    # deit-tiny arrives first, so its summary is the one a second model
    # splits off the run-wide latency summary.
    reports["poisson-three-model-streaming"] = serve(
        PoissonTraffic(400.0, THREE), "2xvitality,1xgpu:taylor",
        policy="timeout", duration=3.0, seed=13, window_seconds=0.5,
        percentiles=TAIL, summary="streaming").to_json()
    reports["llm-continuous-streaming"] = serve_llm(
        PoissonTraffic(30.0, LLM_MIX), "2xvitality", scheduler="continuous",
        duration=20.0, seed=5, summary="streaming").to_json()
    reports["prometheus-llm-continuous-sha256"] = _prometheus_digest(
        lambda obs: serve_llm(
            PoissonTraffic(30.0, LLM_MIX), "2xvitality",
            scheduler="continuous", duration=20.0, seed=5, obs=obs))
    # Two models on a mixed fleet with a pinned attention mode, under both
    # schedulers and disaggregated: every engine spec a step builds depends
    # on the model, the replica's target and attention pin, the phase and
    # the batch, so a spec reused under the wrong key shows up here.
    for scheduler in ("continuous", "monolithic"):
        reports[f"llm-two-model-hetero-{scheduler}"] = serve_llm(
            PoissonTraffic(30.0, LLM_PAIR), "1xvitality,1xgpu:taylor",
            scheduler=scheduler, duration=2.0, seed=5).to_json()
    reports["llm-two-model-disagg-streaming"] = serve_llm(
        PoissonTraffic(30.0, LLM_PAIR), prefill_fleet="1xvitality",
        decode_fleet="1xgpu:taylor", duration=2.0, seed=5,
        summary="streaming").to_json()
    # Short two-model requests at 400 rps, 16-token KV buckets and batches
    # of at most 3: the decode shape changes on most steps, so a run visits
    # about 90 engine shapes and a shape memo that hands one step another
    # shape's spec or simulator shows up here.
    churn = dict(duration=1.0, seed=5, kv_bucket=16, max_batch=3)
    for scheduler in ("continuous", "monolithic"):
        reports[f"llm-shape-churn-{scheduler}"] = serve_llm(
            PoissonTraffic(400.0, LLM_SHORT), "2xvitality",
            scheduler=scheduler, **churn).to_json()
    reports["llm-shape-churn-disagg-streaming"] = serve_llm(
        PoissonTraffic(400.0, LLM_SHORT), prefill_fleet="1xvitality",
        decode_fleet="1xgpu:taylor", summary="streaming", **churn).to_json()
    return reports


def build_plan_goldens() -> dict[str, str]:
    """One payload per planner; the first two re-simulate their boundary
    (it was pruned before validation) and the LLM one measures its
    colocated reference."""

    payloads = {
        "plan-capacity": plan_capacity(
            rate=2500.0, models=["deit-tiny", "levit-128"],
            weights=[2.0, 1.0], slo_seconds=0.02, duration=1.0,
            targets=("vitality", "vitality[pe=32x32]"), max_replicas=4,
            top_k=2, policy="timeout", seed=1),
        "plan-pipeline-capacity": plan_pipeline_capacity(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.02, duration=1.0, slo_percentile=0.95,
            targets="vitality", max_replicas_per_stage=2, top_k=1,
            policy="fifo", seed=0, stage_slo_seconds={"encoder": 0.01}),
        "plan-llm-capacity": plan_llm_capacity(
            8.0, "decoder", ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
            duration=1.0, max_replicas=4, top_k=2),
    }
    return {name: json.dumps(payload, indent=1)
            for name, payload in payloads.items()}
