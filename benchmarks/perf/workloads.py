"""The five benchmark workloads: one offline job each, built from a seed.

Every workload calls the public entry point behind one ``repro`` command
(``serve``, ``serve --llm``, ``serve --pipeline``, ``dse``, ``plan``).  The
entry points are looked up on their modules at call time, so the layer
tracer's wrappers see the call.  Jobs run in one process, single-threaded,
with ``jobs`` unset.

A workload's ``build(seed, scale)`` makes the inputs and returns the op, a
no-argument callable that runs the job once.  ``scale`` shrinks the job:
1 is the benchmark size, and 1/50 is the warm-up and harness-test size.  The
measured op times and repetition counts per run are in README.md.

Run this file to print the seed-0 digests that ``expected.json`` pins::

    PYTHONPATH=src python3 benchmarks/perf/workloads.py > benchmarks/perf/expected.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import repro.plan as planning
import repro.serve as serving
from hostclock import HEAP, TILES, Sample
from repro.engine import ResultCache
from repro.experiments import dse_exps
from repro.serve import PoissonTraffic, WorkloadMix

RAG = "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny"
RAG_POOLS = {"encoder": "2xvitality", "rerank": "1xvitality",
             "deit-tiny": "1xvitality"}
LLM_OUTPUT_TOKENS = 16
DSE_POINTS = 81
PLAN_TARGETS = ("vitality", "vitality[pe=32x32]", "vitality[pe=128x128]",
                "sanger")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, scale) -> op``; the op returns the entry point's result.
    build: Callable[[int, float], Callable[[], object]]
    #: The result as the JSON payload the command would print.
    payload: Callable[[object], dict]
    #: Work items one op completes (the ``items_per_s`` numerator).
    items: Callable[[dict], int]
    #: An invariant violation in the payload, or None.
    check: Callable[[dict], str | None]
    #: The host-speed sample loop shaped like the op's hot path.
    sample: Sample = HEAP


def digest(payload: dict) -> str:
    """sha256 of the payload's canonical JSON."""

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report(result) -> dict:
    return result.to_dict()


def _conserved(payload: dict) -> str | None:
    if payload["offered"] < 1 or payload["completed"] != payload["offered"]:
        return (f"requests not conserved: completed {payload['completed']} "
                f"of {payload['offered']} offered")
    return None


def _poisson(rate: float, model: str) -> PoissonTraffic:
    return PoissonTraffic(rate=rate, mix=WorkloadMix.of([model]))


def _serve_stream(seed: int, scale: float):
    traffic = _poisson(2000.0, "deit-tiny")
    duration = 25.0 * scale
    return lambda: serving.serve(
        traffic, "4xvitality", policy="size", router="least-loaded",
        duration=duration, seed=seed, summary="streaming")


def _llm_continuous(seed: int, scale: float):
    # Short outputs at 30 rps keep the mean decode batch near 1.7 (as 63
    # tokens at 15 rps do) while an op serves more requests, so its decode
    # steps vary less from seed to seed.
    traffic = _poisson(30.0, "decoder")
    duration = 60.0 * scale
    return lambda: serving.serve_llm(
        traffic, "2xvitality", scheduler="continuous", duration=duration,
        output_tokens=LLM_OUTPUT_TOKENS, seed=seed, summary="streaming")


def _pipeline_rag(seed: int, scale: float):
    traffic = _poisson(120.0, "deit-tiny")
    duration = 50.0 * scale
    return lambda: serving.serve_pipeline(
        traffic, RAG, RAG_POOLS, duration=duration, seed=seed,
        summary="streaming")


def _dse_memsim(seed: int, scale: float):
    # No random input: the seed does not change the job.  The small scale
    # sweeps the same 81 design points on a model about 25x cheaper, which
    # also builds every configured target before the timed ops.
    model = "deit-base[tokens=512]" if scale >= 1 else "deit-tiny"
    return lambda: dse_exps.explore_design_space(
        model, dram_gbps=(8.0, 25.0, 100.0), cache=ResultCache())


def _dse_check(payload: dict) -> str | None:
    if payload["evaluated"] != DSE_POINTS:
        return f"evaluated {payload['evaluated']} points, expected {DSE_POINTS}"
    if not any(point.get("memory_bound_layers")
               for point in payload["pareto_frontier"]):
        return "no memory-bound point on the Pareto frontier"
    return None


def _plan_capacity(seed: int, scale: float):
    duration = 2.5 * scale
    return lambda: planning.plan_capacity(
        rate=4000.0, models=["deit-tiny", "levit-128"], slo_seconds=0.02,
        duration=duration, targets=PLAN_TARGETS, max_replicas=12, top_k=3,
        policy="timeout", seed=seed)


def _plan_check(payload: dict) -> str | None:
    return None if payload["chosen"] is not None else "no fleet chosen"


WORKLOADS = {workload.name: workload for workload in (
    # Items: simulated requests, decode steps, design points, candidates.
    # Every decode step makes an engine call, so steps track the host cost.
    # Tokens per step vary with how the seed's arrivals batch, so decode
    # tokens would not.
    Workload("serve_stream", _serve_stream, _report,
             lambda p: p["offered"], _conserved),
    Workload("llm_continuous", _llm_continuous, _report,
             lambda p: p["llm"]["decode_steps"], _conserved),
    Workload("pipeline_rag", _pipeline_rag, _report,
             lambda p: p["offered"], _conserved),
    Workload("dse_memsim", _dse_memsim, lambda result: result,
             lambda p: p["evaluated"], _dse_check, TILES),
    Workload("plan_capacity", _plan_capacity, lambda result: result,
             lambda p: p["evaluated"], _plan_check),
)}


if __name__ == "__main__":
    pinned = {name: digest(workload.payload(workload.build(0, 1.0)()))
              for name, workload in WORKLOADS.items()}
    print(json.dumps(pinned, indent=2, sort_keys=True))
