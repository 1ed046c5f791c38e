"""Sequence-length scaling: the paper's linear-attention argument as data.

The core claim of ViTALiTy is asymptotic: softmax attention costs
``O(n^2 d)`` where the Taylor linear attention costs ``O(n d^2)``, so the
advantage grows with sequence length (Eqs. 1-3 put the ratio near ``n/d``).
The paper evaluates it only at ViT geometries (n <= 256); with workloads as
first-class configured names the scaling curve itself is a one-line sweep::

    Sweep().models("decoder").model_configs("tokens=128", ..., "tokens=4096")

:func:`seqscale_experiment` runs a platform baseline at both attention
formulations plus the ViTALiTy accelerator across a token ladder and
reports, per token count, the vanilla/taylor latency ratio and the exact
operation-count ratio — and the *crossover*: the first token count where
the Taylor formulation is strictly cheaper on the baseline platform.  (On
GPU-class devices the crossover sits well above ViT sequence lengths, which
is exactly the paper's Table II observation that general-purpose platforms
fail to cash in the linear attention; the op-count ratio crosses far
earlier, which is what the dedicated accelerator harvests.)
"""

from __future__ import annotations

from typing import Sequence

from repro.attention.op_counting import (
    count_taylor_attention_ops,
    count_vanilla_attention_ops,
)
from repro.engine import ResultCache, RunSpec, Sweep, VitalityTarget, get_target, simulate
from repro.workloads import get_workload

#: Token ladder: powers of two from BERT-short to GPT-context lengths.
DEFAULT_TOKENS = (128, 256, 512, 1024, 2048, 4096)


def seqscale_experiment(model: str = "decoder",
                        tokens: Sequence[int] = DEFAULT_TOKENS,
                        baseline: str = "gpu",
                        accelerator: str = "vitality",
                        jobs: int | None = None,
                        cache: ResultCache | None = None) -> dict[str, object]:
    """Sweep ``model`` across ``tokens`` on vanilla-vs-taylor targets.

    ``model`` is a workload family name (``"decoder"``, ``"deit-tiny"``, any
    family with a ``tokens`` knob); ``baseline`` a platform target evaluated
    at both attention formulations; ``accelerator`` the native-taylor
    accelerator scaled per the paper's peak-matching methodology.  Returns
    per-token rows plus the baseline's latency crossover and the exact
    op-count crossover.
    """

    if not tokens:
        raise ValueError("seqscale needs at least one token count")
    cache = ResultCache() if cache is None else cache
    knob_strings = [f"tokens={count}" for count in tokens]

    # Figs. 11-12 methodology: against a general-purpose platform the
    # accelerator's PE array is scaled up to the platform's peak throughput
    # (a scale at or below the native peak is a no-op the cache collapses).
    baseline_peak = get_target(baseline).peak_macs_per_second
    scale_to_peak = (baseline_peak
                     if isinstance(get_target(accelerator), VitalityTarget)
                     and baseline_peak > get_target(accelerator).peak_macs_per_second
                     else None)

    outcome = (Sweep()
               .models(model)
               .model_configs(knob_strings)
               .targets(baseline)
               .attentions("vanilla", "taylor")
               .run(cache=cache, jobs=jobs))
    latency = {(spec.model, spec.attention): result.end_to_end_latency
               for spec, result in zip(outcome.specs, outcome.results)}

    rows = []
    for count, knobs in zip(tokens, knob_strings):
        name = f"{model}[{knobs}]"
        workload = get_workload(name)
        vanilla_ops = count_vanilla_attention_ops(workload)
        taylor_ops = count_taylor_attention_ops(workload)
        accel = simulate(RunSpec(name, target=accelerator,
                                 scale_to_peak=scale_to_peak), cache=cache)
        vanilla_latency = latency[(name, "vanilla")]
        taylor_latency = latency[(name, "taylor")]
        rows.append({
            "tokens": count,
            "workload": workload.name,
            f"{baseline}_vanilla_ms": vanilla_latency * 1e3,
            f"{baseline}_taylor_ms": taylor_latency * 1e3,
            f"{accelerator}_ms": accel.end_to_end_latency * 1e3,
            "latency_ratio": vanilla_latency / taylor_latency,
            "op_ratio": vanilla_ops.total / taylor_ops.total,
        })

    def _crossover(key: str) -> int | None:
        for row in rows:
            if row[key] > 1.0:
                return row["tokens"]
        return None

    return {
        "model": model,
        "baseline": baseline,
        "accelerator": accelerator,
        "rows": rows,
        # First token count where Taylor is strictly cheaper (None: never
        # within the sweep) — measured on the platform and in exact op counts.
        "latency_crossover_tokens": _crossover("latency_ratio"),
        "op_crossover_tokens": _crossover("op_ratio"),
        "cache": {"hits": outcome.hits, "misses": outcome.misses,
                  "disk_hits": outcome.disk_hits},
    }
