"""Profiling experiments: Fig. 1 runtime breakdown and Table II step profiles.

Table II routes through :mod:`repro.engine`: each (model, formulation) cell
is one platform :class:`~repro.engine.RunSpec` whose per-step records supply
the latency columns.  Fig. 1 is a runtime-share profile (fractions of the MHA
module, not a simulation run) read from each platform model.
"""

from __future__ import annotations

from repro.engine import RunSpec, simulate
from repro.hardware.platforms import get_platform
from repro.workloads import get_workload

#: Fig. 1 values from the paper: share of MHA runtime per step and platform.
PAPER_FIG1 = {
    "gpu": {"step1_qkv": 0.25, "step2_softmax_map": 0.52, "step3_attention_score": 0.23},
    "edge_gpu": {"step1_qkv": 0.21, "step2_softmax_map": 0.55, "step3_attention_score": 0.24},
    "pixel3": {"step1_qkv": 0.13, "step2_softmax_map": 0.58, "step3_attention_score": 0.29},
}

#: Table II overall latencies (ms) on the edge GPU from the paper.
PAPER_TABLE2_TOTALS = {
    "deit-tiny": {"taylor": 14.03, "vanilla": 11.65},
    "mobilevit-xs": {"taylor": 2.76, "vanilla": 1.79},
    "levit-128": {"taylor": 4.43, "vanilla": 2.76},
}


def fig1_runtime_breakdown(model: str = "deit-tiny") -> dict[str, dict[str, float]]:
    """Fig. 1: MHA runtime breakdown of DeiT-Tiny on GPU / edge GPU / Pixel 3.

    Returns ``{platform: {step1_qkv, step2_softmax_map,
    step3_attention_score}}`` with fractions summing to one per platform.
    """

    workload = get_workload(model)
    return {name: get_platform(name).mha_runtime_breakdown(workload)
            for name in PAPER_FIG1}


def _step_columns(model: str, formulation: str, platform: str) -> dict[str, object]:
    """Per-step latency columns of one attention formulation, via the engine."""

    result = simulate(RunSpec(model, target=platform, attention=formulation,
                              include_linear=False))
    steps = {step.name: step.latency_seconds for step in result.layers[0].steps}
    total = result.attention_latency
    return {
        "ms": {name: latency * 1e3 for name, latency in steps.items()},
        "total_ms": total * 1e3,
        "ratios": {name: latency / total for name, latency in steps.items()},
    }


def table2_latency_profile(models: tuple[str, ...] = ("deit-tiny", "mobilevit-xs", "levit-128"),
                           platform: str = "edge_gpu") -> list[dict[str, object]]:
    """Table II: per-step latency of Taylor vs vanilla attention on the edge GPU."""

    rows = []
    for model in models:
        taylor = _step_columns(model, "taylor", platform)
        vanilla = _step_columns(model, "vanilla", platform)
        rows.append({
            "model": model,
            "platform": platform,
            "taylor_ms": taylor["ms"],
            "taylor_total_ms": taylor["total_ms"],
            "taylor_ratios": taylor["ratios"],
            "vanilla_ms": vanilla["ms"],
            "vanilla_total_ms": vanilla["total_ms"],
            "vanilla_ratios": vanilla["ratios"],
        })
    return rows
