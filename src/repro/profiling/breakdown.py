"""Runtime breakdown of the MHA module (Fig. 1).

:func:`mha_runtime_breakdown_table` reproduces Fig. 1: the share of MHA
runtime spent in Step 1 (Q/K/V projection), Step 2 (softmax attention map)
and Step 3 (attention score) on each profiled platform.  Table II's per-step
latencies come from the engine (:mod:`repro.experiments.profiling_exps`).
"""

from __future__ import annotations

from repro.hardware.platforms import get_platform
from repro.workloads import get_workload


def mha_runtime_breakdown_table(model: str = "deit-tiny",
                                platforms: tuple[str, ...] = ("gpu", "edge_gpu", "pixel3"),
                                ) -> dict[str, dict[str, float]]:
    """Fig. 1: MHA runtime breakdown of a model across platforms.

    Returns ``{platform: {step1_qkv, step2_softmax_map, step3_attention_score}}``
    with fractions summing to one per platform.
    """

    workload = get_workload(model)
    return {name: get_platform(name).mha_runtime_breakdown(workload) for name in platforms}
