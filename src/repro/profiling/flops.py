"""Attention FLOPs accounting for the Table IV comparison.

Table IV compares the accuracy-vs-FLOPs trade-off of ViTALiTy's linear Taylor
attention against other linear attentions (Linformer, Performer) and sparse
methods (Sanger, SViTE, UVC) on DeiT-Tiny.  Following the paper's accounting,
"FLOPs (Attention)" covers the Q/K/V projections plus the attention-proper
work (multiply-accumulates counted once), excluding the output projection and
the MLP module which are identical across methods.  The baseline's and
ViTALiTy's attention MACs are Table I's multiplication counts
(:mod:`repro.attention.op_counting`), so a causal layer skips its masked
triangle here too.
"""

from __future__ import annotations

from repro.attention.op_counting import (
    count_taylor_attention_ops,
    count_vanilla_attention_ops,
)
from repro.workloads import ModelWorkload, get_workload

#: Methods reported in Table IV with their attention type and the sparsity /
#: low-rank parameters used by the FLOPs model below.
METHOD_FLOPS = {
    "baseline": {"type": "Quadratic"},
    "vitality": {"type": "Linear"},
    "linformer": {"type": "Linear", "projection_dim": 64},
    "performer": {"type": "Linear", "num_features": 96},
    "sanger": {"type": "Sparse", "density": 0.35},
    "svite": {"type": "Sparse", "density": 0.55},
    "uvc": {"type": "Sparse", "density": 0.30},
}


def _qkv_projection_macs(workload: ModelWorkload) -> int:
    total = 0
    for spec in workload.attention_layers:
        embed = spec.qk_dim * spec.heads
        per_layer = spec.tokens * embed * spec.heads * (2 * spec.qk_dim + spec.v_dim)
        total += per_layer * spec.repeats
    return total


def _linformer_attention_macs(workload: ModelWorkload, projection_dim: int) -> int:
    total = 0
    for spec in workload.attention_layers:
        k = min(projection_dim, spec.kv_tokens)
        per_layer = spec.heads * (
            2 * spec.kv_tokens * k * spec.qk_dim           # project K and V to k tokens
            + spec.tokens * k * (spec.qk_dim + spec.v_dim)  # attention over k tokens
        )
        total += per_layer * spec.repeats
    return total


def _performer_attention_macs(workload: ModelWorkload, num_features: int) -> int:
    total = 0
    for spec in workload.attention_layers:
        m = num_features
        per_layer = spec.heads * (
            (spec.tokens + spec.kv_tokens) * spec.qk_dim * m   # feature maps of Q and K
            + spec.kv_tokens * m * spec.v_dim                  # K'^T V context
            + spec.tokens * m * (spec.v_dim + 1)               # Q' context and normaliser
        )
        total += per_layer * spec.repeats
    return total


def attention_flops(method: str, model: str = "deit-tiny") -> float:
    """Attention FLOPs (in GFLOPs, MACs counted once) of one method on one model."""

    method = method.lower()
    if method not in METHOD_FLOPS:
        raise KeyError(f"unknown method {method!r}; available: {sorted(METHOD_FLOPS)}")
    workload = get_workload(model)
    qkv = _qkv_projection_macs(workload)
    parameters = METHOD_FLOPS[method]
    vanilla = count_vanilla_attention_ops(workload).multiplications

    if method == "baseline":
        attention = vanilla
    elif method == "vitality":
        attention = count_taylor_attention_ops(workload).multiplications
    elif method == "linformer":
        attention = _linformer_attention_macs(workload, parameters["projection_dim"])
    elif method == "performer":
        attention = _performer_attention_macs(workload, parameters["num_features"])
    else:  # sparse family: Sanger / SViTE / UVC
        attention = int(round(vanilla * parameters["density"]))
        if method == "sanger":
            # Sanger additionally runs the low-precision mask prediction; it is
            # quantised 4-bit work, counted here at a quarter of a full MAC.
            attention += vanilla // 8

    return (qkv + attention) / 1e9


def attention_flops_table(model: str = "deit-tiny") -> dict[str, dict[str, float | str]]:
    """Full Table IV FLOPs column (accuracy comes from the training experiments)."""

    return {
        method: {"type": info["type"], "flops_g": attention_flops(method, model)}
        for method, info in METHOD_FLOPS.items()
    }
