"""Complexity experiments: Table I operation counts and Table IV FLOPs."""

from __future__ import annotations

from repro.attention.op_counting import (
    count_taylor_attention_ops,
    count_vanilla_attention_ops,
    operation_ratio_additions,
    operation_ratio_divisions,
    operation_ratio_multiplications,
)
from repro.profiling.flops import attention_flops_table
from repro.workloads import get_workload

#: Values Table I reports (millions of operations).
PAPER_TABLE1 = {
    "deit-tiny": {"vitality_mul": 58.3, "baseline_mul": 178.8, "ratio": 3.1},
    "mobilevit-xs": {"vitality_mul": 4.8, "baseline_mul": 28.4, "ratio": 5.9},
    "levit-128": {"vitality_mul": 3.4, "baseline_mul": 36.4, "ratio": 10.7},
}

#: Table IV's FLOPs column from the paper (G, DeiT-Tiny attention).
PAPER_TABLE4_FLOPS = {"baseline": 0.50, "vitality": 0.33, "linformer": 0.35,
                      "performer": 0.40, "sanger": 0.33, "svite": 0.38, "uvc": 0.30}


def table1_op_counts(models: tuple[str, ...] = ("deit-tiny", "mobilevit-xs", "levit-128")
                     ) -> dict[str, dict[str, float]]:
    """Table I: operation counts (millions) of ViTALiTy vs vanilla attention."""

    rows: dict[str, dict[str, float]] = {}
    for name in models:
        workload = get_workload(name)
        vitality = count_taylor_attention_ops(workload).in_millions()
        baseline = count_vanilla_attention_ops(workload).in_millions()
        rows[name] = {
            "vitality_mul_m": vitality["Mul"],
            "vitality_add_m": vitality["Add"],
            "vitality_div_m": vitality["Div"],
            "baseline_mul_m": baseline["Mul"],
            "baseline_add_m": baseline["Add"],
            "baseline_div_m": baseline["Div"],
            "baseline_exp_m": baseline["Exp"],
            "ratio_mul": baseline["Mul"] / vitality["Mul"],
            "ratio_add": baseline["Add"] / vitality["Add"],
            "ratio_div": baseline["Div"] / vitality["Div"],
        }
    return rows


def closed_form_ratios(tokens: int = 197, head_dim: int = 64) -> dict[str, float]:
    """Eqs. (1)-(3): closed-form operation-count reduction ratios."""

    return {
        "multiplications": operation_ratio_multiplications(tokens, head_dim),
        "additions": operation_ratio_additions(tokens, head_dim),
        "divisions": operation_ratio_divisions(tokens, head_dim),
        "n_over_d": tokens / head_dim,
    }


def table4_flops(model: str = "deit-tiny") -> dict[str, dict[str, float | str]]:
    """Table IV: attention FLOPs per method (accuracy filled in by the training run)."""

    return attention_flops_table(model)
