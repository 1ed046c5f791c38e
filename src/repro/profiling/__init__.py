"""Profiling utilities: the MHA runtime breakdown (Fig. 1) and FLOPs (Table IV)."""

from repro.profiling.breakdown import mha_runtime_breakdown_table
from repro.profiling.flops import attention_flops, attention_flops_table, METHOD_FLOPS

__all__ = [
    "mha_runtime_breakdown_table",
    "attention_flops",
    "attention_flops_table",
    "METHOD_FLOPS",
]
