"""Profiling utilities: attention FLOPs (Table IV).

Fig. 1's MHA runtime breakdown is read from the platform models by
:func:`repro.experiments.profiling_exps.fig1_runtime_breakdown`.
"""

from repro.profiling.flops import attention_flops, attention_flops_table, METHOD_FLOPS

__all__ = [
    "attention_flops",
    "attention_flops_table",
    "METHOD_FLOPS",
]
