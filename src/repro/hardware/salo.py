"""Model of the SALO hybrid sparse-attention accelerator (Section V-C comparison).

SALO (Shen et al., DAC 2022) accelerates Longformer-style attention patterns —
sliding windows, dilated windows, and a few global tokens — with a spatial
accelerator whose PE array is laid out for those diagonal-band patterns.  The
paper compares ViTALiTy against SALO under the same hardware budget on
DeiT-Tiny/Small and reports a 4.7x / 5.0x attention speedup.

The model here charges SALO the window-banded attention work (window +
dilated + global columns per query) on a PE array with the same MAC budget as
ViTALiTy's, derated by a spatial-utilisation factor: SALO's dataflow is tuned
for long NLP sequences, so on short ViT token counts its PE rows are poorly
filled — the effect responsible for most of the reported gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.common import LayerRecord, layer_record
from repro.hardware.config import ViTALiTyAcceleratorConfig
from repro.hardware.core.arrays import SystolicArray
from repro.hardware.core.pipeline import sequential_latency
from repro.workloads import AttentionLayerSpec


@dataclass(frozen=True)
class SALOConfig:
    """SALO attention-pattern and utilisation parameters."""

    #: Sliding-window width (keys attended either side of each query).
    window: int = 64
    #: Number of global tokens attended by (and attending to) every query.
    global_tokens: int = 4
    #: Spatial PE utilisation on short (ViT-length) sequences.
    short_sequence_utilization: float = 0.18


class SALOAccelerator:
    """SALO modelled under the ViTALiTy hardware budget.

    It models the attention layers only, so it runs a workload through
    :func:`~repro.hardware.common.run_model` with ``include_linear=False``.
    """

    def __init__(self, budget: ViTALiTyAcceleratorConfig | None = None,
                 config: SALOConfig | None = None):
        self.budget = budget or ViTALiTyAcceleratorConfig()
        self.config = config or SALOConfig()
        self.array = SystolicArray(self.budget.sa_general, self.budget.frequency_hz,
                                   utilization=self.config.short_sequence_utilization)

    @property
    def frequency_hz(self) -> float:
        return self.budget.frequency_hz

    def run_attention_layer(self, spec: AttentionLayerSpec) -> tuple[int, LayerRecord]:
        """Window + global attention for one multi-head layer."""

        n, d, dv, h = spec.tokens, spec.qk_dim, spec.v_dim, spec.heads
        keys_per_query = min(spec.kv_tokens, self.config.window + self.config.global_tokens)
        qk_cycles, qk_energy = self.array.matmul(n, d, keys_per_query)
        sv_cycles, sv_energy = self.array.matmul(n, keys_per_query, dv)
        softmax_cycles = (n * keys_per_query) // self.budget.divider_array.lanes + 1
        softmax_energy = softmax_cycles * self.budget.divider_array.energy_per_cycle(self.frequency_hz)
        steps = (
            ("window_qk", "systolic", qk_cycles * h, qk_energy * h),
            ("softmax", "divider", softmax_cycles * h, softmax_energy * h),
            ("window_sv", "systolic", sv_cycles * h, sv_energy * h),
        )
        return layer_record(f"salo_attention(n={n},d={d},h={h})", "attention",
                            spec.repeats, sequential_latency(steps),
                            self.frequency_hz, steps)
