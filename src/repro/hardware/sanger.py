"""Cycle-level model of the Sanger sparse-attention accelerator (baseline).

Sanger (MICRO 2021) accelerates the vanilla softmax attention by:

1. predicting a sparsity mask from 4-bit quantised Q/K on a dedicated
   low-precision pre-processor,
2. re-arranging the irregular mask into balanced rows with pack-and-split,
3. computing the surviving attention entries (sparse ``Q K^T``), the softmax
   (with a dedicated EXP unit) and the sparse ``S V`` on a reconfigurable
   64x16 PE array.

The model charges the dense prediction pass at 4-bit precision, then scales
the full-precision attention work by the achieved mask density and the
pack-and-split load-balance efficiency.  Dense (projection / MLP) GEMMs run
on the same RePE array, which is how the end-to-end comparison of Fig. 11 is
obtained under a comparable hardware budget (Table III).
"""

from __future__ import annotations

import math

from repro.hardware.common import LayerRecord, layer_record, linear_layer
from repro.hardware.config import SangerAcceleratorConfig
from repro.hardware.core.arrays import SystolicArray, matmul_cycles
from repro.workloads import AttentionLayerSpec, LinearLayerSpec


class SangerAccelerator:
    """The Sanger baseline accelerator simulator."""

    def __init__(self, config: SangerAcceleratorConfig | None = None,
                 density: float | None = None,
                 load_balance_efficiency: float = 0.8):
        self.config = config or SangerAcceleratorConfig()
        self.density = density if density is not None else self.config.default_density
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not 0.0 < load_balance_efficiency <= 1.0:
            raise ValueError("load_balance_efficiency must be in (0, 1]")
        self.load_balance_efficiency = load_balance_efficiency
        self.re_pe = SystolicArray(self.config.re_pe_array, self.config.frequency_hz,
                                   utilization=self.config.pe_utilization)

    @property
    def frequency_hz(self) -> float:
        return self.config.frequency_hz

    # -- attention -------------------------------------------------------------------------

    def run_attention_layer(self, spec: AttentionLayerSpec,
                            density: float | None = None) -> tuple[int, LayerRecord]:
        """Execute one multi-head vanilla attention layer with dynamic sparsity."""

        n, m = spec.tokens, spec.kv_tokens
        d, dv, h = spec.qk_dim, spec.v_dim, spec.heads
        density = self.density if density is None else density
        frequency = self.config.frequency_hz

        # 1. Low-precision prediction of the attention mask (dense 4-bit QK^T).
        prediction_cycles = h * matmul_cycles(n, d, m,
                                              self.config.pre_processor.rows,
                                              self.config.pre_processor.columns,
                                              utilization=self.config.pe_utilization)
        prediction_energy = prediction_cycles * self.config.pre_processor.energy_per_cycle(frequency)

        # 2. Pack & split the irregular mask into balanced PE rows.
        pack_cycles = h * math.ceil(n * m / self.config.pack_and_split.lanes)
        pack_energy = pack_cycles * self.config.pack_and_split.energy_per_cycle(frequency)

        # 3/4/5. Sparse QK^T, softmax (EXP + divide), sparse SV on the RePE array.
        effective = density / self.load_balance_efficiency
        kept = max(1, int(round(m * effective)))
        qk_cycles, qk_energy = self.re_pe.matmul(n, d, kept)
        sv_cycles, sv_energy = self.re_pe.matmul(n, kept, dv)
        softmax_ops = int(h * n * m * density)
        softmax_cycles = math.ceil(softmax_ops / self.config.divider_array.lanes)
        softmax_energy = softmax_cycles * (
            self.config.divider_array.energy_per_cycle(frequency)
        )

        # Q, K, V and the output cross DRAM; the predicted operands, the kept
        # scores and the value traffic cross the SRAM.
        dram_words = h * (n * d + m * d + m * dv + n * dv)
        sram_words = (h * (n * d + m * d) + h * int(n * m * density) * 2
                      + h * (n * dv + m * dv))
        steps = (
            ("predict_mask", "pre_processor", prediction_cycles, prediction_energy),
            ("pack_and_split", "pack_split", pack_cycles, pack_energy),
            ("sparse_qk", "re_pe", qk_cycles * h, qk_energy * h),
            ("softmax", "divider", softmax_cycles, softmax_energy),
            ("sparse_sv", "re_pe", sv_cycles * h, sv_energy * h),
            ("memory", "memory", 0,
             self.config.memory.access_energy(sram_words, dram_words)),
        )

        # Sanger pipelines prediction with the sparse computation across rows;
        # the dominant stage bounds the latency, the other is partially hidden.
        compute_cycles = (qk_cycles + sv_cycles) * h + softmax_cycles
        cycles = max(prediction_cycles, compute_cycles) + min(prediction_cycles, compute_cycles) // 4
        return layer_record(f"sanger_attention(n={n},d={d},h={h})", "attention",
                            spec.repeats, cycles, frequency, steps)

    # -- linear layers --------------------------------------------------------------------------

    def run_linear_layer(self, spec: LinearLayerSpec) -> tuple[int, LayerRecord]:
        return linear_layer(self.re_pe, "re_pe", self.config.memory, spec)
