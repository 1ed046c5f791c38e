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

from repro.fold import left_sum
from repro.hardware.common import LayerResult, ModelResult, StepResult
from repro.hardware.config import SangerAcceleratorConfig
from repro.hardware.core.arrays import SystolicArray, matmul_cycles
from repro.hardware.core.memory import MemoryTrafficModel
from repro.workloads import AttentionLayerSpec, LinearLayerSpec, ModelWorkload


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
                            density: float | None = None) -> LayerResult:
        """Execute one multi-head vanilla attention layer with dynamic sparsity."""

        n, m = spec.tokens, spec.kv_tokens
        d, dv, h = spec.qk_dim, spec.v_dim, spec.heads
        density = self.density if density is None else density
        memory = MemoryTrafficModel(self.config.memory)
        steps: list[StepResult] = []
        frequency = self.config.frequency_hz

        memory.access_dram(h * (n * d + m * d + m * dv + n * dv))

        # 1. Low-precision prediction of the attention mask (dense 4-bit QK^T).
        prediction_cycles = h * matmul_cycles(n, d, m,
                                              self.config.pre_processor.rows,
                                              self.config.pre_processor.columns,
                                              utilization=self.config.pe_utilization)
        prediction_energy = prediction_cycles * self.config.pre_processor.energy_per_cycle(frequency)
        memory.access_sram(h * (n * d + m * d))
        steps.append(StepResult("predict_mask", "pre_processor", prediction_cycles,
                                prediction_energy, h * n * m * d))

        # 2. Pack & split the irregular mask into balanced PE rows.
        pack_cycles = h * math.ceil(n * m / self.config.pack_and_split.lanes)
        pack_energy = pack_cycles * self.config.pack_and_split.energy_per_cycle(frequency)
        steps.append(StepResult("pack_and_split", "pack_split", pack_cycles, pack_energy,
                                h * n * m))

        # 3/4/5. Sparse QK^T, softmax (EXP + divide), sparse SV on the RePE array.
        effective = density / self.load_balance_efficiency
        sparse_qk = self.re_pe.matmul(n, d, max(1, int(round(m * effective))))
        sparse_sv = self.re_pe.matmul(n, max(1, int(round(m * effective))), dv)
        softmax_ops = int(h * n * m * density)
        softmax_cycles = math.ceil(softmax_ops / self.config.divider_array.lanes)
        softmax_energy = softmax_cycles * (
            self.config.divider_array.energy_per_cycle(frequency)
        )
        memory.access_sram(h * int(n * m * density) * 2 + h * (n * dv + m * dv))
        steps.append(StepResult("sparse_qk", "re_pe", sparse_qk.cycles * h,
                                sparse_qk.energy_joules * h, sparse_qk.macs * h))
        steps.append(StepResult("softmax", "divider", softmax_cycles, softmax_energy,
                                softmax_ops))
        steps.append(StepResult("sparse_sv", "re_pe", sparse_sv.cycles * h,
                                sparse_sv.energy_joules * h, sparse_sv.macs * h))

        steps.append(StepResult("memory", "memory", 0, memory.energy_joules,
                                sram_accesses=memory.sram_accesses))

        # Sanger pipelines prediction with the sparse computation across rows;
        # the dominant stage bounds the latency, the other is partially hidden.
        compute_cycles = (sparse_qk.cycles + sparse_sv.cycles) * h + softmax_cycles
        cycles = max(prediction_cycles, compute_cycles) + min(prediction_cycles, compute_cycles) // 4
        energy = left_sum(step.energy_joules for step in steps)
        return LayerResult(name=f"sanger_attention(n={n},d={d},h={h})", cycles=cycles,
                           energy_joules=energy, frequency_hz=frequency, steps=steps)

    # -- linear layers --------------------------------------------------------------------------

    def run_linear_layer(self, spec: LinearLayerSpec) -> LayerResult:
        execution = self.re_pe.matmul(spec.tokens, spec.in_features, spec.out_features)
        memory = MemoryTrafficModel(self.config.memory)
        memory.access_dram(spec.in_features * spec.out_features)
        memory.access_sram(execution.streamed_words + execution.output_words)
        steps = [
            StepResult("gemm", "re_pe", execution.cycles, execution.energy_joules, execution.macs),
            StepResult("memory", "memory", 0, memory.energy_joules,
                       sram_accesses=memory.sram_accesses),
        ]
        return LayerResult(name=f"linear({spec.tokens}x{spec.in_features}x{spec.out_features})",
                           cycles=execution.cycles,
                           energy_joules=left_sum(s.energy_joules for s in steps),
                           frequency_hz=self.config.frequency_hz, steps=steps)

    # -- whole model -------------------------------------------------------------------------------

    def run_model(self, workload: ModelWorkload, include_linear: bool = True) -> ModelResult:
        attention_cycles = 0
        attention_energy = 0.0
        layers: list[LayerResult] = []
        for spec in workload.attention_layers:
            layer = self.run_attention_layer(spec)
            attention_cycles += layer.cycles * spec.repeats
            attention_energy += layer.energy_joules * spec.repeats
            layers.append(layer)

        linear_cycles = 0
        linear_energy = 0.0
        if include_linear:
            for spec in workload.linear_layers:
                layer = self.run_linear_layer(spec)
                linear_cycles += layer.cycles * spec.repeats
                linear_energy += layer.energy_joules * spec.repeats
                layers.append(layer)

        return ModelResult(model=workload.name, device=self.config.name,
                           attention_cycles=attention_cycles, attention_energy=attention_energy,
                           linear_cycles=linear_cycles, linear_energy=linear_energy,
                           frequency_hz=self.config.frequency_hz, layers=layers)
