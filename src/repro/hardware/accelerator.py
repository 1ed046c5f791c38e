"""Cycle-level model of the ViTALiTy accelerator (Section IV).

The accelerator executes Algorithm 1 layer by layer on four chunks — the
systolic array (partitioned into SA-General and SA-Diag), the accumulator
array, the adder array and the divider array — with the intra-layer pipeline
of Fig. 7 overlapping pre/post-processing with the matrix multiplications,
and the down-forward accumulation dataflow of Fig. 9 (the G-stationary
alternative is also modelled for the Table V ablation).

The same systolic array executes the models' projection/MLP GEMMs, which is
how end-to-end latency and energy (Figs. 11 and 12) are obtained.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fold import left_sum
from repro.hardware.common import Dataflow, LayerResult, ModelResult, StepResult
from repro.hardware.config import ViTALiTyAcceleratorConfig
from repro.hardware.core.arrays import (
    AccumulatorArray,
    AdderArray,
    DividerArray,
    SystolicArray,
)
from repro.hardware.core.memory import EnergyBreakdown, MemoryTrafficModel
from repro.hardware.core.pipeline import pipeline_latency, sequential_latency
from repro.workloads import AttentionLayerSpec, LinearLayerSpec, ModelWorkload


class ViTALiTyAccelerator:
    """The ViTALiTy accelerator simulator.

    Args:
        config: hardware configuration (defaults to the Table III design).
        dataflow: down-forward accumulation (default) or G-stationary.
        pipelined: enable the intra-layer pipeline (disable for the ablation).
    """

    def __init__(self, config: ViTALiTyAcceleratorConfig | None = None,
                 dataflow: Dataflow = Dataflow.DOWN_FORWARD,
                 pipelined: bool = True):
        self.config = config or ViTALiTyAcceleratorConfig()
        self.dataflow = dataflow
        self.pipelined = pipelined
        frequency = self.config.frequency_hz
        self.sa_general = SystolicArray(self.config.sa_general, frequency,
                                        utilization=self.config.systolic_utilization)
        self.sa_diag = SystolicArray(self.config.sa_diag, frequency,
                                     utilization=self.config.systolic_utilization)
        self.accumulator = AccumulatorArray(self.config.accumulator_array, frequency)
        self.adder = AdderArray(self.config.adder_array, frequency)
        self.divider = DividerArray(self.config.divider_array, frequency)

    # -- scaling ------------------------------------------------------------------------

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput of the systolic array (both partitions)."""

        pes = self.config.sa_general.lanes + self.config.sa_diag.lanes
        return pes * self.config.frequency_hz

    def scaled_to_peak(self, peak_macs_per_second: float) -> "ViTALiTyAccelerator":
        """Return an accelerator scaled to a target peak throughput.

        Following the paper's methodology (and DOTA's), comparisons against
        general-purpose platforms scale the accelerator's PE array so both
        sides have comparable peak compute; area and power scale with it.
        """

        if peak_macs_per_second <= 0:
            raise ValueError("peak throughput must be positive")
        scale = peak_macs_per_second / self.peak_macs_per_second
        column_scale = max(1, int(round(self.config.sa_general.columns * scale)))
        scaled_config = replace(
            self.config,
            sa_general=self.config.sa_general.scaled(columns=column_scale),
        )
        return ViTALiTyAccelerator(scaled_config, dataflow=self.dataflow,
                                   pipelined=self.pipelined)

    # -- attention layer --------------------------------------------------------------------

    def run_attention_layer(self, spec: AttentionLayerSpec) -> LayerResult:
        """Execute one multi-head Taylor-attention layer (all heads, one repeat)."""

        n, m = spec.tokens, spec.kv_tokens
        d, dv, h = spec.qk_dim, spec.v_dim, spec.heads
        g_overhead = (self.config.g_stationary_pe_overhead
                      if self.dataflow is Dataflow.G_STATIONARY else 1.0)
        memory = MemoryTrafficModel(self.config.memory)
        steps: list[StepResult] = []

        # Q/K/V are produced by the preceding projection layer and stay resident
        # in the 50 KB on-chip buffers (Table III), so the attention layer itself
        # incurs SRAM/NoC traffic only; DRAM traffic is accounted to the linear
        # layers that stream weights.

        # Step 1: mean-centre the keys (accumulator -> divider -> adder).
        step1_sum = self.accumulator.column_sum(m, d * h)
        step1_div = self.divider.single_divisor(d * h)
        step1_sub = self.adder.elementwise(m * d * h)
        memory.access_sram(h * (2 * m * d))          # read K, write K_hat
        steps.append(StepResult("1:k_hat:accumulate", "accumulator", step1_sum.cycles,
                                step1_sum.energy_joules, step1_sum.operations))
        steps.append(StepResult("1:k_hat:divide", "divider", step1_div.cycles,
                                step1_div.energy_joules, step1_div.operations))
        steps.append(StepResult("1:k_hat:subtract", "adder", step1_sub.cycles,
                                step1_sub.energy_joules, step1_sub.operations))

        # Step 2: global context matrix G = K_hat^T V on SA-General (all heads
        # streamed back to back so the array fill is amortised).
        step2 = self.sa_general.matmul(d, m, dv, pe_energy_scale=g_overhead, batch=h)
        memory.access_sram(step2.streamed_words + step2.stationary_loads)
        if self.dataflow is Dataflow.DOWN_FORWARD:
            # G is written back to SRAM and re-read for Step 5.
            memory.access_sram(h * 2 * d * dv)
        steps.append(StepResult("2:G", "systolic", step2.cycles, step2.energy_joules,
                                step2.macs))

        # Step 3: column sums of K_hat and V on the accumulator array.
        step3 = self.accumulator.column_sum(m, (d + dv) * h)
        memory.access_sram(h * (m * d + m * dv))
        steps.append(StepResult("3:column_sums", "accumulator", step3.cycles,
                                step3.energy_joules, step3.operations))

        # Step 4: Taylor denominator — Q k_hat_sum^T on SA-Diag plus an addition.
        # SA-Diag runs in parallel with SA-General (its own chunk), with Q
        # broadcast to both partitions.
        step4_mm = self.sa_diag.matmul(n, d, 1, batch=h)
        step4_add = self.adder.elementwise(n * h)
        memory.access_sram(h * n)
        steps.append(StepResult("4:tD:matmul", "sa_diag", step4_mm.cycles,
                                step4_mm.energy_joules, step4_mm.macs))
        steps.append(StepResult("4:tD:add", "adder", step4_add.cycles,
                                step4_add.energy_joules, step4_add.operations))

        # Step 5: Taylor numerator — Q G on SA-General plus an element-wise addition.
        step5_mm = self.sa_general.matmul(n, d, dv, pe_energy_scale=g_overhead, batch=h)
        step5_add = self.adder.elementwise(n * dv * h)
        memory.access_sram(step5_mm.streamed_words + step5_mm.output_words)
        steps.append(StepResult("5:TN:matmul", "systolic", step5_mm.cycles,
                                step5_mm.energy_joules, step5_mm.macs))
        steps.append(StepResult("5:TN:add", "adder", step5_add.cycles,
                                step5_add.energy_joules, step5_add.operations))

        # Step 6: final score — row-wise division on the divider array.
        step6 = self.divider.multiple_divisors(n * dv * h)
        memory.access_sram(h * n * dv)
        steps.append(StepResult("6:Z", "divider", step6.cycles, step6.energy_joules,
                                step6.operations))

        # Memory energy is charged as a zero-latency pseudo step (accesses are
        # overlapped with compute by the four-level hierarchy).
        steps.append(StepResult("memory", "memory", 0, memory.energy_joules,
                                sram_accesses=memory.sram_accesses))

        cycles = pipeline_latency(steps) if self.pipelined else sequential_latency(steps)
        energy = left_sum(step.energy_joules for step in steps)
        return LayerResult(name=f"attention(n={n},d={d},h={h})", cycles=cycles,
                           energy_joules=energy, frequency_hz=self.config.frequency_hz,
                           steps=steps)

    # -- linear layers -----------------------------------------------------------------------

    def run_linear_layer(self, spec: LinearLayerSpec) -> LayerResult:
        """Execute one dense (projection / MLP) GEMM on the systolic array."""

        execution = self.sa_general.matmul(spec.tokens, spec.in_features, spec.out_features)
        memory = MemoryTrafficModel(self.config.memory)
        memory.access_dram(spec.in_features * spec.out_features)   # weights
        memory.access_sram(execution.streamed_words + execution.output_words)
        steps = [
            StepResult("gemm", "systolic", execution.cycles, execution.energy_joules,
                       execution.macs),
            StepResult("memory", "memory", 0, memory.energy_joules,
                       sram_accesses=memory.sram_accesses),
        ]
        return LayerResult(name=f"linear({spec.tokens}x{spec.in_features}x{spec.out_features})",
                           cycles=execution.cycles,
                           energy_joules=left_sum(s.energy_joules for s in steps),
                           frequency_hz=self.config.frequency_hz, steps=steps)

    # -- whole model ----------------------------------------------------------------------------

    def run_model(self, workload: ModelWorkload, include_linear: bool = True) -> ModelResult:
        """Run every attention (and optionally linear) layer of a model workload."""

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

    # -- Table V style breakdown ----------------------------------------------------------------

    def attention_energy_breakdown(self, workload: ModelWorkload) -> EnergyBreakdown:
        """Energy of the Taylor attention split as Table V reports it."""

        breakdown = EnergyBreakdown()
        for spec in workload.attention_layers:
            layer = self.run_attention_layer(spec)
            per_layer = EnergyBreakdown()
            for step in layer.steps:
                if step.chunk in ("systolic", "sa_diag"):
                    per_layer.systolic_array += step.energy_joules
                elif step.chunk == "memory":
                    per_layer.data_access += step.energy_joules
                else:
                    per_layer.other_processors += step.energy_joules
            breakdown = breakdown.add(EnergyBreakdown(
                data_access=per_layer.data_access * spec.repeats,
                other_processors=per_layer.other_processors * spec.repeats,
                systolic_array=per_layer.systolic_array * spec.repeats,
            ))
        return breakdown
