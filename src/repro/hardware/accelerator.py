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

from repro.hardware.common import Dataflow, LayerRecord, layer_record, linear_layer
from repro.hardware.config import ViTALiTyAcceleratorConfig
from repro.hardware.core.arrays import LaneArray, SystolicArray
from repro.hardware.core.component import ComponentConfig
from repro.hardware.core.pipeline import pipeline_latency, sequential_latency
from repro.workloads import AttentionLayerSpec, LinearLayerSpec


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
        self.frequency_hz = frequency = self.config.frequency_hz
        self.sa_general = self._partition(self.config.sa_general)
        self.sa_diag = self._partition(self.config.sa_diag)
        self.accumulator = LaneArray(self.config.accumulator_array, frequency)
        self.adder = LaneArray(self.config.adder_array, frequency)
        self.divider = LaneArray(self.config.divider_array, frequency)

    def _partition(self, component: ComponentConfig) -> SystolicArray:
        """One systolic partition, SA-General or SA-Diag."""

        return SystolicArray(component, self.config.frequency_hz,
                             utilization=self.config.systolic_utilization)

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
        return self._with_config(replace(
            self.config,
            sa_general=self.config.sa_general.scaled(columns=column_scale),
        ))

    def _with_config(self, config: ViTALiTyAcceleratorConfig) -> "ViTALiTyAccelerator":
        """This accelerator's variant at another hardware configuration."""

        return ViTALiTyAccelerator(config, dataflow=self.dataflow,
                                   pipelined=self.pipelined)

    # -- attention layer --------------------------------------------------------------------

    def run_attention_layer(self, spec: AttentionLayerSpec) -> tuple[int, LayerRecord]:
        """Execute one multi-head Taylor-attention layer (all heads, one repeat)."""

        n, m = spec.tokens, spec.kv_tokens
        d, dv, h = spec.qk_dim, spec.v_dim, spec.heads
        g_overhead = (self.config.g_stationary_pe_overhead
                      if self.dataflow is Dataflow.G_STATIONARY else 1.0)
        accumulate, add, divide = self.accumulator.run, self.adder.run, self.divider.run
        steps = [
            # Step 1: mean-centre the keys (accumulator -> divider -> adder).
            ("1:k_hat:accumulate", "accumulator", *accumulate(m * d * h)),
            ("1:k_hat:divide", "divider", *divide(d * h)),
            ("1:k_hat:subtract", "adder", *add(m * d * h)),
            # Step 2: global context matrix G = K_hat^T V on SA-General (all
            # heads streamed back to back so the array fill is amortised).
            ("2:G", "systolic", *self.sa_general.matmul(
                d, m, dv, pe_energy_scale=g_overhead, batch=h)),
            # Step 3: column sums of K_hat and V on the accumulator array.
            ("3:column_sums", "accumulator", *accumulate(m * (d + dv) * h)),
            # Step 4: Taylor denominator — Q k_hat_sum^T on SA-Diag plus an
            # addition.  SA-Diag runs in parallel with SA-General (its own
            # chunk), with Q broadcast to both partitions.
            ("4:tD:matmul", "sa_diag", *self.sa_diag.matmul(n, d, 1, batch=h)),
            ("4:tD:add", "adder", *add(n * h)),
            # Step 5: Taylor numerator — Q G on SA-General plus an
            # element-wise addition.
            ("5:TN:matmul", "systolic", *self.sa_general.matmul(
                n, d, dv, pe_energy_scale=g_overhead, batch=h)),
            ("5:TN:add", "adder", *add(n * dv * h)),
            # Step 6: final score — row-wise division on the divider array.
            ("6:Z", "divider", *divide(n * dv * h)),
        ]

        # Q/K/V are produced by the preceding projection layer and stay
        # resident in the 50 KB on-chip buffers (Table III), so the attention
        # layer itself incurs SRAM/NoC traffic only; DRAM traffic is accounted
        # to the linear layers that stream weights.
        sram_words = (h * (2 * m * d)              # Step 1: read K, write K_hat
                      + h * (d * m + m * dv)       # Step 2: stream K_hat, load V
                      + h * (m * d + m * dv)       # Step 3
                      + h * n                      # Step 4
                      + h * (n * d + n * dv)       # Step 5: stream Q, drain TN
                      + h * n * dv)                # Step 6
        if self.dataflow is Dataflow.DOWN_FORWARD:
            # G is written back to SRAM and re-read for Step 5.
            sram_words += h * 2 * d * dv
        # Memory energy is charged as a zero-latency pseudo step (accesses are
        # overlapped with compute by the four-level hierarchy).
        steps.append(("memory", "memory", 0,
                      self.config.memory.access_energy(sram_words)))

        cycles = pipeline_latency(steps) if self.pipelined else sequential_latency(steps)
        return layer_record(f"attention(n={n},d={d},h={h})", "attention",
                            spec.repeats, cycles, self.frequency_hz, steps)

    # -- linear layers -----------------------------------------------------------------------

    def run_linear_layer(self, spec: LinearLayerSpec) -> tuple[int, LayerRecord]:
        """Execute one dense (projection / MLP) GEMM on the systolic array."""

        return linear_layer(self.sa_general, "systolic", self.config.memory, spec)
