"""The memsim-backed accelerator: tiled systolic partitions + rooflines.

:class:`TiledSystolicArray` is a drop-in replacement for
:class:`~repro.hardware.core.arrays.SystolicArray` whose ``matmul`` runs the
tile pipeline of :mod:`repro.hardware.memsim.simulator` instead of the
analytic cycle count: the returned execution carries the stall-inflated
cycle total, energy for the active (compute) cycles only, and the same word
counts the accelerator's SRAM-energy accounting has always charged — memsim
refines *timing*, the energy model is unchanged.

Operand sourcing is a residency check, not a per-call annotation: an operand
whose whole footprint fits one on-chip buffer is SRAM-resident (its tile
loads ride the wide on-chip ports and essentially never stall); anything
larger streams from DRAM at the ``dram_gbps`` interface rate.  That rule
reproduces the analytic model's narrative — linear-layer weights stream from
DRAM, small attention operands stay resident — and additionally charges
DRAM for attention operands that outgrow the buffers at long sequence
lengths, which the analytic model waves away.

:class:`MemSimViTALiTyAccelerator` swaps both systolic partitions for tiled
ones and aggregates each layer's traces into a
:class:`~repro.hardware.memsim.roofline.RooflineRecord`.
"""

from __future__ import annotations

from repro.hardware.accelerator import ViTALiTyAccelerator
from repro.hardware.common import Dataflow, LayerResult
from repro.hardware.config import ViTALiTyAcceleratorConfig
from repro.hardware.core.arrays import MatmulExecution, SystolicArray
from repro.hardware.core.component import ComponentConfig
from repro.hardware.memsim.config import WORD_BYTES, MemSimConfig
from repro.hardware.memsim.roofline import RooflineRecord, classify
from repro.hardware.memsim.simulator import GemmMemTrace, simulate_tiled_gemm
from repro.workloads import AttentionLayerSpec, LinearLayerSpec, ModelWorkload


class TiledSystolicArray(SystolicArray):
    """A systolic partition whose GEMMs run the tile-level memory pipeline,
    each appending its :class:`GemmMemTrace` to :attr:`traces`.

    Everything a GEMM reads of the array is fixed here, at construction:
    its shape, the residency bound, the PE energy per active cycle and the
    DRAM, SRAM and drain rates.
    """

    def __init__(self, component: ComponentConfig, frequency_hz: float,
                 utilization: float, memsim: MemSimConfig):
        super().__init__(component, frequency_hz, utilization)
        self.memsim = memsim
        self.traces: list[GemmMemTrace] = []
        self._rows, self._columns = component.rows, component.columns
        # Residency is judged against a whole buffer (double buffering
        # constrains tiles, not what can live on chip): a larger operand
        # streams from DRAM tile by tile.
        self._resident_words = memsim.ibuf_words
        self._energy_per_cycle = component.energy_per_cycle(frequency_hz)
        self._dram_rate = memsim.dram_words_per_cycle(frequency_hz)
        # On-chip ports feed the array edges; one word per edge lane per cycle.
        self._sram_rate = float(component.rows + component.columns)
        self._drain_rate = float(component.columns)

    def matmul(self, m: int, k: int, n: int, pe_energy_scale: float = 1.0,
               batch: int = 1) -> MatmulExecution:
        rows, columns = self._rows, self._columns
        stationary_words = k * n * batch
        streamed_words = m * k * batch
        trace = simulate_tiled_gemm(
            m, k, n,
            rows=rows, columns=columns, utilization=self.utilization,
            batch=batch, plan=self.memsim.plan(m, k, n, rows, columns),
            dram_words_per_cycle=self._dram_rate,
            sram_words_per_cycle=self._sram_rate,
            drain_words_per_cycle=self._drain_rate,
            stationary_dram=stationary_words > self._resident_words,
            streamed_dram=streamed_words > self._resident_words,
        )
        self.traces.append(trace)
        energy = trace.compute_cycles * self._energy_per_cycle * pe_energy_scale
        return MatmulExecution(
            cycles=trace.cycles,
            macs=trace.macs,
            energy_joules=energy,
            stationary_loads=stationary_words,
            streamed_words=streamed_words,
            output_words=m * n * batch,
        )


class MemSimViTALiTyAccelerator(ViTALiTyAccelerator):
    """The ViTALiTy accelerator with tile-level memory simulation.

    Behaves exactly like :class:`ViTALiTyAccelerator` except that every
    systolic GEMM pays for its memory traffic in cycles, and each simulated
    layer appends a :class:`RooflineRecord` to :attr:`rooflines` (aligned
    with the layers of the last :meth:`run_model` call, which
    :meth:`attention_energy_breakdown` leaves as they are).
    """

    def __init__(self, config: ViTALiTyAcceleratorConfig, memsim: MemSimConfig,
                 dataflow: Dataflow = Dataflow.DOWN_FORWARD,
                 pipelined: bool = True):
        super().__init__(config, dataflow=dataflow, pipelined=pipelined)
        self.memsim = memsim
        frequency = self.config.frequency_hz
        utilization = self.config.systolic_utilization
        self.sa_general = TiledSystolicArray(self.config.sa_general, frequency,
                                             utilization, memsim)
        self.sa_diag = TiledSystolicArray(self.config.sa_diag, frequency,
                                          utilization, memsim)
        # Both partitions record into one list: the current layer's GEMMs.
        self._traces = self.sa_diag.traces = self.sa_general.traces
        self.rooflines: list[RooflineRecord] = []

    def scaled_to_peak(self, peak_macs_per_second: float) -> "MemSimViTALiTyAccelerator":
        scaled = super().scaled_to_peak(peak_macs_per_second)
        return MemSimViTALiTyAccelerator(scaled.config, self.memsim,
                                         dataflow=self.dataflow,
                                         pipelined=self.pipelined)

    def _run_layer(self, run, spec, kind: str) -> LayerResult:
        """Run one layer and append its GEMM traces, summed field by field,
        as one roofline record carrying the spec's repeat count."""

        self._traces.clear()
        layer = run(spec)
        tiles = macs = dram_words = compute = load_stall = drain_stall = 0
        for trace in self._traces:
            tiles += trace.tiles
            macs += trace.macs
            dram_words += trace.dram_words
            compute += trace.compute_cycles
            load_stall += trace.load_stall_cycles
            drain_stall += trace.drain_stall_cycles
        dram_bytes = dram_words * WORD_BYTES
        seconds = layer.cycles / self.config.frequency_hz
        attained = dram_bytes / seconds / 1e9 if seconds > 0 else 0.0
        intensity = (2.0 * macs / dram_bytes) if dram_bytes else None
        # Every RooflineRecord field, in order, built in C.
        self.rooflines.append(tuple.__new__(RooflineRecord, (
            layer.name, kind, spec.repeats, tiles, macs, dram_bytes, compute,
            load_stall, drain_stall, intensity, attained, self.memsim.dram_gbps,
            classify(compute, load_stall + drain_stall))))
        return layer

    def run_attention_layer(self, spec: AttentionLayerSpec) -> LayerResult:
        return self._run_layer(super().run_attention_layer, spec, "attention")

    def run_linear_layer(self, spec: LinearLayerSpec) -> LayerResult:
        return self._run_layer(super().run_linear_layer, spec, "linear")

    def run_model(self, workload: ModelWorkload, include_linear: bool = True):
        self.rooflines = []
        return super().run_model(workload, include_linear=include_linear)

    def attention_energy_breakdown(self, workload: ModelWorkload):
        # The breakdown runs every attention layer again; its records must
        # not join those of the last run_model call.
        rooflines, self.rooflines = self.rooflines, []
        try:
            return super().attention_energy_breakdown(workload)
        finally:
            self.rooflines = rooflines
