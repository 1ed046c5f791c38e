"""The memsim-backed accelerator: tiled systolic partitions + rooflines.

:class:`TiledSystolicArray` is a drop-in replacement for
:class:`~repro.hardware.core.arrays.SystolicArray` whose ``matmul`` runs the
tile pipeline of :mod:`repro.hardware.memsim.simulator` instead of the
analytic cycle count: it returns the stall-inflated cycle total and energy
for the active (compute) cycles only, while the accelerator keeps charging
SRAM energy for the same word counts as always — memsim refines *timing*,
the energy model is unchanged.

Operand sourcing is a residency check, not a per-call annotation: an operand
whose whole footprint fits one on-chip buffer is SRAM-resident (its tile
loads ride the wide on-chip ports and essentially never stall); anything
larger streams from DRAM at the ``dram_gbps`` interface rate.  That rule
reproduces the analytic model's narrative — linear-layer weights stream from
DRAM, small attention operands stay resident — and additionally charges
DRAM for attention operands that outgrow the buffers at long sequence
lengths, which the analytic model waves away.

:class:`MemSimViTALiTyAccelerator` builds both systolic partitions tiled and
aggregates each layer's traces into a
:class:`~repro.hardware.memsim.roofline.RooflineRecord`.
"""

from __future__ import annotations

from repro.hardware.accelerator import ViTALiTyAccelerator
from repro.hardware.common import Dataflow, LayerRecord
from repro.hardware.config import ViTALiTyAcceleratorConfig
from repro.hardware.core.arrays import SystolicArray
from repro.hardware.core.component import ComponentConfig
from repro.hardware.memsim.config import WORD_BYTES, MemSimConfig
from repro.hardware.memsim.roofline import RooflineRecord, classify
from repro.hardware.memsim.simulator import GemmMemTrace, simulate_tiled_gemm
from repro.workloads import AttentionLayerSpec, LinearLayerSpec


class TiledSystolicArray(SystolicArray):
    """A systolic partition whose GEMMs run the tile-level memory pipeline,
    each appending its :class:`GemmMemTrace` to :attr:`traces`.

    Everything a GEMM reads of the array is fixed here, at construction:
    its shape, the residency bound, the PE energy per active cycle and the
    DRAM, SRAM and drain rates.
    """

    def __init__(self, component: ComponentConfig, frequency_hz: float,
                 utilization: float, memsim: MemSimConfig,
                 traces: list[GemmMemTrace]):
        super().__init__(component, frequency_hz, utilization)
        self.memsim = memsim
        self.traces = traces
        self._rows, self._columns = component.rows, component.columns
        # Residency is judged against a whole buffer (double buffering
        # constrains tiles, not what can live on chip): a larger operand
        # streams from DRAM tile by tile.
        self._resident_words = memsim.ibuf_words
        self._dram_rate = memsim.dram_words_per_cycle(frequency_hz)
        # On-chip ports feed the array edges; one word per edge lane per cycle.
        self._sram_rate = float(component.rows + component.columns)
        self._drain_rate = float(component.columns)

    def matmul(self, m: int, k: int, n: int, pe_energy_scale: float = 1.0,
               batch: int = 1) -> tuple[int, float]:
        rows, columns = self._rows, self._columns
        trace = simulate_tiled_gemm(
            m, k, n,
            rows=rows, columns=columns, utilization=self.utilization,
            batch=batch, plan=self.memsim.plan(m, k, n, rows, columns),
            dram_words_per_cycle=self._dram_rate,
            sram_words_per_cycle=self._sram_rate,
            drain_words_per_cycle=self._drain_rate,
            stationary_dram=k * n * batch > self._resident_words,
            streamed_dram=m * k * batch > self._resident_words,
        )
        self.traces.append(trace)
        return (trace.cycles,
                trace.compute_cycles * self.energy_per_cycle * pe_energy_scale)


class MemSimViTALiTyAccelerator(ViTALiTyAccelerator):
    """The ViTALiTy accelerator with tile-level memory simulation.

    Behaves exactly like :class:`ViTALiTyAccelerator` except that every
    systolic GEMM pays for its memory traffic in cycles, and each simulated
    layer appends a :class:`RooflineRecord` to :attr:`rooflines`, in the
    order the layers ran.
    """

    def __init__(self, config: ViTALiTyAcceleratorConfig, memsim: MemSimConfig,
                 dataflow: Dataflow = Dataflow.DOWN_FORWARD,
                 pipelined: bool = True):
        self.memsim = memsim
        # Both partitions record into one list: the current layer's GEMMs.
        self._traces: list[GemmMemTrace] = []
        self.rooflines: list[RooflineRecord] = []
        super().__init__(config, dataflow=dataflow, pipelined=pipelined)

    def _partition(self, component: ComponentConfig) -> TiledSystolicArray:
        return TiledSystolicArray(component, self.config.frequency_hz,
                                  self.config.systolic_utilization, self.memsim,
                                  self._traces)

    def _with_config(self, config: ViTALiTyAcceleratorConfig) -> "MemSimViTALiTyAccelerator":
        return MemSimViTALiTyAccelerator(config, self.memsim, dataflow=self.dataflow,
                                         pipelined=self.pipelined)

    def _run_layer(self, run, spec) -> tuple[int, LayerRecord]:
        """Run one layer and append its GEMM traces, summed field by field,
        as one roofline record carrying the layer's repeat count."""

        self._traces.clear()
        cycles, layer = run(spec)
        tiles = macs = dram_words = compute = load_stall = drain_stall = 0
        for trace in self._traces:
            tiles += trace.tiles
            macs += trace.macs
            dram_words += trace.dram_words
            compute += trace.compute_cycles
            load_stall += trace.load_stall_cycles
            drain_stall += trace.drain_stall_cycles
        dram_bytes = dram_words * WORD_BYTES
        seconds = layer.latency_seconds
        attained = dram_bytes / seconds / 1e9 if seconds > 0 else 0.0
        intensity = (2.0 * macs / dram_bytes) if dram_bytes else None
        # Every RooflineRecord field, in order, built in C.
        self.rooflines.append(tuple.__new__(RooflineRecord, (
            layer.name, layer.kind, layer.repeats, tiles, macs, dram_bytes,
            compute, load_stall, drain_stall, intensity, attained,
            self.memsim.dram_gbps, classify(compute, load_stall + drain_stall))))
        return cycles, layer

    def run_attention_layer(self, spec: AttentionLayerSpec) -> tuple[int, LayerRecord]:
        return self._run_layer(super().run_attention_layer, spec)

    def run_linear_layer(self, spec: LinearLayerSpec) -> tuple[int, LayerRecord]:
        return self._run_layer(super().run_linear_layer, spec)
