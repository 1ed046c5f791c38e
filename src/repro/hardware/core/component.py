"""Per-chunk geometry and memory-hierarchy energy primitives.

A :class:`ComponentConfig` describes one hardware chunk — a systolic-array
partition, an adder array, a divider array — by its lane geometry and its
synthesised area/power at the reference design point.  A
:class:`MemoryEnergyConfig` describes the per-access energies of the
four-level memory hierarchy and prices a layer's SRAM and DRAM words.

Both carry a ``scaled(...)`` method implementing the technology-model scaling
rules every design point is derived through:

* area scales linearly with lane count (more PEs, more silicon);
* power scales linearly with lane count *and* with frequency (dynamic power
  dominates at a fixed technology node, so per-cycle energy is
  frequency-invariant);
* SRAM per-access energy scales with the square root of the capacity ratio
  (longer bit/word lines — the CACTI rule of thumb);
* DRAM per-access energy is a knob, not a derived quantity.

Scaling at ratio 1 returns the object unchanged, so reference-point
configurations are bit-identical to their hand-written Table III values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ComponentConfig:
    """One hardware chunk: its array geometry and synthesised area/power."""

    name: str
    rows: int
    columns: int
    bits: int
    area_mm2: float
    power_mw: float

    @property
    def lanes(self) -> int:
        """Number of parallel processing lanes (PEs / adders / dividers)."""

        return self.rows * self.columns

    def energy_per_cycle(self, frequency_hz: float) -> float:
        """Dynamic energy consumed per active cycle, in joules."""

        return self.power_mw * 1e-3 / frequency_hz

    def scaled(self, rows: int | None = None, columns: int | None = None,
               frequency_ratio: float = 1.0) -> "ComponentConfig":
        """This chunk re-dimensioned to a new geometry and/or clock.

        Area and power scale with the lane-count ratio; power additionally
        scales with ``frequency_ratio`` so per-cycle energy stays constant.
        An identity scaling returns ``self`` unchanged.
        """

        rows = self.rows if rows is None else rows
        columns = self.columns if columns is None else columns
        if min(rows, columns) < 1:
            raise ValueError(f"component geometry must be positive, got {rows}x{columns}")
        if frequency_ratio <= 0:
            raise ValueError(f"frequency ratio must be positive, got {frequency_ratio}")
        if (rows, columns) == (self.rows, self.columns) and frequency_ratio == 1.0:
            return self
        lane_ratio = (rows * columns) / self.lanes
        return replace(self, rows=rows, columns=columns,
                       area_mm2=self.area_mm2 * lane_ratio,
                       power_mw=self.power_mw * lane_ratio * frequency_ratio)


@dataclass(frozen=True)
class MemoryEnergyConfig:
    """Per-access energies of the four-level memory hierarchy (joules/16-bit word)."""

    register_access: float = 0.02e-12
    noc_access: float = 0.08e-12
    sram_access: float = 0.25e-12
    dram_access: float = 60e-12
    sram_kb: int = 200  # 50 KB per Q/K/V/O buffer

    def access_energy(self, sram_words: int, dram_words: int = 0) -> float:
        """Energy of moving words through the hierarchy: every SRAM word
        also crosses the NoC, and every DRAM word pays one DRAM access."""

        return (sram_words * self.sram_access + sram_words * self.noc_access
                + dram_words * self.dram_access)

    def scaled(self, sram_kb: int | None = None,
               sram_access: float | None = None,
               dram_access: float | None = None) -> "MemoryEnergyConfig":
        """This hierarchy re-sized and/or re-costed.

        Growing (or shrinking) the SRAM re-derives the per-access energy with
        the square-root capacity rule unless ``sram_access`` pins it
        explicitly.  An identity scaling returns ``self`` unchanged.
        """

        new_kb = self.sram_kb if sram_kb is None else sram_kb
        if new_kb < 1:
            raise ValueError(f"sram_kb must be >= 1, got {new_kb}")
        if sram_access is None:
            sram_access = (self.sram_access if new_kb == self.sram_kb
                           else self.sram_access * math.sqrt(new_kb / self.sram_kb))
        if dram_access is None:
            dram_access = self.dram_access
        if (new_kb == self.sram_kb and sram_access == self.sram_access
                and dram_access == self.dram_access):
            return self
        return replace(self, sram_kb=new_kb, sram_access=sram_access,
                       dram_access=dram_access)
