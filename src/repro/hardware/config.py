"""Accelerator configurations and the Table III technology model.

Component areas and powers are taken verbatim from Table III of the paper
(28 nm CMOS, 500 MHz).  Per-cycle component energies are derived as
``power / frequency``; per-access memory energies use typical 28 nm SRAM/DRAM
figures and are the knob the Table V data-access comparison exercises.

The geometry/energy primitives (:class:`ComponentConfig`,
:class:`MemoryEnergyConfig`) live in :mod:`repro.hardware.core.component`;
this module pins the paper's reference design points.  Non-reference design
points are derived from these via :mod:`repro.hardware.core.families`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.core.component import ComponentConfig, MemoryEnergyConfig

__all__ = [
    "ComponentConfig",
    "MemoryEnergyConfig",
    "ViTALiTyAcceleratorConfig",
    "SangerAcceleratorConfig",
]


@dataclass(frozen=True)
class ViTALiTyAcceleratorConfig:
    """The ViTALiTy accelerator of Table III."""

    name: str = "vitality"
    frequency_hz: float = 500e6
    technology_nm: int = 28
    sa_general: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "SA-General", 64, 64, 16, area_mm2=3.595, power_mw=1277.0))
    sa_diag: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "SA-Diag", 64, 1, 16, area_mm2=0.053, power_mw=15.18))
    accumulator_array: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Accumulator Array", 64, 1, 16, area_mm2=0.209, power_mw=92.83))
    adder_array: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Adder Array", 64, 1, 16, area_mm2=0.012, power_mw=6.34))
    divider_array: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Divider Array", 64, 1, 16, area_mm2=0.562, power_mw=46.26))
    memory_area_mm2: float = 0.792
    memory_power_mw: float = 22.9
    memory: MemoryEnergyConfig = field(default_factory=MemoryEnergyConfig)
    #: Average PE-array utilisation for dense GEMMs (pipeline fill/drain and
    #: tile-edge effects); configured targets set it with the ``util`` knob.
    systolic_utilization: float = 0.85
    #: Relative per-MAC energy overhead of reconfigurable PEs needed by the
    #: G-stationary dataflow (Section IV-D): the PEs must support both
    #: inner-PE and down-forward accumulation.
    g_stationary_pe_overhead: float = 1.12

    @property
    def total_area_mm2(self) -> float:
        return (self.sa_general.area_mm2 + self.sa_diag.area_mm2
                + self.accumulator_array.area_mm2 + self.adder_array.area_mm2
                + self.divider_array.area_mm2 + self.memory_area_mm2)

    @property
    def total_power_mw(self) -> float:
        return (self.sa_general.power_mw + self.sa_diag.power_mw
                + self.accumulator_array.power_mw + self.adder_array.power_mw
                + self.divider_array.power_mw + self.memory_power_mw)


@dataclass(frozen=True)
class SangerAcceleratorConfig:
    """The Sanger baseline accelerator of Table III (comparable area/power)."""

    name: str = "sanger"
    frequency_hz: float = 500e6
    technology_nm: int = 28
    pre_processor: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Pre-Processor", 64, 64, 4, area_mm2=0.430, power_mw=182.8))
    pack_and_split: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Pack & Split", 64, 64, 1, area_mm2=0.016, power_mw=0.64))
    divider_array: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "Divider Array", 64, 1, 16, area_mm2=0.562, power_mw=46.26))
    re_pe_array: ComponentConfig = field(default_factory=lambda: ComponentConfig(
        "RePE + EXP", 64, 16, 16, area_mm2=3.393, power_mw=1198.35))
    memory_area_mm2: float = 0.792
    memory_power_mw: float = 22.9
    memory: MemoryEnergyConfig = field(default_factory=MemoryEnergyConfig)
    #: Average utilisation of the reconfigurable PE array on the *structured*
    #: sparse workload produced by pack-and-split.
    pe_utilization: float = 0.55
    #: Attention density Sanger achieves with its default threshold T = 0.02
    #: (fraction of (query, key) pairs kept); measured masks can override it.
    default_density: float = 0.35

    @property
    def total_area_mm2(self) -> float:
        return (self.pre_processor.area_mm2 + self.pack_and_split.area_mm2
                + self.divider_array.area_mm2 + self.re_pe_array.area_mm2
                + self.memory_area_mm2)

    @property
    def total_power_mw(self) -> float:
        return (self.pre_processor.power_mw + self.pack_and_split.power_mw
                + self.divider_array.power_mw + self.re_pe_array.power_mw
                + self.memory_power_mw)
