"""Memory-traffic accounting and energy-breakdown containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fold import left_sum
from repro.hardware.core.component import MemoryEnergyConfig


@dataclass
class EnergyBreakdown:
    """Energy split into the categories Table V reports."""

    data_access: float = 0.0
    other_processors: float = 0.0
    systolic_array: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def overall(self) -> float:
        return (self.data_access + self.other_processors + self.systolic_array
                + left_sum(self.extra.values()))

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged_extra = dict(self.extra)
        for key, value in other.extra.items():
            merged_extra[key] = merged_extra.get(key, 0.0) + value
        return EnergyBreakdown(
            data_access=self.data_access + other.data_access,
            other_processors=self.other_processors + other.other_processors,
            systolic_array=self.systolic_array + other.systolic_array,
            extra=merged_extra,
        )


class MemoryTrafficModel:
    """Counts word-level accesses of the memory hierarchy and converts to energy."""

    def __init__(self, config: MemoryEnergyConfig):
        self.config = config
        self.sram_accesses = 0
        self.dram_accesses = 0
        self.noc_accesses = 0

    def access_sram(self, words: int) -> None:
        if words < 0:
            raise ValueError("word count must be non-negative")
        self.sram_accesses += words
        self.noc_accesses += words

    def access_dram(self, words: int) -> None:
        if words < 0:
            raise ValueError("word count must be non-negative")
        self.dram_accesses += words

    @property
    def energy_joules(self) -> float:
        return (self.sram_accesses * self.config.sram_access
                + self.noc_accesses * self.config.noc_access
                + self.dram_accesses * self.config.dram_access)
