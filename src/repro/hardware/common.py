"""Shared result types for the hardware models."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Dataflow(enum.Enum):
    """Systolic-array dataflows considered in Section IV-D."""

    #: Input-stationary everywhere; partial sums accumulate down the columns.
    DOWN_FORWARD = "down_forward"
    #: Output-stationary for G = K_hat^T V, then G kept in the PEs for Q G.
    G_STATIONARY = "g_stationary"


@dataclass
class StepResult:
    """Latency/energy of one computational step on one hardware chunk."""

    name: str
    chunk: str
    cycles: int
    energy_joules: float
    operations: int = 0
    sram_accesses: int = 0


@dataclass
class LayerResult:
    """Aggregate latency/energy of one attention (or linear) layer."""

    name: str
    cycles: int
    energy_joules: float
    frequency_hz: float
    steps: list[StepResult] = field(default_factory=list)

    @property
    def latency_seconds(self) -> float:
        return self.cycles / self.frequency_hz


@dataclass
class ModelResult:
    """Aggregate latency/energy of a full model (attention + linear layers)."""

    model: str
    device: str
    attention_cycles: int
    attention_energy: float
    linear_cycles: int
    linear_energy: float
    frequency_hz: float
    layers: list[LayerResult] = field(default_factory=list)

    @property
    def attention_latency(self) -> float:
        return self.attention_cycles / self.frequency_hz

    @property
    def linear_latency(self) -> float:
        return self.linear_cycles / self.frequency_hz

    @property
    def end_to_end_latency(self) -> float:
        return self.attention_latency + self.linear_latency

    @property
    def end_to_end_energy(self) -> float:
        return self.attention_energy + self.linear_energy
