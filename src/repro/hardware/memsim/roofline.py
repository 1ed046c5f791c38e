"""Per-layer roofline classification from the tile simulator's accounting.

A layer's roofline position is read off the measured quantities rather than
an idealised operational-intensity plot: the tile pipeline already knows how
many cycles the systolic partitions spent computing versus stalled on loads
or drains, and how many words actually crossed the DRAM interface.  A layer
is *memory-bound* when its stall cycles dominate its compute cycles — the
array spends most of its time waiting on the memory system — and
*compute-bound* otherwise.
"""

from __future__ import annotations

from typing import NamedTuple


class RooflineRecord(NamedTuple):
    """Memory-system accounting for one simulated layer (one occurrence).

    Cycle counts cover the layer's systolic-partition GEMMs (the tiled ops);
    ``arithmetic_intensity`` is FLOPs (2 x MACs) per DRAM byte, ``None`` when
    the layer's working set was entirely SRAM-resident, and
    ``attained_gbps`` is the DRAM traffic divided by the layer's wall-clock
    latency (so overlap with compute shows up as attained < peak).  A named
    tuple, like the engine's layer and step records: one is built for every
    simulated layer.
    """

    layer: str
    kind: str                          # "attention" | "linear"
    repeats: int
    tiles: int
    macs: int
    dram_bytes: int
    compute_cycles: int
    load_stall_cycles: int
    drain_stall_cycles: int
    arithmetic_intensity: float | None
    attained_gbps: float
    peak_gbps: float
    bound: str                         # "compute" | "memory"

    @property
    def stall_cycles(self) -> int:
        return self.load_stall_cycles + self.drain_stall_cycles

    def to_dict(self) -> dict[str, object]:
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "RooflineRecord":
        return cls._make(payload[name] for name in cls._fields)


def classify(compute_cycles: int, stall_cycles: int) -> str:
    """``"memory"`` when stalls dominate compute, else ``"compute"``."""

    if stall_cycles > 0 and stall_cycles >= compute_cycles:
        return "memory"
    return "compute"
