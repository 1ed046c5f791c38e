"""Uniform result schema returned by every simulation target.

Whatever hardware model produced them — the cycle-level ViTALiTy/Sanger/SALO
accelerators or the analytic platform models — results are normalised into a
:class:`RunResult`: latencies and energies in SI units, an energy breakdown,
and per-layer step records.  This is what makes results comparable across
targets, serialisable to JSON, and safe to memoise (all fields are immutable).

The per-layer and per-step records (:class:`LayerRecord`,
:class:`StepRecord`) are the ones the hardware models build themselves
(:mod:`repro.hardware.common`); the roofline records come from the
tile-level memory simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.hardware.common import LayerRecord, StepRecord
from repro.hardware.memsim.roofline import RooflineRecord

__all__ = ["LayerRecord", "RooflineRecord", "RunResult", "StepRecord"]


@dataclass(frozen=True)
class RunResult:
    """Normalised outcome of simulating one :class:`~repro.engine.RunSpec`.

    Attributes:
        model: workload name the run was executed on.
        target: registry name of the target that produced the result.
        attention_latency: seconds spent in the attention layers (per batch).
        linear_latency: seconds spent in projection/MLP GEMMs (zero when the
            run was attention-only or the target models no dense layers).
        attention_energy / linear_energy: joules, split the same way.
        end_to_end_latency / end_to_end_energy: whole-run totals.  Stored
            rather than derived so each target controls exactly how its
            components combine (bit-identical to the underlying model).
        energy_breakdown: target-specific energy categories in joules (the
            ViTALiTy targets report the Table V split ``data_access`` /
            ``other_processors`` / ``systolic_array`` of the attention module).
        layers: per-layer records with their step-level latency/energy.
        config: canonical knob string of the design point the producing
            target was configured with (``"pe=32x32,freq=1ghz"``); empty for
            the reference (Table III) design points.
        roofline: per-layer memory-system classification (compute-bound vs
            memory-bound, stall cycles, arithmetic intensity) from the
            tile-level memory simulator.  Empty — and absent from the JSON
            shape — unless the design point set a ``dram_gbps``/``tile_*``
            knob, so default results are unchanged.
    """

    model: str
    target: str
    attention_latency: float
    linear_latency: float
    attention_energy: float
    linear_energy: float
    end_to_end_latency: float
    end_to_end_energy: float
    energy_breakdown: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    layers: tuple[LayerRecord, ...] = field(default_factory=tuple)
    config: str = ""
    roofline: tuple[RooflineRecord, ...] = field(default_factory=tuple)

    def breakdown(self) -> dict[str, float]:
        """The energy breakdown as a plain dictionary."""

        return dict(self.energy_breakdown)

    def to_dict(self, include_layers: bool = False) -> dict[str, object]:
        payload: dict[str, object] = {
            "model": self.model,
            "target": self.target,
            "attention_latency": self.attention_latency,
            "linear_latency": self.linear_latency,
            "end_to_end_latency": self.end_to_end_latency,
            "attention_energy": self.attention_energy,
            "linear_energy": self.linear_energy,
            "end_to_end_energy": self.end_to_end_energy,
            "energy_breakdown": self.breakdown(),
            "config": self.config,
        }
        if include_layers:
            payload["layers"] = [layer.to_dict() for layer in self.layers]
        if self.roofline:
            payload["roofline"] = [record.to_dict() for record in self.roofline]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (the disk-cache path)."""

        return cls(
            model=payload["model"],
            target=payload["target"],
            attention_latency=payload["attention_latency"],
            linear_latency=payload["linear_latency"],
            attention_energy=payload["attention_energy"],
            linear_energy=payload["linear_energy"],
            end_to_end_latency=payload["end_to_end_latency"],
            end_to_end_energy=payload["end_to_end_energy"],
            energy_breakdown=tuple((key, value) for key, value
                                   in payload.get("energy_breakdown", {}).items()),
            layers=tuple(LayerRecord.from_dict(layer)
                         for layer in payload.get("layers", ())),
            config=payload.get("config", ""),
            roofline=tuple(RooflineRecord.from_dict(record)
                           for record in payload.get("roofline", ())),
        )

    def to_json(self, include_layers: bool = False, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(include_layers=include_layers), indent=indent)
