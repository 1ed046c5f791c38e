"""The records every hardware model builds, and the one layer loop over a workload.

A cycle-level model accounts each step of a layer as a ``(name, chunk,
cycles, energy_joules)`` tuple in integer cycles, and each layer method
returns ``(cycles, record)``: the layer's integer cycle count and its
:class:`LayerRecord`.  :func:`layer_record` divides each cycle count by the
clock once, so :func:`run_model` can sum a workload's cycles exactly and
divide once more per model.

The records are named tuples, the engine's per-layer and per-step result
schema (``RunResult.layers``): a memsim design point builds hundreds of
them, and a tuple is built in C, with no per-instance ``__dict__`` and no
per-field ``object.__setattr__``.  Hot paths build them with
``tuple.__new__`` and every field in order.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.fold import left_sum


class Dataflow(enum.Enum):
    """Systolic-array dataflows considered in Section IV-D."""

    #: Input-stationary everywhere; partial sums accumulate down the columns.
    DOWN_FORWARD = "down_forward"
    #: Output-stationary for G = K_hat^T V, then G kept in the PEs for Q G.
    G_STATIONARY = "g_stationary"


class StepRecord(NamedTuple):
    """One computational step of a layer on one hardware chunk."""

    name: str
    chunk: str
    latency_seconds: float
    energy_joules: float

    def to_dict(self) -> dict[str, object]:
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "StepRecord":
        return cls._make(payload[name] for name in cls._fields)


class LayerRecord(NamedTuple):
    """One simulated layer: its latency/energy per occurrence and repeat count."""

    name: str
    kind: str                          # "attention" | "linear" | "profile"
    repeats: int
    latency_seconds: float             # one occurrence
    energy_joules: float               # one occurrence
    steps: tuple[StepRecord, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "repeats": self.repeats,
            "latency_seconds": self.latency_seconds,
            "energy_joules": self.energy_joules,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "LayerRecord":
        return cls(name=payload["name"], kind=payload["kind"],
                   repeats=payload["repeats"],
                   latency_seconds=payload["latency_seconds"],
                   energy_joules=payload["energy_joules"],
                   steps=tuple(StepRecord.from_dict(step)
                               for step in payload.get("steps", ())))


def layer_record(name: str, kind: str, repeats: int, cycles: int,
                 frequency_hz: float, steps) -> tuple[int, LayerRecord]:
    """``(cycles, record)`` of one layer occurrence.

    ``steps`` are ``(name, chunk, cycles, energy_joules)`` tuples.  Each
    integer cycle count is divided by the clock once, and the layer's energy
    is a left fold over its steps, in order.
    """

    new = tuple.__new__
    return cycles, new(LayerRecord, (
        name, kind, repeats, cycles / frequency_hz,
        left_sum(energy for *_, energy in steps),
        tuple([new(StepRecord, (step, chunk, step_cycles / frequency_hz, energy))
               for step, chunk, step_cycles, energy in steps])))


def linear_layer(array, chunk: str, memory, spec) -> tuple[int, LayerRecord]:
    """One dense (projection / MLP) GEMM on a systolic ``array``.

    The weights stream from DRAM; the activations and the outputs cross the
    SRAM.  Memory energy is a zero-latency pseudo step, overlapped with
    compute by the memory hierarchy.
    """

    m, k, n = spec.tokens, spec.in_features, spec.out_features
    cycles, energy = array.matmul(m, k, n)
    return layer_record(
        f"linear({m}x{k}x{n})", "linear", spec.repeats, cycles,
        array.frequency_hz,
        (("gemm", chunk, cycles, energy),
         ("memory", "memory", 0,
          memory.access_energy(m * k + m * n, dram_words=k * n))))


def run_model(accelerator, workload, include_linear: bool = True
              ) -> tuple[float, float, float, float, tuple[LayerRecord, ...]]:
    """Run every attention (and optionally linear) layer of a workload.

    Returns ``(attention_latency, attention_energy, linear_latency,
    linear_energy, layers)``.  Each total adds ``cycles x repeats`` (or
    ``energy x repeats``) layer by layer, and a cycle total is divided by
    the accelerator's clock once.  ``layers`` holds one :class:`LayerRecord`
    per layer spec, the attention layers first.
    """

    layers: list[LayerRecord] = []

    def run(run_layer, specs) -> tuple[float, float]:
        cycles = 0
        energy = 0.0
        for spec in specs:
            layer_cycles, layer = run_layer(spec)
            cycles += layer_cycles * spec.repeats
            energy += layer.energy_joules * spec.repeats
            layers.append(layer)
        return cycles / accelerator.frequency_hz, energy

    attention = run(accelerator.run_attention_layer, workload.attention_layers)
    linear = (run(accelerator.run_linear_layer, workload.linear_layers)
              if include_linear else (0.0, 0.0))
    return (*attention, *linear, tuple(layers))
