"""The parametric microarchitecture core shared by every hardware model.

``hardware/core`` owns the geometry, energy and scheduling arithmetic the
cycle-level accelerators (ViTALiTy, Sanger, SALO) and the analytic platforms
are built from — and, crucially, the *knobs* that turn each frozen Table III
design point into a family of design points:

* :mod:`component` — per-chunk geometry (:class:`ComponentConfig`) and
  memory-hierarchy energies (:class:`MemoryEnergyConfig`), each with a
  ``scaled(...)`` method implementing the area/power/energy scaling rules;
* :mod:`arrays` — the tile-level systolic-array model and the lane-array
  pre/post processors (accumulator / adder / divider);
* :mod:`memory` — word-level memory-traffic accounting and the Table V
  energy-breakdown container;
* :mod:`pipeline` — the intra-layer chunk-occupancy pipeline model;
* :mod:`families` — per-family knob schemas and builders materialising a
  parsed design point into the family's concrete configuration.

A design point is a ``pe=32x32,freq=1ghz`` knob string parsed by the
neutral grammar in :mod:`repro.knobs` into a hashable
:class:`~repro.knobs.KnobConfig`.

Every scaling rule is exact at the reference point (all ratios 1 short-circuit
to the original object), so default-knob design points stay bit-identical to
the seed Table III models.
"""

from repro.hardware.core.component import ComponentConfig, MemoryEnergyConfig
from repro.hardware.core.arrays import (
    AccumulatorArray,
    AdderArray,
    DividerArray,
    MatmulExecution,
    SystolicArray,
    matmul_cycles,
)
from repro.hardware.core.memory import EnergyBreakdown, MemoryTrafficModel
from repro.hardware.core.pipeline import (
    pipeline_latency,
    pipeline_speedup,
    sequential_latency,
)
from repro.knobs import KnobConfig, Knob, KnobError, KnobSchema

__all__ = [
    "AccumulatorArray",
    "AdderArray",
    "ComponentConfig",
    "DividerArray",
    "EnergyBreakdown",
    "Knob",
    "KnobConfig",
    "KnobError",
    "KnobSchema",
    "MatmulExecution",
    "MemoryEnergyConfig",
    "MemoryTrafficModel",
    "SystolicArray",
    "matmul_cycles",
    "pipeline_latency",
    "pipeline_speedup",
    "sequential_latency",
]
