"""The parametric microarchitecture core shared by every hardware model.

``hardware/core`` owns the geometry, energy and scheduling arithmetic the
cycle-level accelerators (ViTALiTy, Sanger, SALO) and the analytic platforms
are built from — and, crucially, the *knobs* that turn each frozen Table III
design point into a family of design points:

* :mod:`component` — per-chunk geometry (:class:`ComponentConfig`) and
  memory-hierarchy energies (:class:`MemoryEnergyConfig`, which also prices
  a layer's SRAM and DRAM words), each with a ``scaled(...)`` method
  implementing the area/power/energy scaling rules;
* :mod:`arrays` — the tile-level systolic-array model and the lane-array
  model of the pre/post processors (accumulator / adder / divider), each
  returning a GEMM's or an operation batch's cycles and energy;
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
from repro.hardware.core.arrays import LaneArray, SystolicArray, matmul_cycles
from repro.hardware.core.pipeline import pipeline_latency, sequential_latency
from repro.knobs import KnobConfig, Knob, KnobError, KnobSchema

__all__ = [
    "ComponentConfig",
    "Knob",
    "KnobConfig",
    "KnobError",
    "KnobSchema",
    "LaneArray",
    "MemoryEnergyConfig",
    "SystolicArray",
    "matmul_cycles",
    "pipeline_latency",
    "sequential_latency",
]
