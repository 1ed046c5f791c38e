"""Hardware modelling: the ViTALiTy accelerator and its baselines.

The paper evaluates a dedicated ViTALiTy accelerator (Section IV) against
general-purpose platforms (CPU, GPU, edge GPU) and the Sanger sparse-attention
accelerator.  This subpackage provides:

* a shared, fully parameterised microarchitecture core — array geometry,
  lane-array processors, memory-hierarchy energies, the intra-layer pipeline
  model, and the design-point knob grammar with per-family area/power/energy
  scaling (:mod:`core`);
* a cycle-level model of the ViTALiTy accelerator — chunked micro-architecture
  (systolic array split into SA-General/SA-Diag plus accumulator/adder/divider
  arrays), the intra-layer pipeline, and the down-forward accumulation vs
  G-stationary dataflows (:mod:`accelerator`);
* a matching cycle-level model of the Sanger baseline accelerator
  (:mod:`sanger`) and of the SALO sliding-window accelerator (:mod:`salo`);
* analytic latency/energy models of the commodity platforms calibrated to the
  paper's own profiling tables (:mod:`platforms`);
* the Table III reference design points the knob scaling derives every other
  design point from (:mod:`config`);
* Table VI's mapping of linear-attention families onto the pre/post
  processors they need (:mod:`extension`).
"""

from repro.hardware.config import (
    ComponentConfig,
    ViTALiTyAcceleratorConfig,
    SangerAcceleratorConfig,
    MemoryEnergyConfig,
)
from repro.hardware.common import StepResult, LayerResult, ModelResult, Dataflow
from repro.hardware.core.arrays import (
    SystolicArray,
    matmul_cycles,
    AccumulatorArray,
    AdderArray,
    DividerArray,
)
from repro.knobs import KnobConfig, KnobError, KnobSchema
from repro.hardware.core.memory import EnergyBreakdown, MemoryTrafficModel
from repro.hardware.core.pipeline import (
    pipeline_latency,
    pipeline_speedup,
    sequential_latency,
)
from repro.hardware.accelerator import ViTALiTyAccelerator
from repro.hardware.sanger import SangerAccelerator
from repro.hardware.salo import SALOAccelerator, SALOConfig
from repro.hardware.platforms import Platform, PLATFORMS, get_platform
from repro.hardware.core.families import (
    FAMILY_SCHEMAS,
    PLATFORM_SCHEMA,
    SALO_SCHEMA,
    SANGER_SCHEMA,
    VITALITY_SCHEMA,
    build_platform,
    build_salo_configs,
    build_sanger_config,
    build_vitality_config,
)
from repro.hardware.extension import linear_attention_processor_requirements
from repro.hardware.memsim import (
    MemSimConfig,
    MemSimViTALiTyAccelerator,
    RooflineRecord,
    TiledSystolicArray,
)

__all__ = [
    "ComponentConfig",
    "ViTALiTyAcceleratorConfig",
    "SangerAcceleratorConfig",
    "MemoryEnergyConfig",
    "KnobConfig",
    "KnobError",
    "KnobSchema",
    "FAMILY_SCHEMAS",
    "VITALITY_SCHEMA",
    "SANGER_SCHEMA",
    "SALO_SCHEMA",
    "PLATFORM_SCHEMA",
    "build_vitality_config",
    "build_sanger_config",
    "build_salo_configs",
    "build_platform",
    "StepResult",
    "LayerResult",
    "ModelResult",
    "Dataflow",
    "SystolicArray",
    "matmul_cycles",
    "AccumulatorArray",
    "AdderArray",
    "DividerArray",
    "pipeline_latency",
    "pipeline_speedup",
    "sequential_latency",
    "ViTALiTyAccelerator",
    "SangerAccelerator",
    "SALOAccelerator",
    "SALOConfig",
    "Platform",
    "PLATFORMS",
    "get_platform",
    "EnergyBreakdown",
    "MemoryTrafficModel",
    "linear_attention_processor_requirements",
    "MemSimConfig",
    "MemSimViTALiTyAccelerator",
    "RooflineRecord",
    "TiledSystolicArray",
]
