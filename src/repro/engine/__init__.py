"""The unified simulation engine: one public API over every hardware model.

This package is the single entry point for running the paper's hardware
evaluation matrix.  The pieces:

* :class:`Target` — the protocol every simulation backend implements, with a
  registry mapping names (``vitality``, ``vitality-gstationary``,
  ``vitality-unpipelined``, ``sanger``, ``salo``, ``cpu``, ``edge_gpu``,
  ``gpu``, ``pixel3``) to adapters over the cycle-level accelerators and
  analytic platform models (:mod:`targets`);
* :class:`RunSpec` — a validated named tuple describing one run (model,
  target, attention mode, batch size, dataflow, pipelining, peak scaling),
  hashed and compared by value in C (:mod:`spec`);
* :func:`simulate` and :class:`ResultCache` — memoised execution keyed on
  the spec, so repeated figure/table experiments never re-simulate an
  identical run (:mod:`cache`).  :func:`resolve` is its first half: the
  spec's target and canonical cache key.  A hot loop resolves each shape
  once and then calls ``cache.get_or_run(canonical, target.simulate)``
  itself, which is what ``simulate`` does on every call;
* :class:`Sweep` — declarative cross-product expansion of models x targets x
  options, executed through the cache (:mod:`sweep`);
* :class:`RunResult` — the uniform latency/energy/step schema every target
  returns, JSON-serialisable via ``to_dict()`` (:mod:`results`).

Typical use::

    from repro.engine import RunSpec, simulate

    result = simulate(RunSpec("deit-tiny", target="sanger"))
    print(result.end_to_end_latency, result.to_json())
"""

from repro.engine.cache import (
    CacheStats,
    DEFAULT_CACHE,
    ResultCache,
    cache_stats,
    canonicalise_spec,
    clear_cache,
    resolve,
    simulate,
)
from repro.engine.store import DiskResultCache
from repro.engine.results import LayerRecord, RunResult, StepRecord
from repro.engine.spec import ATTENTION_MODES, DATAFLOWS, RunSpec
from repro.engine.sweep import Sweep, SweepOutcome, sweep
from repro.engine.targets import (
    PlatformTarget,
    SALOTarget,
    SangerTarget,
    Target,
    UnknownTargetError,
    VitalityTarget,
    get_target,
    list_targets,
    register_target,
    split_configured_names,
    target_area_mm2,
    target_sram_kb,
)
from repro.workloads import UnknownWorkloadError, canonical_workload_name

__all__ = [
    "ATTENTION_MODES",
    "DATAFLOWS",
    "CacheStats",
    "DEFAULT_CACHE",
    "DiskResultCache",
    "LayerRecord",
    "PlatformTarget",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SALOTarget",
    "SangerTarget",
    "StepRecord",
    "Sweep",
    "SweepOutcome",
    "Target",
    "UnknownTargetError",
    "UnknownWorkloadError",
    "VitalityTarget",
    "cache_stats",
    "canonical_workload_name",
    "canonicalise_spec",
    "clear_cache",
    "get_target",
    "list_targets",
    "register_target",
    "resolve",
    "simulate",
    "split_configured_names",
    "sweep",
    "target_area_mm2",
    "target_sram_kb",
]
