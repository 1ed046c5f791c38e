"""The parametric workload core: families, knob schemas and the name grammar.

``workloads/core`` mirrors ``hardware/core``: where the hardware side turns
``vitality[pe=32x32,freq=1ghz]`` into a design point, this package turns
``decoder[tokens=1,kv_tokens=2048,phase=decode]`` into a workload geometry —
same bracketed grammar (:mod:`repro.knobs`), same canonicalisation rules,
same one-object-per-physical-configuration caching.

* :mod:`schema` — :class:`WorkloadFamily` (knob schema + builder + reference
  geometry) and the floor-consistent multi-stage token scaler;
* :mod:`families` — the per-family schemas/builders: the paper's seven ViT
  geometries plus the ``encoder`` / ``decoder`` / ``transformer`` sequence
  families;
* :mod:`registry` — :func:`get_workload` / :func:`canonical_workload_name`
  / :func:`configured_name` over configured names, with the per-geometry
  workload cache and :class:`UnknownWorkloadError`.
"""

from repro.workloads.core.families import FAMILIES, PHASES
from repro.workloads.core.registry import (
    UnknownWorkloadError,
    canonical_workload_name,
    configured_name,
    get_family,
    get_workload,
    list_families,
)
from repro.workloads.core.schema import WorkloadFamily, scaled_to_tokens

__all__ = [
    "FAMILIES",
    "PHASES",
    "UnknownWorkloadError",
    "WorkloadFamily",
    "canonical_workload_name",
    "configured_name",
    "get_family",
    "get_workload",
    "list_families",
    "scaled_to_tokens",
]
