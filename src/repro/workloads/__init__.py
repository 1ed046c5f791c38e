"""Model workload descriptions (attention geometry) for the evaluated models.

Every hardware- and complexity-side experiment in the paper (Table I, Table
II, Fig. 11, Fig. 12, Table V) depends only on the *geometry* of the models'
attention layers — number of tokens ``n``, per-head query/key dimension,
per-head value dimension, head count and layer count — not on trained
weights.  This subpackage is the single source of truth for those geometries
so the op-counting code, the profiling models and the accelerator simulator
all agree.

Workloads are first-class and parametric: beyond the paper's seven fixed
geometries (:mod:`specs`), :mod:`core` defines per-family knob schemas —
including BERT-style ``encoder``, GPT-style causal ``decoder`` and a generic
``transformer`` family — and :func:`get_workload` resolves *configured
names* spelled with the same bracketed grammar as hardware targets::

    get_workload("deit-tiny")                                   # Table I geometry
    get_workload("deit-tiny[tokens=1024]")                      # longer sequence
    get_workload("decoder[tokens=1,kv_tokens=2048,phase=decode]")  # KV-cached step

Configured names canonicalise (knob order/values normalised, reference
values dropped) and cache one :class:`ModelWorkload` per physical geometry.
"""

from repro.workloads.specs import (
    AttentionLayerSpec,
    LinearLayerSpec,
    ModelWorkload,
    SEED_WORKLOADS,
    list_workloads,
    vit_linear_layers,
    DEIT_TINY,
    DEIT_SMALL,
    DEIT_BASE,
    MOBILEVIT_XXS,
    MOBILEVIT_XS,
    LEVIT_128S,
    LEVIT_128,
)
from repro.workloads.core import (
    FAMILIES,
    UnknownWorkloadError,
    WorkloadFamily,
    canonical_workload_name,
    configured_name,
    get_family,
    get_workload,
    list_families,
    scaled_to_tokens,
)

__all__ = [
    "AttentionLayerSpec",
    "FAMILIES",
    "LinearLayerSpec",
    "ModelWorkload",
    "SEED_WORKLOADS",
    "UnknownWorkloadError",
    "WorkloadFamily",
    "canonical_workload_name",
    "configured_name",
    "get_family",
    "get_workload",
    "list_families",
    "list_workloads",
    "scaled_to_tokens",
    "vit_linear_layers",
    "DEIT_TINY",
    "DEIT_SMALL",
    "DEIT_BASE",
    "MOBILEVIT_XXS",
    "MOBILEVIT_XS",
    "LEVIT_128S",
    "LEVIT_128",
]
