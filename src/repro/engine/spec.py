"""Declarative, hashable description of one simulation run.

A :class:`RunSpec` captures everything that determines a simulation's outcome
— model (workload knobs such as the token count are spelled in its
configured name), target, attention formulation, batch size, dataflow,
pipelining, linear-layer inclusion, and peak-throughput scaling — so
identical runs can be recognised and served from the result cache, and
cross-product sweeps can be expanded mechanically.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from repro.knobs import is_count
from repro.workloads import ModelWorkload, get_workload

#: Dataflows accepted by the ViTALiTy targets (values of
#: :class:`repro.hardware.Dataflow`).
DATAFLOWS = ("down_forward", "g_stationary")

#: Attention formulations accepted by the platform targets.
ATTENTION_MODES = ("vanilla", "taylor")


@dataclass(frozen=True)
class RunSpec:
    """One simulation request.

    Attributes:
        model: workload name — a registered name (``"deit-tiny"``, see
            :func:`repro.workloads.list_workloads`) or a *configured* name
            spelled with the workload grammar
            (``"deit-tiny[tokens=1024]"``,
            ``"decoder[tokens=1,kv_tokens=2048,phase=decode]"``; see
            :func:`repro.workloads.list_families`).
        target: registry name of the simulation target, e.g. ``"vitality"``
            or ``"edge_gpu"`` (see :func:`repro.engine.list_targets`).
        attention: attention formulation for targets that support more than
            one (``"vanilla"`` or ``"taylor"`` on the platform models);
            ``None`` selects the target's native formulation.
        batch_size: images processed back to back, an integer >= 1; latency
            and energy scale linearly (the simulators model single-image
            residency).
        dataflow: accumulation dataflow override for the ViTALiTy targets
            (``"down_forward"`` or ``"g_stationary"``).
        pipelined: intra-layer pipelining override for the ViTALiTy targets.
        include_linear: include the projection/MLP GEMMs (set ``False`` for
            attention-only comparisons such as the SALO study).
        scale_to_peak: scale the target's PE array up to this peak MAC/s
            before simulating, if the target supports scaling and its native
            peak is lower (the paper's platform-comparison methodology).

    The hash is computed once, at construction, and equals the generated
    dataclass hash.  A pickle or copy is rebuilt through the constructor and
    hashes again, since string hashes are salted per process.
    """

    model: str
    target: str = "vitality"
    attention: str | None = None
    batch_size: int = 1
    dataflow: str | None = None
    pipelined: bool | None = None
    include_linear: bool = True
    scale_to_peak: float | None = None

    def __post_init__(self):
        if not self.model:
            raise ValueError("RunSpec.model must be a non-empty workload name")
        if not self.target:
            raise ValueError("RunSpec.target must be a non-empty target name")
        if not is_count(self.batch_size):
            raise ValueError(f"batch_size must be an integer >= 1, "
                             f"got {self.batch_size!r}")
        if self.attention is not None and self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, "
                             f"got {self.attention!r}")
        if self.dataflow is not None and self.dataflow not in DATAFLOWS:
            raise ValueError(f"dataflow must be one of {DATAFLOWS}, got {self.dataflow!r}")
        if self.scale_to_peak is not None and not (
                math.isfinite(self.scale_to_peak) and self.scale_to_peak > 0):
            # nan would pass a bare ``<= 0`` and never equal itself as a key.
            raise ValueError(f"scale_to_peak must be finite and positive, "
                             f"got {self.scale_to_peak}")
        object.__setattr__(self, "_hash", hash(_field_values(self)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), _field_values(self)

    def workload(self) -> ModelWorkload:
        """Resolve the configured workload this spec runs on; every spelling
        of one geometry resolves to the same cached :class:`ModelWorkload`."""

        return get_workload(self.model)

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Field values in declaration order: the generated hash's tuple, and __init__'s args.
_field_values = operator.attrgetter(*(f.name for f in fields(RunSpec)))
