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
from typing import NamedTuple

from repro.knobs import is_count
from repro.workloads import ModelWorkload, get_workload

#: Dataflows accepted by the ViTALiTy targets (values of
#: :class:`repro.hardware.Dataflow`).
DATAFLOWS = ("down_forward", "g_stationary")

#: Attention formulations accepted by the platform targets.
ATTENTION_MODES = ("vanilla", "taylor")


class _RunSpecFields(NamedTuple):
    # The fields and their defaults; RunSpec adds the checks.
    model: str
    target: str = "vitality"
    attention: str | None = None
    batch_size: int = 1
    dataflow: str | None = None
    pipelined: bool | None = None
    include_linear: bool = True
    scale_to_peak: float | None = None


class RunSpec(_RunSpecFields):
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

    A validated named tuple, because every resolver and result-cache lookup
    hashes and compares one: a tuple does both in C, by value, under the
    running process's string-hash salt, so a spec equals the plain tuple of
    its fields.  Every construction runs the checks in ``__new__``: keyword
    and positional calls, :meth:`_replace` and :meth:`_make` (the generated
    ones skip ``__new__``), and copies and pickles at every protocol, which
    rebuild through the constructor (:meth:`__reduce__`).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunSpec:
        spec = super().__new__(cls, *args, **kwargs)
        if not spec.model:
            raise ValueError("RunSpec.model must be a non-empty workload name")
        if not spec.target:
            raise ValueError("RunSpec.target must be a non-empty target name")
        if not is_count(spec.batch_size):
            raise ValueError(f"batch_size must be an integer >= 1, "
                             f"got {spec.batch_size!r}")
        if spec.attention is not None and spec.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, "
                             f"got {spec.attention!r}")
        if spec.dataflow is not None and spec.dataflow not in DATAFLOWS:
            raise ValueError(f"dataflow must be one of {DATAFLOWS}, got {spec.dataflow!r}")
        if spec.scale_to_peak is not None and not (
                math.isfinite(spec.scale_to_peak) and spec.scale_to_peak > 0):
            # nan would pass a bare ``<= 0`` and never equal itself as a key.
            raise ValueError(f"scale_to_peak must be finite and positive, "
                             f"got {spec.scale_to_peak}")
        return spec

    @classmethod
    def _make(cls, iterable) -> RunSpec:
        """A spec from all of its field values, through the checks
        (``_replace`` builds through this too)."""

        return cls(*_RunSpecFields._make(iterable))

    def __reduce__(self):
        # Without it, pickle protocols 0 and 1 rebuild a tuple subclass with
        # tuple.__new__, past the checks.
        return type(self), tuple(self)

    def workload(self) -> ModelWorkload:
        """Resolve the configured workload this spec runs on; every spelling
        of one geometry resolves to the same cached :class:`ModelWorkload`."""

        return get_workload(self.model)

    def to_dict(self) -> dict[str, object]:
        return self._asdict()
