"""Simulation targets: one uniform ``Target`` protocol over every hardware model.

A target adapts one of the repo's hardware models — the cycle-level ViTALiTy,
Sanger and SALO accelerators or the analytic CPU/GPU platform models — to a
single interface::

    class Target(Protocol):
        name: str
        peak_macs_per_second: float
        def simulate(self, spec: RunSpec) -> RunResult: ...

Targets are looked up by name in a registry; the default registry covers the
paper's full evaluation matrix (``vitality`` and its dataflow/pipelining
variants, ``sanger``, ``salo``, and the ``cpu`` / ``edge_gpu`` / ``gpu``
platforms).  New hardware backends plug in via :func:`register_target`.

Beyond the registered names, :func:`get_target` understands *configured*
names — ``vitality[pe=32x32,freq=1ghz]`` — which parse the bracketed knob
string with the base target's family schema
(:mod:`repro.knobs`) and build a design-point instance on
demand.  Configured names are canonicalised (knobs sorted, values
normalised, reference values dropped) and the resulting instances cached, so
every spelling of one physical design point resolves to one target object —
and therefore one set of result-cache entries.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.engine.results import LayerRecord, RunResult, StepRecord
from repro.engine.spec import RunSpec
from repro.hardware import (
    Dataflow,
    KnobConfig,
    MemSimConfig,
    MemSimViTALiTyAccelerator,
    ModelResult,
    PLATFORM_SCHEMA,
    SALO_SCHEMA,
    SALOAccelerator,
    SANGER_SCHEMA,
    SangerAccelerator,
    VITALITY_SCHEMA,
    ViTALiTyAccelerator,
    build_platform,
    build_salo_configs,
    build_sanger_config,
    build_vitality_config,
    get_platform,
)
from repro.hardware.memsim.roofline import RooflineRecord
from repro.workloads import ModelWorkload


class UnknownTargetError(KeyError):
    """Raised when a target name is not in the registry."""


@runtime_checkable
class Target(Protocol):
    """What every simulation backend must provide."""

    name: str

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput of the target's compute fabric."""
        ...

    def simulate(self, spec: RunSpec) -> RunResult:
        """Execute one run and return the uniform result schema."""
        ...


def split_configured_names(text: str) -> tuple[str, ...]:
    """Split a comma-separated name list, ignoring commas inside ``[...]``.

    ``"vitality[pe=32x32,freq=1ghz],sanger"`` has a knob-separating comma a
    naive ``text.split(",")`` would cut at; this is the splitter every
    name-list consumer (the CLI, fleet specs) shares.
    """

    parts: list[str] = []
    current: list[str] = []
    depth = 0
    for character in text:
        if character == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if character == "[":
            depth += 1
        elif character == "]":
            depth = max(0, depth - 1)
        current.append(character)
    parts.append("".join(current))
    return tuple(part.strip() for part in parts if part.strip())


def _check_attention_mode(spec: RunSpec, native: str, target: str) -> None:
    if spec.attention is not None and spec.attention != native:
        raise ValueError(
            f"target {target!r} only computes its native {native!r} attention; "
            f"got attention={spec.attention!r}")


def _reject_unsupported(spec: RunSpec, target: str, *fields: str) -> None:
    """Fail loudly on RunSpec options this target cannot honor.

    Silently ignoring an option would return unmodified numbers with exit 0
    (and pollute the cache with duplicate entries for the same physical run).
    """

    for name in fields:
        if getattr(spec, name) is not None:
            raise ValueError(f"target {target!r} does not support {name!r} "
                             f"(got {getattr(spec, name)!r})")


def _batch_scaled(spec: RunSpec, result: ModelResult,
                  breakdown: dict[str, float], layers: tuple[LayerRecord, ...],
                  target: "Target",
                  roofline: tuple[RooflineRecord, ...] = ()) -> RunResult:
    """Normalise a cycle-level :class:`ModelResult` into a :class:`RunResult`."""

    batch = spec.batch_size
    return RunResult(
        model=result.model,
        target=target.name,
        attention_latency=result.attention_latency * batch,
        linear_latency=result.linear_latency * batch,
        attention_energy=result.attention_energy * batch,
        linear_energy=result.linear_energy * batch,
        end_to_end_latency=result.end_to_end_latency * batch,
        end_to_end_energy=result.end_to_end_energy * batch,
        energy_breakdown=tuple((key, value * batch) for key, value in breakdown.items()),
        layers=layers,
        config=getattr(target, "config_text", ""),
        roofline=roofline,
    )


def _layer_records(result: ModelResult, workload: ModelWorkload,
                   include_linear: bool) -> tuple[LayerRecord, ...]:
    """Attach repeat counts (from the workload specs) to the simulated layers.

    Every record is built in C, with ``tuple.__new__`` and all of its fields
    in order: a memsim design point builds hundreds of them.
    """

    kinds = [("attention", spec.repeats) for spec in workload.attention_layers]
    if include_linear:
        kinds += [("linear", spec.repeats) for spec in workload.linear_layers]
    new = tuple.__new__
    records = []
    for layer, (kind, repeats) in zip(result.layers, kinds):
        frequency = layer.frequency_hz
        steps = tuple([
            new(StepRecord, (step.name, step.chunk, step.cycles / frequency,
                             step.energy_joules))
            for step in layer.steps])
        records.append(new(LayerRecord, (
            layer.name, kind, repeats, layer.latency_seconds,
            layer.energy_joules, steps)))
    return tuple(records)


def _table5_breakdown(layers: tuple[LayerRecord, ...]) -> dict[str, float]:
    """Table V energy split of the attention module, from the step records.

    Mirrors ``ViTALiTyAccelerator.attention_energy_breakdown`` (same
    per-layer accumulation order, so the totals are bit-identical) without
    re-simulating the attention layers.
    """

    data_access = other_processors = systolic_array = 0.0
    for layer in layers:
        if layer.kind != "attention":
            continue
        layer_data = layer_other = layer_systolic = 0.0
        for step in layer.steps:
            if step.chunk in ("systolic", "sa_diag"):
                layer_systolic += step.energy_joules
            elif step.chunk == "memory":
                layer_data += step.energy_joules
            else:
                layer_other += step.energy_joules
        data_access += layer_data * layer.repeats
        other_processors += layer_other * layer.repeats
        systolic_array += layer_systolic * layer.repeats
    return {
        "data_access": data_access,
        "other_processors": other_processors,
        "systolic_array": systolic_array,
    }


class VitalityTarget:
    """The ViTALiTy accelerator (Section IV), with optional variant defaults.

    ``dataflow`` / ``pipelined`` set the variant's defaults; a
    :class:`RunSpec` may still override either per run.  ``design`` selects a
    non-reference design point (see :data:`~repro.hardware.VITALITY_SCHEMA`
    for the knobs).
    """

    knob_schema = VITALITY_SCHEMA

    def __init__(self, name: str = "vitality",
                 dataflow: Dataflow = Dataflow.DOWN_FORWARD,
                 pipelined: bool = True,
                 design: KnobConfig | None = None):
        self.name = name
        self.default_dataflow = dataflow
        self.default_pipelined = pipelined
        self.design = design
        self.config_text = self.knob_schema.render(design) if design is not None else ""
        self._config = build_vitality_config(design)
        # The tile-level memory simulator activates only when the design
        # point sets a bandwidth/tile knob (None otherwise -> analytic path,
        # bit-identical to the seed models).  Explicit tile sizes that
        # cannot fit the double-buffered buffers fail here, at construction.
        self._memsim = MemSimConfig.from_design(
            design, self._config.memory.sram_kb,
            self._config.sa_general.rows, self._config.sa_general.columns)

    def configured(self, name: str, design: KnobConfig) -> "VitalityTarget":
        """This variant at another design point (the ``name[...]`` factory)."""

        return VitalityTarget(name, dataflow=self.default_dataflow,
                              pipelined=self.default_pipelined, design=design)

    def _accelerator(self, spec: RunSpec) -> ViTALiTyAccelerator:
        dataflow = (Dataflow(spec.dataflow) if spec.dataflow is not None
                    else self.default_dataflow)
        pipelined = (spec.pipelined if spec.pipelined is not None
                     else self.default_pipelined)
        if self._memsim is not None:
            accelerator = MemSimViTALiTyAccelerator(
                self._config, self._memsim, dataflow=dataflow, pipelined=pipelined)
        else:
            accelerator = ViTALiTyAccelerator(self._config, dataflow=dataflow,
                                              pipelined=pipelined)
        if (spec.scale_to_peak is not None
                and spec.scale_to_peak > accelerator.peak_macs_per_second):
            accelerator = accelerator.scaled_to_peak(spec.scale_to_peak)
        return accelerator

    @property
    def peak_macs_per_second(self) -> float:
        pes = self._config.sa_general.lanes + self._config.sa_diag.lanes
        return pes * self._config.frequency_hz

    @property
    def area_mm2(self) -> float:
        """Silicon area of this design point (the DSE Pareto axis)."""

        return self._config.total_area_mm2

    def canonical_spec(self, spec: RunSpec) -> RunSpec:
        """Drop a ``scale_to_peak`` at or below the native peak (a no-op)."""

        if (spec.scale_to_peak is not None
                and spec.scale_to_peak <= self.peak_macs_per_second):
            spec = spec._replace(scale_to_peak=None)
        return spec

    def simulate(self, spec: RunSpec) -> RunResult:
        _check_attention_mode(spec, "taylor", self.name)
        accelerator = self._accelerator(spec)
        workload = spec.workload()
        result = accelerator.run_model(workload, include_linear=spec.include_linear)
        layers = _layer_records(result, workload, spec.include_linear)
        breakdown = _table5_breakdown(layers)
        # The memsim accelerator's records align with the simulated layers.
        roofline = tuple(accelerator.rooflines) if self._memsim is not None else ()
        return _batch_scaled(spec, result, breakdown, layers, self,
                             roofline=roofline)


class SangerTarget:
    """The Sanger sparse-attention accelerator baseline (MICRO 2021)."""

    knob_schema = SANGER_SCHEMA

    def __init__(self, name: str = "sanger",
                 design: KnobConfig | None = None):
        self.name = name
        self.design = design
        self.config_text = self.knob_schema.render(design) if design is not None else ""
        self._config = build_sanger_config(design)

    def configured(self, name: str, design: KnobConfig) -> "SangerTarget":
        return SangerTarget(name, design=design)

    @property
    def peak_macs_per_second(self) -> float:
        return self._config.re_pe_array.lanes * self._config.frequency_hz

    @property
    def area_mm2(self) -> float:
        return self._config.total_area_mm2

    def simulate(self, spec: RunSpec) -> RunResult:
        _check_attention_mode(spec, "vanilla", self.name)
        _reject_unsupported(spec, self.name, "dataflow", "pipelined", "scale_to_peak")
        accelerator = SangerAccelerator(self._config)
        workload = spec.workload()
        result = accelerator.run_model(workload, include_linear=spec.include_linear)
        breakdown = {"attention": result.attention_energy, "linear": result.linear_energy}
        layers = _layer_records(result, workload, spec.include_linear)
        return _batch_scaled(spec, result, breakdown, layers, self)


class SALOTarget:
    """The SALO window-attention accelerator under the ViTALiTy budget.

    SALO models only the attention module, so ``linear_latency`` is always
    zero regardless of ``include_linear``.
    """

    knob_schema = SALO_SCHEMA

    def __init__(self, name: str = "salo",
                 design: KnobConfig | None = None):
        self.name = name
        self.design = design
        self.config_text = self.knob_schema.render(design) if design is not None else ""
        self._budget, self._pattern = build_salo_configs(design)

    def configured(self, name: str, design: KnobConfig) -> "SALOTarget":
        return SALOTarget(name, design=design)

    @property
    def peak_macs_per_second(self) -> float:
        return self._budget.sa_general.lanes * self._budget.frequency_hz

    @property
    def area_mm2(self) -> float:
        return self._budget.total_area_mm2

    def canonical_spec(self, spec: RunSpec) -> RunSpec:
        """``include_linear`` is a no-op here (SALO models attention only)."""

        if not spec.include_linear:
            spec = spec._replace(include_linear=True)
        return spec

    def simulate(self, spec: RunSpec) -> RunResult:
        _check_attention_mode(spec, "vanilla", self.name)
        _reject_unsupported(spec, self.name, "dataflow", "pipelined", "scale_to_peak")
        accelerator = SALOAccelerator(self._budget, self._pattern)
        workload = spec.workload()
        result = accelerator.run_model(workload)
        breakdown = {"attention": result.attention_energy, "linear": 0.0}
        layers = _layer_records(result, workload, include_linear=False)
        return _batch_scaled(spec, result, breakdown, layers, self)


class PlatformTarget:
    """An analytic general-purpose platform (CPU / GPU / edge GPU / Pixel 3).

    Platforms evaluate either attention formulation; the default is the
    ``vanilla`` softmax attention (the paper's baseline configuration).
    """

    knob_schema = PLATFORM_SCHEMA

    def __init__(self, name: str, base: str | None = None,
                 design: KnobConfig | None = None):
        self.name = name
        self.design = design
        self.config_text = self.knob_schema.render(design) if design is not None else ""
        self.platform = build_platform(get_platform(base or name), design)

    def configured(self, name: str, design: KnobConfig) -> "PlatformTarget":
        return PlatformTarget(name, base=self.platform.name, design=design)

    @property
    def peak_macs_per_second(self) -> float:
        return self.platform.peak_macs_per_second

    def canonical_spec(self, spec: RunSpec) -> RunSpec:
        """An unset attention mode means the platform default, ``vanilla``."""

        if spec.attention is None:
            spec = spec._replace(attention="vanilla")
        return spec

    def simulate(self, spec: RunSpec) -> RunResult:
        _reject_unsupported(spec, self.name, "dataflow", "pipelined", "scale_to_peak")
        taylor = (spec.attention or "vanilla") == "taylor"
        workload = spec.workload()
        attention_latency = self.platform.attention_latency(workload, taylor=taylor)
        linear_latency = self.platform.linear_latency(workload) if spec.include_linear else 0.0
        if spec.include_linear:
            end_to_end_latency = self.platform.end_to_end_latency(workload, taylor=taylor)
            end_to_end_energy = self.platform.end_to_end_energy(workload, taylor=taylor)
        else:
            end_to_end_latency = attention_latency
            end_to_end_energy = self.platform.attention_energy(workload, taylor=taylor)
        power = self.platform.average_power_watts
        profile = (self.platform.taylor_attention_profile(workload) if taylor
                   else self.platform.vanilla_attention_profile(workload))
        steps = tuple(
            StepRecord(name, self.name, latency, latency * power)
            for name, latency in profile.items()
        )
        layers = (LayerRecord(
            name=f"{'taylor' if taylor else 'vanilla'}_attention_profile",
            kind="profile", repeats=1, latency_seconds=attention_latency,
            energy_joules=attention_latency * power, steps=steps),)
        batch = spec.batch_size
        return RunResult(
            model=workload.name,
            target=self.name,
            attention_latency=attention_latency * batch,
            linear_latency=linear_latency * batch,
            attention_energy=attention_latency * power * batch,
            linear_energy=linear_latency * power * batch,
            end_to_end_latency=end_to_end_latency * batch,
            end_to_end_energy=end_to_end_energy * batch,
            energy_breakdown=(("attention", attention_latency * power * batch),
                              ("linear", linear_latency * power * batch)),
            layers=layers,
            config=self.config_text,
        )


# ---------------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------------

_TARGETS: dict[str, Target] = {}
#: Design-point instances materialised from ``name[knob=...]`` lookups,
#: keyed by their canonical configured name.
_CONFIGURED: dict[str, Target] = {}


def register_target(target: Target, replace: bool = False) -> Target:
    """Register a target under its ``name`` (``replace=True`` to override).

    Replacing a target evicts its memoised results from the default cache —
    and drops every configured instance derived from it — so the new backend
    cannot be shadowed by its predecessor's numbers.  (Privately held
    :class:`~repro.engine.ResultCache` instances must be invalidated by
    their owners.)  Every registration also clears the memo of
    :func:`~repro.engine.resolve`, so no later resolution or
    :func:`~repro.engine.simulate` reaches a replaced backend or one of its
    configured instances.
    """

    from repro.engine.cache import DEFAULT_CACHE, resolve

    if target.name in _TARGETS:
        if not replace:
            raise ValueError(f"target {target.name!r} is already registered")
        DEFAULT_CACHE.invalidate_target(target.name)
        derived = [name for name in _CONFIGURED
                   if name.partition("[")[0] == target.name]
        for name in derived:
            del _CONFIGURED[name]
            DEFAULT_CACHE.invalidate_target(name)
    _TARGETS[target.name] = target
    resolve.cache_clear()
    return target


def _configured_target(name: str) -> Target:
    """Resolve ``base[knob=value,...]`` to a cached design-point instance."""

    base_name, _, bracketed = name.partition("[")
    knob_text = bracketed[:-1]                      # drop the trailing "]"
    try:
        base = _TARGETS[base_name]
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {base_name!r} in configured name {name!r}; "
            f"available: {', '.join(list_targets())}") from None
    schema = getattr(base, "knob_schema", None)
    factory = getattr(base, "configured", None)
    if schema is None or factory is None:
        raise UnknownTargetError(
            f"target {base_name!r} does not accept [knob=value,...] configuration")
    design = schema.parse(knob_text)                # raises KnobError on bad knobs
    if design.is_reference:
        return base                                 # every knob at its Table III value
    canonical = f"{base_name}[{schema.render(design)}]"
    target = _CONFIGURED.get(canonical)
    if target is None:
        target = factory(canonical, design)
        _CONFIGURED[canonical] = target
    return target


def get_target(name: str) -> Target:
    """Look up a target by registered or configured (``name[knob=...]``) name."""

    try:
        return _TARGETS[name]
    except KeyError:
        pass
    if "[" in name and name.endswith("]"):
        return _configured_target(name)
    raise UnknownTargetError(
        f"unknown target {name!r}; available: {', '.join(list_targets())} "
        f"(design points configure as 'name[knob=value,...]', e.g. "
        f"'vitality[pe=32x32,freq=1ghz]')")


def list_targets() -> list[str]:
    """Names of every registered target, in registration order."""

    return list(_TARGETS)


def target_area_mm2(name: str) -> float | None:
    """Silicon area of one target's design point, ``None`` where unmodelled.

    Accelerator targets derive their area from the configured design point;
    the analytic platform models (CPU/GPU/edge) have no silicon-area model —
    consumers (the DSE Pareto frontier, the capacity planner's cost axis)
    drop the axis rather than fake it.
    """

    return getattr(get_target(name), "area_mm2", None)


def target_sram_kb(name: str) -> float | None:
    """On-chip SRAM capacity (KB) of one target's design point.

    Accelerator targets read it from their configured memory model (the
    ``sram_kb`` knob); the analytic platform models (CPU/GPU/edge) have no
    SRAM model and return ``None`` — consumers (the serving layer's KV-cache
    sizing) substitute their own platform default rather than fake one here.
    """

    target = get_target(name)
    for attr in ("_config", "_budget"):
        memory = getattr(getattr(target, attr, None), "memory", None)
        if memory is not None:
            return memory.sram_kb
    return None


register_target(VitalityTarget("vitality"))
register_target(VitalityTarget("vitality-gstationary", dataflow=Dataflow.G_STATIONARY))
register_target(VitalityTarget("vitality-unpipelined", pipelined=False))
register_target(SangerTarget())
register_target(SALOTarget())
register_target(PlatformTarget("cpu"))
register_target(PlatformTarget("edge_gpu"))
register_target(PlatformTarget("gpu"))
register_target(PlatformTarget("pixel3"))

#: The registry exactly as populated at import time.  A fresh worker process
#: rebuilds this state and nothing else, so work may only be shipped to
#: workers for targets whose registration a re-import reproduces.
_IMPORT_TIME_TARGETS = dict(_TARGETS)


def is_import_time_target(name: str) -> bool:
    """True when a worker process would resolve ``name`` to the same backend.

    Targets registered after import (or replacing a built-in) exist only in
    this process; simulating their specs in a worker would crash — or worse,
    silently use the import-time implementation.  Configured names are safe
    exactly when their base target is.
    """

    base = name.partition("[")[0]
    return _TARGETS.get(base) is _IMPORT_TIME_TARGETS.get(base)
