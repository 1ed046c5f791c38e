"""Per-family knob schemas and design-point builders.

Each target family (``vitality``, ``sanger``, ``salo``, ``platform``)
publishes the knobs its design space exposes and a builder that materialises
a parsed :class:`~repro.knobs.KnobConfig` into the family's
concrete configuration object, derived from the Table III reference point via
the scaling rules in :mod:`repro.hardware.core.component`:

* ``pe`` re-dimensions the main PE array; the auxiliary lane arrays
  (SA-Diag, accumulator/adder/divider, Sanger's pre-processor and
  pack-and-split) keep their row-proportional geometry;
* ``freq`` scales every component's power linearly (per-cycle energy is
  frequency-invariant at a fixed node) and the clock all cycle counts are
  converted through;
* ``sram_kb`` resizes the on-chip buffers: per-access energy follows the
  square-root capacity rule, buffer area/power scale linearly;
* ``sram_pj`` / ``dram_pj`` pin per-access energies directly (the Table V
  data-access knob);
* ``util`` / ``density`` / ``window`` / ``global`` set the model parameters
  that are utilisation- or workload-shaped rather than geometric;
* ``dram_gbps`` / ``tile_m`` / ``tile_k`` / ``tile_n`` activate the
  tile-level memory simulator (:mod:`repro.hardware.memsim`) on the
  ``vitality`` family — ``dram_gbps=inf`` is the reference (ideal memory,
  the analytic model) and is dropped by canonicalisation;
* platforms expose ``compute`` (effective-throughput scale), ``power``
  (watts) and ``launch_us`` (per-step dispatch overhead).

Reference-valued configs short-circuit to the reference objects, keeping the
default design points bit-identical to the seed models.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.hardware.config import (
    SangerAcceleratorConfig,
    ViTALiTyAcceleratorConfig,
)
from repro.hardware.core.component import ComponentConfig
from repro.knobs import (
    Knob,
    KnobConfig,
    KnobError,
    KnobSchema,
    parse_fraction,
    parse_frequency,
    parse_geometry,
    parse_non_negative_int,
    parse_number,
    parse_positive_float,
    parse_positive_int,
    render_frequency,
    render_geometry,
    render_number,
)
from repro.hardware.platforms import Platform
from repro.hardware.salo import SALOConfig

_VITALITY_REFERENCE = ViTALiTyAcceleratorConfig()
_SANGER_REFERENCE = SangerAcceleratorConfig()
_SALO_REFERENCE = SALOConfig()


def _geometry_knob(doc: str, default: tuple[int, int]) -> Knob:
    return Knob("pe", parse_geometry, render_geometry, doc, default=default)


def _frequency_knob(default: float) -> Knob:
    return Knob("freq", parse_frequency, render_frequency,
                "clock frequency, e.g. 500mhz or 1ghz", default=default)


def parse_dram_gbps(text: str) -> float:
    """Positive GB/s, or ``inf`` for the ideal (analytic) memory system."""

    value = parse_number(text)
    if not value > 0:                     # nan fails it too
        raise KnobError(f"expected a positive number of GB/s or 'inf', "
                        f"got {text!r}")
    return value


def _memsim_knobs() -> list[Knob]:
    """The tile-level memory-simulator knobs (see ``hardware/memsim``).

    Any of these present on a design point activates the memsim path;
    ``dram_gbps`` at its ``inf`` reference (ideal bandwidth — the analytic
    model is exact) is dropped by canonicalisation like every other
    reference value, so ``vitality[dram_gbps=inf]`` is the base target.
    The tile knobs have no reference value: explicitly pinning a tile size
    always selects the memsim path.
    """

    return [
        Knob("dram_gbps", parse_dram_gbps, render_number,
             "DRAM bandwidth in GB/s fed to the tile-level memory simulator "
             "('inf' = ideal, the analytic reference)", default=math.inf),
        Knob("tile_m", parse_positive_int, render_number,
             "memsim tile rows streamed per pass (default: largest fitting)"),
        Knob("tile_k", parse_positive_int, render_number,
             "memsim stationary-tile depth (default: the PE-array rows)"),
        Knob("tile_n", parse_positive_int, render_number,
             "memsim stationary-tile width (default: the PE-array columns)"),
    ]


def _memory_knobs(reference) -> list[Knob]:
    return [
        Knob("sram_kb", parse_positive_int, render_number,
             "on-chip buffer capacity in KB", default=reference.memory.sram_kb),
        Knob("sram_pj", parse_positive_float, render_number,
             "SRAM energy per 16-bit access in pJ",
             default=reference.memory.sram_access * 1e12),
        Knob("dram_pj", parse_positive_float, render_number,
             "DRAM energy per 16-bit access in pJ",
             default=reference.memory.dram_access * 1e12),
    ]


VITALITY_SCHEMA = KnobSchema("vitality", {knob.name: knob for knob in [
    _geometry_knob("SA-General geometry ROWSxCOLS, e.g. 32x32",
                   (_VITALITY_REFERENCE.sa_general.rows,
                    _VITALITY_REFERENCE.sa_general.columns)),
    _frequency_knob(_VITALITY_REFERENCE.frequency_hz),
    *_memory_knobs(_VITALITY_REFERENCE),
    *_memsim_knobs(),
    Knob("util", parse_fraction, render_number,
         "systolic-array utilisation in (0, 1]",
         default=_VITALITY_REFERENCE.systolic_utilization),
]})

SANGER_SCHEMA = KnobSchema("sanger", {knob.name: knob for knob in [
    _geometry_knob("RePE array geometry ROWSxCOLS, e.g. 32x8",
                   (_SANGER_REFERENCE.re_pe_array.rows,
                    _SANGER_REFERENCE.re_pe_array.columns)),
    _frequency_knob(_SANGER_REFERENCE.frequency_hz),
    *_memory_knobs(_SANGER_REFERENCE),
    Knob("util", parse_fraction, render_number,
         "RePE utilisation on the structured sparse workload in (0, 1]",
         default=_SANGER_REFERENCE.pe_utilization),
    Knob("density", parse_fraction, render_number,
         "attention density kept by the predicted mask in (0, 1]",
         default=_SANGER_REFERENCE.default_density),
]})

SALO_SCHEMA = KnobSchema("salo", {knob.name: knob for knob in [
    _geometry_knob("budget SA geometry ROWSxCOLS, e.g. 32x32",
                   (_VITALITY_REFERENCE.sa_general.rows,
                    _VITALITY_REFERENCE.sa_general.columns)),
    _frequency_knob(_VITALITY_REFERENCE.frequency_hz),
    Knob("window", parse_positive_int, render_number,
         "sliding-window width in keys", default=_SALO_REFERENCE.window),
    Knob("global", parse_non_negative_int, render_number,
         "number of global tokens", default=_SALO_REFERENCE.global_tokens),
    Knob("util", parse_fraction, render_number,
         "spatial PE utilisation on short sequences in (0, 1]",
         default=_SALO_REFERENCE.short_sequence_utilization),
]})

PLATFORM_SCHEMA = KnobSchema("platform", {knob.name: knob for knob in [
    Knob("compute", parse_positive_float, render_number,
         "scale on every effective-throughput rate and the peak", default=1.0),
    Knob("power", parse_positive_float, render_number,
         "workload power in watts"),
    Knob("launch_us", parse_positive_float, render_number,
         "kernel-launch overhead per step per layer in microseconds"),
]})

#: Every family schema, keyed by family name (the registry's lookup table).
FAMILY_SCHEMAS: dict[str, KnobSchema] = {
    schema.family: schema
    for schema in (VITALITY_SCHEMA, SANGER_SCHEMA, SALO_SCHEMA, PLATFORM_SCHEMA)
}


def _check_family(design: KnobConfig | None, family: str) -> None:
    if design is not None and design.family != family:
        raise KnobError(f"design point family {design.family!r} cannot "
                        f"configure a {family!r} target")


def _memory_scaled(reference, design: KnobConfig):
    """(memory config, sram capacity ratio) for the shared memory knobs."""

    sram_kb = design.get("sram_kb", reference.memory.sram_kb)
    sram_pj = design.get("sram_pj")
    dram_pj = design.get("dram_pj")
    memory = reference.memory.scaled(
        sram_kb=sram_kb,
        sram_access=None if sram_pj is None else sram_pj * 1e-12,
        dram_access=None if dram_pj is None else dram_pj * 1e-12,
    )
    return memory, sram_kb / reference.memory.sram_kb


def build_vitality_config(design: KnobConfig | None = None) -> ViTALiTyAcceleratorConfig:
    """Materialise a ``vitality``-family design point (Table III by default)."""

    _check_family(design, "vitality")
    base = _VITALITY_REFERENCE
    if design is None or design.is_reference:
        return base
    rows, columns = design.get("pe", (base.sa_general.rows, base.sa_general.columns))
    frequency = design.get("freq", base.frequency_hz)
    frequency_ratio = frequency / base.frequency_hz
    row_ratio = rows / base.sa_general.rows
    memory, sram_ratio = _memory_scaled(base, design)

    def lane_array(component: ComponentConfig) -> ComponentConfig:
        return component.scaled(rows=max(1, round(component.rows * row_ratio)),
                                frequency_ratio=frequency_ratio)

    return replace(
        base,
        frequency_hz=frequency,
        sa_general=base.sa_general.scaled(rows=rows, columns=columns,
                                          frequency_ratio=frequency_ratio),
        sa_diag=lane_array(base.sa_diag),
        accumulator_array=lane_array(base.accumulator_array),
        adder_array=lane_array(base.adder_array),
        divider_array=lane_array(base.divider_array),
        memory_area_mm2=base.memory_area_mm2 * sram_ratio,
        memory_power_mw=base.memory_power_mw * sram_ratio * frequency_ratio,
        memory=memory,
        systolic_utilization=design.get("util", base.systolic_utilization),
    )


def build_sanger_config(design: KnobConfig | None = None) -> SangerAcceleratorConfig:
    """Materialise a ``sanger``-family design point (Table III by default)."""

    _check_family(design, "sanger")
    base = _SANGER_REFERENCE
    if design is None or design.is_reference:
        return base
    rows, columns = design.get("pe", (base.re_pe_array.rows, base.re_pe_array.columns))
    frequency = design.get("freq", base.frequency_hz)
    frequency_ratio = frequency / base.frequency_hz
    row_ratio = rows / base.re_pe_array.rows
    memory, sram_ratio = _memory_scaled(base, design)

    def aux_array(component: ComponentConfig) -> ComponentConfig:
        return component.scaled(rows=max(1, round(component.rows * row_ratio)),
                                frequency_ratio=frequency_ratio)

    return replace(
        base,
        frequency_hz=frequency,
        re_pe_array=base.re_pe_array.scaled(rows=rows, columns=columns,
                                            frequency_ratio=frequency_ratio),
        pre_processor=aux_array(base.pre_processor),
        pack_and_split=aux_array(base.pack_and_split),
        divider_array=aux_array(base.divider_array),
        memory_area_mm2=base.memory_area_mm2 * sram_ratio,
        memory_power_mw=base.memory_power_mw * sram_ratio * frequency_ratio,
        memory=memory,
        pe_utilization=design.get("util", base.pe_utilization),
        default_density=design.get("density", base.default_density),
    )


def build_salo_configs(design: KnobConfig | None = None,
                       ) -> tuple[ViTALiTyAcceleratorConfig, SALOConfig]:
    """Materialise a ``salo``-family design point: (hardware budget, pattern).

    The geometric knobs (``pe``, ``freq``) shape the ViTALiTy hardware budget
    SALO is evaluated under; ``window`` / ``global`` / ``util`` shape SALO's
    own attention pattern and spatial utilisation.
    """

    _check_family(design, "salo")
    if design is None or design.is_reference:
        return _VITALITY_REFERENCE, _SALO_REFERENCE
    budget_design = KnobConfig("vitality", tuple(
        (name, value) for name, value in design.knobs if name in ("pe", "freq")))
    budget = build_vitality_config(budget_design)
    pattern = replace(
        _SALO_REFERENCE,
        window=design.get("window", _SALO_REFERENCE.window),
        global_tokens=design.get("global", _SALO_REFERENCE.global_tokens),
        short_sequence_utilization=design.get(
            "util", _SALO_REFERENCE.short_sequence_utilization),
    )
    return budget, pattern


def build_platform(base: Platform, design: KnobConfig | None = None) -> Platform:
    """Materialise a ``platform``-family design point from its base device."""

    _check_family(design, "platform")
    if design is None or design.is_reference:
        return base
    launch_us = design.get("launch_us")
    return base.scaled(
        compute=design.get("compute", 1.0),
        power_watts=design.get("power"),
        launch_overhead_seconds=None if launch_us is None else launch_us * 1e-6,
    )
