"""Configured-workload resolution: names in, canonical cached geometries out.

The workload mirror of :func:`repro.engine.get_target`: a configured name —
``deit-tiny[tokens=1024]``, ``decoder[tokens=1,kv_tokens=2048,phase=decode]``
— parses against its family's knob schema, canonicalises (knob order and
values normalised, reference values dropped, family-level identities like
``kv_tokens == tokens`` collapsed), and materialises one cached
:class:`~repro.workloads.ModelWorkload` per physical geometry.  Every
spelling of one geometry therefore resolves to one object, one canonical
name, and one set of result-cache entries; reference spellings resolve to
the seed objects themselves.
"""

from __future__ import annotations

from repro.knobs import KnobConfig
from repro.workloads.core.families import FAMILIES, WorkloadFamily
from repro.workloads.specs import ModelWorkload


class UnknownWorkloadError(KeyError):
    """Raised when a workload name names no known family."""


#: Workloads materialised from configured-name lookups, keyed by canonical name.
_CONFIGURED: dict[str, ModelWorkload] = {}


def list_families() -> list[str]:
    """Names of every workload family, seed models first."""

    return list(FAMILIES)


def get_family(name: str) -> WorkloadFamily:
    """Look up a workload family by its bare name (e.g. ``"decoder"``)."""

    try:
        return FAMILIES[name]
    except KeyError:
        raise _unknown(name) from None


def _unknown(name: str) -> UnknownWorkloadError:
    knob_names = sorted({knob for family in FAMILIES.values()
                         for knob in family.schema.knobs})
    return UnknownWorkloadError(
        f"unknown workload {name!r}; families: {', '.join(FAMILIES)} "
        f"(configure as 'family[knob=value,...]', e.g. "
        f"'deit-tiny[tokens=1024]' or "
        f"'decoder[tokens=1,kv_tokens=2048,phase=decode]'; knobs: "
        f"{', '.join(knob_names)} — see `repro workloads`)")


def _resolve(name: str) -> tuple[WorkloadFamily, KnobConfig]:
    base, bracket, knob_text = name.partition("[")
    family = FAMILIES.get(base)
    if family is None or (bracket and not name.endswith("]")):
        raise _unknown(name)
    if bracket:
        config = family.resolve(knob_text[:-1])     # drop the trailing "]"
    else:
        config = KnobConfig(base)
    return family, config


def configured_name(model: str, **knobs) -> str:
    """Merge knobs into a workload name at the text level, unvalidated: a
    knob already in ``model`` is overridden and the knobs come out sorted."""

    base, _, bracket = model.partition("[")
    merged: dict[str, str] = {}
    if bracket:
        for part in bracket[:-1].split(","):
            key, _, value = part.partition("=")
            merged[key.strip()] = value.strip()
    for key, value in knobs.items():
        merged[key] = str(value)
    text = ",".join(f"{key}={value}" for key, value in sorted(merged.items()))
    return f"{base}[{text}]"


def canonical_workload_name(name: str) -> str:
    """The canonical spelling of a (possibly configured) workload name:
    ``"deit-tiny[tokens=197]"`` and ``"deit-tiny"`` both give
    ``"deit-tiny"``."""

    family, config = _resolve(name)
    return family.canonical_name(config)


def get_workload(name: str) -> ModelWorkload:
    """Resolve a registered or configured workload name to its geometry.

    One :class:`ModelWorkload` is materialised per physical geometry:
    reference configurations short-circuit to the family's reference object
    (the seed instances for the paper's seven models), non-reference ones
    are built once and memoised under their canonical name.
    """

    if name in _CONFIGURED:               # a canonical name, built before
        return _CONFIGURED[name]
    family, config = _resolve(name)
    if config.is_reference:
        return family.reference
    canonical = family.canonical_name(config)
    workload = _CONFIGURED.get(canonical)
    if workload is None:
        workload = family.workload(config)
        _CONFIGURED[canonical] = workload
    return workload
