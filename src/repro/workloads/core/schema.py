"""The workload IR: families of parametric geometries behind one grammar.

A :class:`WorkloadFamily` is the workload-side mirror of a hardware target
family (:mod:`repro.hardware.core.families`): a :class:`~repro.knobs.KnobSchema`
declaring the family's knobs (``tokens``, ``kv_tokens``, ``layers`` ...), a
builder that materialises a parsed :class:`~repro.knobs.KnobConfig` into a
concrete :class:`~repro.workloads.ModelWorkload`, an optional semantic
normaliser (dropping ``kv_tokens`` equal to ``tokens``, lowering
``phase=decode`` onto single-query geometry), and the family's *reference*
workload — the exact frozen object every all-knobs-at-default spelling
resolves to, which is what keeps seed-name results bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.knobs import KnobConfig, KnobError, KnobSchema
from repro.workloads.specs import ModelWorkload


@dataclass(frozen=True)
class WorkloadFamily:
    """One parametric workload family: knob vocabulary + geometry builder."""

    schema: KnobSchema
    #: ``(canonical_name, config) -> ModelWorkload``; called only for
    #: non-reference configs (reference spellings short-circuit to
    #: :attr:`reference`).
    build: Callable[[str, KnobConfig], ModelWorkload]
    #: The geometry at every knob's reference value — for the paper's seven
    #: models, the seed ``specs.py`` object itself.
    reference: ModelWorkload
    doc: str
    #: Semantic canonicalisation/validation applied after knob parsing.
    #: Receives the parsed config plus the set of knob names the spelling
    #: made explicit (reference-valued knobs are dropped from the config at
    #: parse time, so the set is how the normaliser tells an explicit
    #: default apart from an absent knob).
    normalise: Callable[[KnobConfig, frozenset], KnobConfig] | None = None

    @property
    def family(self) -> str:
        return self.schema.family

    def resolve(self, knob_text: str) -> KnobConfig:
        """Parse a bracket body (``"tokens=1024,phase=decode"``) canonically."""

        config, explicit = self.schema.parse_explicit(knob_text)
        return (self.normalise(config, explicit)
                if self.normalise is not None else config)

    def canonical_name(self, config: KnobConfig) -> str:
        """The one spelling of this configuration: bare family name for the
        reference, sorted/canonical-valued knobs otherwise."""

        if config.is_reference:
            return self.family
        return f"{self.family}[{self.schema.render(config)}]"

    def workload(self, config: KnobConfig) -> ModelWorkload:
        if config.is_reference:
            return self.reference
        return self.build(self.canonical_name(config), config)


def scaled_to_tokens(workload: ModelWorkload, tokens: int,
                     name: str | None = None) -> ModelWorkload:
    """Rescale every layer's token dimensions so the dominant attention layer
    processes ``tokens`` query tokens.

    Multi-stage models (MobileViT, LeViT) keep their relative stage geometry;
    each layer's token counts scale by the same ratio, *floored* consistently
    (integer ``count * tokens // base``, clamped at 1) so one token count maps
    to one geometry regardless of float rounding.  ``tokens`` equal to the
    dominant count returns the workload unchanged — the reference spelling is
    the reference object.
    """

    if tokens < 1:
        raise KnobError(f"tokens must be >= 1, got {tokens}")
    base = max(spec.tokens for spec in workload.attention_layers)
    if tokens == base:
        return workload

    def _scaled(count: int) -> int:
        return max(1, count * tokens // base)

    attention = tuple(
        replace(spec, tokens=_scaled(spec.tokens), kv_tokens=_scaled(spec.kv_tokens))
        for spec in workload.attention_layers
    )
    linear = tuple(
        replace(spec, tokens=_scaled(spec.tokens)) for spec in workload.linear_layers
    )
    return replace(workload, name=name or f"{workload.name}[tokens={tokens}]",
                   attention_layers=attention, linear_layers=linear,
                   baseline_accuracy=None)
