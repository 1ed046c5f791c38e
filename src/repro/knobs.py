"""The configured-name grammar: knob strings parsed into hashable configs.

Both sides of a simulation are spelled the same way — a base name plus a
bracketed, comma-separated list of ``knob=value`` pairs::

    vitality[pe=32x32,freq=1ghz]          # a hardware design point
    decoder[tokens=1,kv_tokens=2048,phase=decode]   # a workload geometry

Each family (a hardware target family or a workload family) publishes a
:class:`KnobSchema` declaring which knobs exist, how their values parse and
render, and what the family's reference value is.  Parsing produces a
:class:`KnobConfig` — a frozen, hashable record of ``(family, sorted knob
items)`` used as the identity of a configured point: knob order is
normalised, values are canonicalised, and knobs set to their reference value
are dropped, so every spelling of the same physical configuration resolves
to one config (and one cache entry).

Errors raise :class:`KnobError` (a ``ValueError``) with messages that name
the offending knob, the expected format and the valid alternatives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Frequency suffixes accepted by ``freq=`` values, largest unit first so the
#: ``hz`` suffix of ``mhz``/``ghz``/``khz`` cannot shadow them.
_FREQUENCY_UNITS = (("ghz", 1e9), ("mhz", 1e6), ("khz", 1e3), ("hz", 1.0))


class KnobError(ValueError):
    """A malformed or unknown configured-name knob."""


# ---------------------------------------------------------------------------------
# Value parsers/renderers.  Renderers must round-trip: parse(render(v)) == v.
# ---------------------------------------------------------------------------------

def parse_geometry(text: str) -> tuple[int, int]:
    """``"32x32"`` -> ``(32, 32)``."""

    rows, separator, columns = text.lower().partition("x")
    if not separator or not rows.isdigit() or not columns.isdigit():
        raise KnobError(f"expected ROWSxCOLS (e.g. '32x32'), got {text!r}")
    geometry = (int(rows), int(columns))
    if min(geometry) < 1:
        raise KnobError(f"array dimensions must be >= 1, got {text!r}")
    return geometry


def render_geometry(value: tuple[int, int]) -> str:
    return f"{value[0]}x{value[1]}"


def parse_frequency(text: str) -> float:
    """``"500mhz"`` / ``"1ghz"`` / ``"2.5e8"`` -> hertz."""

    lowered = text.lower().strip()
    number, multiplier = lowered, 1.0
    for unit, unit_multiplier in _FREQUENCY_UNITS:
        if lowered.endswith(unit):
            number, multiplier = lowered[:-len(unit)], unit_multiplier
            break
    try:
        value = float(number) * multiplier
    except ValueError:
        raise KnobError(f"expected a frequency such as '500mhz', '1ghz' or a "
                        f"number in Hz, got {text!r}") from None
    if not 0 < value < math.inf:          # nan fails both comparisons
        raise KnobError(f"frequency must be finite and positive, got {text!r}")
    return value


def render_frequency(hertz: float) -> str:
    """Hertz -> the shortest exact spelling (``1ghz``, ``433mhz``, raw Hz)."""

    megahertz = hertz / 1e6
    if megahertz == int(megahertz):
        gigahertz = hertz / 1e9
        if gigahertz == int(gigahertz):
            return f"{int(gigahertz)}ghz"
        return f"{int(megahertz)}mhz"
    return repr(hertz)


def is_count(value) -> bool:
    """True for an integer >= 1 (a bool is not a count)."""

    # ``int`` first: an exact-type match skips the slower abstract-class
    # check.
    return (isinstance(value, (int, numbers.Integral))
            and not isinstance(value, bool) and value >= 1)


def is_number(value) -> bool:
    """True for a real number (a bool is not a number)."""

    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parse_positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise KnobError(f"expected a positive integer, got {text!r}")
    return int(text)


def parse_non_negative_int(text: str) -> int:
    if not text.isdigit():
        raise KnobError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def parse_number(text: str) -> float:
    """Any float spelling, nan and the infinities included."""

    try:
        return float(text)
    except ValueError:
        raise KnobError(f"expected a number, got {text!r}") from None


def parse_positive_float(text: str) -> float:
    value = parse_number(text)
    if not 0 < value < math.inf:          # nan fails both comparisons
        raise KnobError(f"expected a finite positive number, got {text!r}")
    return value


def parse_fraction(text: str) -> float:
    value = parse_positive_float(text)
    if value > 1.0:
        raise KnobError(f"expected a fraction in (0, 1], got {text!r}")
    return value


def parse_bool(text: str) -> bool:
    """``"true"`` / ``"false"`` (or ``"1"`` / ``"0"``) -> bool."""

    lowered = text.lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise KnobError(f"expected 'true' or 'false', got {text!r}")


def render_bool(value: bool) -> str:
    return "true" if value else "false"


def choice_parser(*choices: str) -> Callable[[str], str]:
    """A parser accepting exactly the given spellings (case-normalised)."""

    def parse(text: str) -> str:
        lowered = text.lower()
        if lowered not in choices:
            raise KnobError(f"expected one of {', '.join(choices)}, got {text!r}")
        return lowered

    return parse


def render_number(value: object) -> str:
    """Exact, re-parseable rendering for int/float knob values."""

    if isinstance(value, int):
        return str(value)
    return repr(value)


@dataclass(frozen=True)
class Knob:
    """One named dimension of a family's configuration space."""

    name: str
    parse: Callable[[str], object]
    render: Callable[[object], str]
    doc: str
    #: Reference value; parsing drops knobs set to it, so the
    #: explicit-default spelling resolves to the reference configuration.
    #: ``None`` means "keep the base family's value" (no drop possible).
    default: object = None


@dataclass(frozen=True)
class KnobConfig:
    """A configured point: a family plus its non-default knob settings.

    ``knobs`` is a name-sorted tuple of ``(name, value)`` pairs, which makes
    the config hashable, order-insensitive and directly usable as a cache
    key.  The empty tuple is the family's reference configuration.
    """

    family: str
    knobs: tuple[tuple[str, object], ...] = ()

    @property
    def is_reference(self) -> bool:
        """True when every knob sits at the family's reference value."""

        return not self.knobs

    def get(self, name: str, default: object = None) -> object:
        for knob_name, value in self.knobs:
            if knob_name == name:
                return value
        return default

    def __contains__(self, name: str) -> bool:
        return any(knob_name == name for knob_name, _ in self.knobs)

    def with_knob(self, name: str, value: object) -> "KnobConfig":
        """A copy with ``name`` set to ``value`` (replacing any prior setting)."""

        items = dict(self.knobs)
        items[name] = value
        return KnobConfig(self.family, tuple(sorted(items.items())))

    def without_knob(self, name: str) -> "KnobConfig":
        """A copy with ``name`` unset (back at the family's reference value)."""

        return KnobConfig(self.family, tuple(
            item for item in self.knobs if item[0] != name))


@dataclass(frozen=True)
class KnobSchema:
    """The knob vocabulary of one family."""

    family: str
    knobs: Mapping[str, Knob] = field(default_factory=dict)

    def parse(self, text: str) -> KnobConfig:
        """Parse ``"pe=32x32,freq=1ghz"`` (brackets already stripped)."""

        return self.parse_explicit(text)[0]

    def parse_explicit(self, text: str) -> tuple[KnobConfig, frozenset[str]]:
        """Like :meth:`parse`, also returning which knobs were spelled out.

        Reference-valued knobs are dropped from the config (they identify
        the base configuration), so the explicit-name set is the only way a
        semantic normaliser can tell ``family[knob=<default>]`` apart from
        the knob being absent — e.g. an explicit ``tokens`` at its default
        must not be re-defaulted by the ``phase=decode`` lowering.
        """

        items: dict[str, object] = {}
        seen: set[str] = set()
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, separator, raw_value = part.partition("=")
            name, raw_value = name.strip(), raw_value.strip()
            if not separator or not name or not raw_value:
                raise KnobError(
                    f"malformed knob {part!r} for {self.family!r}: expected "
                    f"knob=value, e.g. {self.example()!r}")
            knob = self.knobs.get(name)
            if knob is None:
                raise KnobError(
                    f"unknown knob {name!r} for {self.family!r}; "
                    f"valid knobs: {self.describe()}")
            if name in seen:
                raise KnobError(f"duplicate knob {name!r} in {text!r}")
            seen.add(name)
            try:
                value = knob.parse(raw_value)
            except KnobError as error:
                raise KnobError(f"invalid value for knob {name!r}: {error}") from None
            if value != knob.default:     # reference values identify the base config
                items[name] = value
        return KnobConfig(self.family, tuple(sorted(items.items()))), frozenset(seen)

    def render(self, config: KnobConfig) -> str:
        """The canonical knob string (sorted names, canonical values)."""

        return ",".join(f"{name}={self.knobs[name].render(value)}"
                        for name, value in config.knobs)

    def describe(self) -> str:
        """Human-readable knob inventory for error messages and ``--help``."""

        return "; ".join(f"{name} ({knob.doc})"
                         for name, knob in sorted(self.knobs.items()))

    def example(self) -> str:
        name, knob = next(iter(sorted(self.knobs.items())))
        rendered = knob.render(knob.default) if knob.default is not None else "..."
        return f"{name}={rendered}"
