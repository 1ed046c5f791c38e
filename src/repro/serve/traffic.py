"""Seeded request-arrival generators for the serving simulator.

Every pattern turns ``(duration, seed)`` into a sorted stream of
:class:`Request` instances, each naming the workload it wants served
(``deit-tiny``, ``levit-128``, ...).  Generation is pure: the same pattern,
duration and seed always produce the identical arrival sequence, which is
what makes whole serving runs bit-reproducible.

Patterns generate *lazily*: :meth:`TrafficPattern.iter_arrivals` yields
requests one at a time and the list-returning :meth:`TrafficPattern.arrivals`
is a thin ``list(...)`` wrapper, so the event loop in
:func:`repro.serve.serve` holds only in-flight work rather than the whole
trace.  Laziness never changes the sequence: when the workload mix consumes
per-request randomness (a multi-model mix or token profiles), the historical
draw order was "every arrival time first, then the per-request draws", so
``iter_arrivals`` materialises the times internally for those mixes and is
O(1)-memory only for mixes that draw nothing per request — exactly the
single-model traffic used for scale runs.

Patterns:

* :class:`PoissonTraffic` — memoryless arrivals at a constant rate;
* :class:`BurstyTraffic` — a two-state Markov-modulated Poisson process
  alternating quiet and burst phases;
* :class:`DiurnalTraffic` — a raised-cosine rate profile (the day/night cycle
  compressed to ``period`` seconds), sampled by thinning;
* :class:`ReplayTraffic` — replay of an explicit ``(time, model)`` trace.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Iterable,
    Iterator,
    NamedTuple,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.knobs import KnobError, is_count, is_number
from repro.workloads import UnknownWorkloadError, get_workload

#: Traffic pattern names accepted by :func:`make_traffic` and the CLI.
TRAFFIC_PATTERNS = ("poisson", "bursty", "diurnal", "replay")


def _check_workload_name(model: str, where: str) -> None:
    """Resolve a (possibly configured) workload name, failing as ValueError.

    Configured names — ``"deit-tiny[tokens=1024]"`` — are first-class request
    models: the grammar validates families *and* knobs here, at mix/trace
    construction, so the error names the construction site rather than
    surfacing mid-run.
    """

    try:
        get_workload(model)
    except (UnknownWorkloadError, KnobError) as error:
        raise ValueError(f"in {where}: {error.args[0]}") from None


@dataclass(frozen=True)
class TokenDistribution:
    """A seeded integer token-count distribution: fixed or uniform over a range.

    Spelled ``"512"`` (every draw is 512) or ``"64:256"`` (uniform integers,
    both ends inclusive) — the grammar the CLI's ``--prompt-tokens`` /
    ``--output-tokens`` flags use.
    """

    low: int
    high: int

    def __post_init__(self):
        if self.low < 1:
            raise ValueError(f"token counts must be >= 1, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"token range needs low <= high, "
                             f"got {self.low}:{self.high}")

    @classmethod
    def parse(cls, text: "str | int | TokenDistribution") -> "TokenDistribution":
        if isinstance(text, TokenDistribution):
            return text
        if isinstance(text, int):
            return cls(text, text)
        low, sep, high = str(text).partition(":")
        try:
            return cls(int(low), int(high) if sep else int(low))
        except ValueError:
            raise ValueError(f"token distribution must be 'N' or 'LO:HI', "
                             f"got {text!r}") from None

    def sample(self, rng: random.Random) -> int:
        if self.high == self.low:
            return self.low
        return rng.randint(self.low, self.high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def describe(self) -> str:
        return str(self.low) if self.high == self.low else f"{self.low}:{self.high}"


@dataclass(frozen=True)
class TokenProfile:
    """Per-request prompt/output token distributions for one workload."""

    prompt: TokenDistribution
    output: TokenDistribution

    @classmethod
    def of(cls, prompt: "str | int | TokenDistribution",
           output: "str | int | TokenDistribution") -> "TokenProfile":
        return cls(TokenDistribution.parse(prompt), TokenDistribution.parse(output))

    def to_dict(self) -> dict[str, str]:
        return {"prompt": self.prompt.describe(), "output": self.output.describe()}


class Request(NamedTuple):
    """One inference request: which workload, and when it arrived.

    ``prompt_tokens`` / ``output_tokens`` are the autoregressive-serving
    geometry (set by token-profiled mixes and token-carrying traces); ``None``
    means "use the server's defaults", and classic (non-LLM) serving ignores
    them entirely.

    A named tuple, built in C, because one is built per arrival and per
    pipeline hop; a frozen dataclass would pay an ``object.__setattr__`` per
    field.  The hot sites call ``tuple.__new__(Request, (index, model,
    arrival, prompt, output))`` with every field, which also skips the
    generated Python ``__new__``.
    """

    index: int
    model: str
    arrival: float
    prompt_tokens: int | None = None
    output_tokens: int | None = None

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "index": self.index, "model": self.model, "arrival": self.arrival}
        if self.prompt_tokens is not None:
            payload["prompt_tokens"] = self.prompt_tokens
        if self.output_tokens is not None:
            payload["output_tokens"] = self.output_tokens
        return payload


@dataclass(frozen=True)
class WorkloadMix:
    """A weighted mixture of workload names requests are drawn from.

    ``token_profiles`` optionally attaches a per-model
    :class:`TokenProfile`; requests for a profiled model then carry sampled
    ``prompt_tokens`` / ``output_tokens`` (drawn from the same seeded
    generator as the model choice, so arrival lists stay bit-reproducible).
    """

    entries: tuple[tuple[str, float], ...]
    token_profiles: tuple[tuple[str, TokenProfile], ...] = ()
    # What sample() reads on every draw, derived from ``entries`` once.
    _bounds: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("WorkloadMix needs at least one workload")
        merged: dict[str, float] = {}
        for model, weight in self.entries:
            _check_workload_name(model, "mix")
            # A nan or infinite weight corrupts every draw, and the config
            # echo would print it as NaN or Infinity, which is not JSON.
            check_finite(**{f"mix weight for {model!r}": weight})
            merged[model] = merged.get(model, 0.0) + weight
        # Duplicate names collapse to one summed entry, so the config echo
        # (to_dict) describes exactly the distribution sample() draws from.
        object.__setattr__(self, "entries", tuple(merged.items()))
        # sample() picks the first entry whose cumulative weight, added in
        # entry order, exceeds rng.random() * total; the total is the last
        # bound, the left fold of the weights (see repro.fold).
        bounds, cumulative = [], 0.0
        for weight in merged.values():
            cumulative += weight
            bounds.append(cumulative)
        object.__setattr__(self, "_bounds", tuple(bounds))
        object.__setattr__(self, "_total", cumulative)
        models = {model for model, _ in self.entries}
        for model, _profile in self.token_profiles:
            if model not in models:
                raise ValueError(f"token profile for {model!r} matches no mix entry")

    @classmethod
    def of(cls, models: Sequence[str],
           weights: Sequence[float] | None = None,
           tokens: "TokenProfile | dict[str, TokenProfile] | None" = None
           ) -> "WorkloadMix":
        if weights is None:
            weights = [1.0] * len(models)
        if len(weights) != len(models):
            raise ValueError(f"{len(models)} models but {len(weights)} weights")
        if tokens is None:
            profiles: tuple[tuple[str, TokenProfile], ...] = ()
        elif isinstance(tokens, TokenProfile):
            profiles = tuple((model, tokens) for model in dict.fromkeys(models))
        else:
            profiles = tuple(sorted(tokens.items()))
        return cls(tuple(zip(models, weights)), profiles)

    def profile_for(self, model: str) -> TokenProfile | None:
        for name, profile in self.token_profiles:
            if name == model:
                return profile
        return None

    @property
    def draws_per_request(self) -> bool:
        """True when :meth:`sample`/:meth:`sample_tokens` consume randomness.

        Single-model unprofiled mixes draw nothing per request, which is what
        lets ``iter_arrivals`` stream them in O(1) memory without disturbing
        the historical "all times first, then per-request draws" order.
        """

        return len(self.entries) > 1 or bool(self.token_profiles)

    def sample(self, rng: random.Random) -> str:
        entries = self.entries
        if len(entries) == 1:
            return entries[0][0]
        # The first model whose cumulative bound exceeds the pick; a pick
        # at or above the last bound (the total rounded up) takes the last.
        position = bisect_right(self._bounds, rng.random() * self._total)
        return entries[min(position, len(entries) - 1)][0]

    def sample_tokens(self, model: str,
                      rng: random.Random) -> tuple[int | None, int | None]:
        """Draw (prompt, output) token counts, (None, None) when unprofiled.

        Unprofiled models consume no randomness, so mixes without token
        profiles reproduce the exact pre-profile arrival sequences.
        """

        profile = self.profile_for(model)
        if profile is None:
            return None, None
        return profile.prompt.sample(rng), profile.output.sample(rng)

    def to_dict(self) -> dict:
        if not self.token_profiles:
            return dict(self.entries)
        return {"weights": dict(self.entries),
                "tokens": {model: profile.to_dict()
                           for model, profile in self.token_profiles}}


@runtime_checkable
class TrafficPattern(Protocol):
    """What every arrival generator provides."""

    name: str

    def arrivals(self, duration: float, seed: int) -> list[Request]:
        """The sorted request list for one run of ``duration`` seconds."""
        ...

    def iter_arrivals(self, duration: float, seed: int) -> Iterator[Request]:
        """The same sequence as :meth:`arrivals`, yielded lazily."""
        ...

    def to_dict(self) -> dict[str, object]:
        """JSON-stable description echoed into the :class:`ServeReport`."""
        ...


def iter_arrivals(traffic: TrafficPattern, duration: float,
                  seed: int) -> Iterator[Request]:
    """Stream ``traffic``'s arrivals, tolerating list-only patterns.

    The simulator consumes arrivals through this helper so third-party
    patterns that predate :meth:`TrafficPattern.iter_arrivals` (or test
    doubles that only implement ``arrivals``) keep working — they are simply
    materialised first, as before.
    """

    lazy = getattr(traffic, "iter_arrivals", None)
    if lazy is not None:
        return lazy(duration, seed)
    return iter(traffic.arrivals(duration, seed))


def traffic_models(traffic: TrafficPattern) -> list[str] | None:
    """Every model ``traffic`` can emit, without generating arrivals.

    Mix-backed patterns declare their models up front and replay traces carry
    them; ``None`` means the pattern's models are only knowable by generating
    (callers then fall back to materialising).  :func:`~repro.serve.serve_llm`
    sizes KV capacity from this in both summary modes, so it never holds
    the arrival list of a pattern that declares its models.
    """

    mix = getattr(traffic, "mix", None)
    if mix is not None:
        return sorted(model for model, _ in mix.entries)
    trace = getattr(traffic, "trace", None)
    if trace is not None:
        return sorted({entry[1] for entry in trace})
    return None


def check_finite(*, allow_zero: bool = False, **values: float) -> None:
    """Reject run parameters (one per keyword) that are nan, infinite or not
    positive — or negative, with ``allow_zero``; the error names the bad one.
    Unchecked, a nan SLO is never violated and an infinite duration never
    ends."""

    bound = ">= 0" if allow_zero else "positive"
    for name, value in values.items():
        if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
            raise ValueError(f"{name} must be finite and {bound}, got {value}")


def check_counts(**values: int) -> None:
    """Reject token and size arguments (one per keyword) that are not
    integers >= 1; the error names the bad one.  Unchecked, a nan prompt
    never finishes prefill and a fractional one fails mid-run."""

    for name, value in values.items():
        if not is_count(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_mix(mix: object) -> None:
    """Reject a ``mix`` that is not a :class:`WorkloadMix`.  Unchecked, a
    bare model name constructs and then fails mid-run."""

    if not isinstance(mix, WorkloadMix):
        raise ValueError(f"mix must be a WorkloadMix, got {mix!r}; build one "
                         f"with WorkloadMix.of([...])")


def _lazy_requests(times: Iterator[float], mix: WorkloadMix,
                   rng: random.Random) -> Iterator[Request]:
    """Attach mix draws to a time stream without changing the draw order.

    Historically every pattern drew *all* arrival times before any model or
    token choice; a mix that consumes per-request randomness therefore forces
    the time stream to materialise here so the interleaving (and with it the
    bit-exact arrival sequence) is preserved.  Mixes that draw nothing per
    request (one model, no token profile) stream straight through in O(1)
    memory, naming their one model without calling the samplers.  Mixes
    without token profiles skip :meth:`WorkloadMix.sample_tokens`, which
    draws nothing for an unprofiled model.
    """

    # All five fields, so each tuple is built in C (see Request).
    new = tuple.__new__
    if not mix.draws_per_request:
        model = mix.entries[0][0]
        for index, time in enumerate(times):
            yield new(Request, (index, model, time, None, None))
        return
    sample = mix.sample
    if not mix.token_profiles:
        for index, time in enumerate(list(times)):
            yield new(Request, (index, sample(rng), time, None, None))
        return
    sample_tokens = mix.sample_tokens
    for index, time in enumerate(list(times)):
        model = sample(rng)
        prompt, output = sample_tokens(model, rng)
        yield new(Request, (index, model, time, prompt, output))


@dataclass(frozen=True)
class PoissonTraffic:
    """Memoryless arrivals: exponential inter-arrival times at ``rate`` req/s."""

    rate: float
    mix: WorkloadMix
    name: str = "poisson"

    def __post_init__(self):
        check_finite(rate=self.rate)
        _check_mix(self.mix)

    def _times(self, duration: float, rng: random.Random) -> Iterator[float]:
        now = rng.expovariate(self.rate)
        while now < duration:
            yield now
            now += rng.expovariate(self.rate)

    def iter_arrivals(self, duration: float, seed: int) -> Iterator[Request]:
        check_finite(duration=duration)
        rng = random.Random(seed)
        return _lazy_requests(self._times(duration, rng), self.mix, rng)

    def arrivals(self, duration: float, seed: int) -> list[Request]:
        return list(self.iter_arrivals(duration, seed))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "rate": self.rate, "mix": self.mix.to_dict()}


@dataclass(frozen=True)
class BurstyTraffic:
    """Two-state MMPP: quiet phases at ``rate * quiet_factor`` alternating with
    bursts at ``rate * burst_factor``; phase dwell times are exponential.

    The time-averaged rate is ``rate * (quiet_factor * mean_quiet +
    burst_factor * mean_burst) / (mean_quiet + mean_burst)``; the default
    factors make it equal ``rate``, so Poisson and bursty runs at the same
    ``rate`` are load-matched and differ only in arrival variance.
    """

    rate: float
    mix: WorkloadMix
    burst_factor: float = 3.0
    quiet_factor: float = 0.5
    mean_quiet: float = 1.0
    mean_burst: float = 0.25
    name: str = "bursty"

    def __post_init__(self):
        check_finite(rate=self.rate, burst_factor=self.burst_factor,
                     quiet_factor=self.quiet_factor, mean_quiet=self.mean_quiet,
                     mean_burst=self.mean_burst)
        if self.burst_factor <= self.quiet_factor:
            raise ValueError("burst_factor must exceed quiet_factor")
        _check_mix(self.mix)

    def _times(self, duration: float, rng: random.Random) -> Iterator[float]:
        now, burst = 0.0, False
        while now < duration:
            mean_dwell = self.mean_burst if burst else self.mean_quiet
            phase_rate = self.rate * (self.burst_factor if burst else self.quiet_factor)
            phase_end = min(now + rng.expovariate(1.0 / mean_dwell), duration)
            tick = now + rng.expovariate(phase_rate)
            while tick < phase_end:
                yield tick
                tick += rng.expovariate(phase_rate)
            now, burst = phase_end, not burst

    def iter_arrivals(self, duration: float, seed: int) -> Iterator[Request]:
        check_finite(duration=duration)
        rng = random.Random(seed)
        return _lazy_requests(self._times(duration, rng), self.mix, rng)

    def arrivals(self, duration: float, seed: int) -> list[Request]:
        return list(self.iter_arrivals(duration, seed))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "rate": self.rate,
                "burst_factor": self.burst_factor, "quiet_factor": self.quiet_factor,
                "mean_quiet": self.mean_quiet, "mean_burst": self.mean_burst,
                "mix": self.mix.to_dict()}


@dataclass(frozen=True)
class DiurnalTraffic:
    """A raised-cosine day/night profile compressed into ``period`` seconds.

    The instantaneous rate swings between ``peak_rate * floor`` (the trough,
    at t = 0) and ``peak_rate`` (the peak, at t = period / 2); arrivals are
    drawn by thinning a Poisson process running at the peak rate.
    """

    peak_rate: float
    mix: WorkloadMix
    period: float = 10.0
    floor: float = 0.05
    name: str = "diurnal"

    def __post_init__(self):
        check_finite(peak_rate=self.peak_rate, period=self.period)
        if not 0 <= self.floor < 1:
            raise ValueError(f"floor must be in [0, 1), got {self.floor}")
        _check_mix(self.mix)

    def rate_at(self, time: float) -> float:
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * time / self.period))
        return self.peak_rate * (self.floor + (1.0 - self.floor) * phase)

    def _times(self, duration: float, rng: random.Random) -> Iterator[float]:
        now = rng.expovariate(self.peak_rate)
        while now < duration:
            if rng.random() < self.rate_at(now) / self.peak_rate:
                yield now
            now += rng.expovariate(self.peak_rate)

    def iter_arrivals(self, duration: float, seed: int) -> Iterator[Request]:
        check_finite(duration=duration)
        rng = random.Random(seed)
        return _lazy_requests(self._times(duration, rng), self.mix, rng)

    def arrivals(self, duration: float, seed: int) -> list[Request]:
        return list(self.iter_arrivals(duration, seed))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "peak_rate": self.peak_rate,
                "period": self.period, "floor": self.floor, "mix": self.mix.to_dict()}


@dataclass(frozen=True)
class ReplayTraffic:
    """Replay of an explicit trace (seed is ignored).

    Entries are ``(time, model)`` or ``(time, model, prompt_tokens,
    output_tokens)`` — token-carrying records make traces first-class LLM
    workloads (each replayed request keeps its own prompt/output geometry).
    """

    trace: tuple[tuple, ...]
    name: str = "replay"

    def __post_init__(self):
        for entry in self.trace:
            time, model = entry[0], entry[1]
            # Unchecked, a nan or inf time silently drops its request.
            check_finite(allow_zero=True, **{"trace time": time})
            _check_workload_name(model, "trace")
            for tokens in entry[2:]:
                if not is_count(tokens):
                    raise ValueError(f"trace token counts must be integers "
                                     f">= 1, got {tokens!r} for {model!r}")

    @classmethod
    def from_records(cls, records: Iterable[Sequence[object]]) -> "ReplayTraffic":
        """Build from ``[[time, model], ...]`` or ``[[time, model,
        prompt_tokens, output_tokens], ...]`` records (e.g. parsed JSON)."""

        if not isinstance(records, Iterable):
            raise ValueError(f"a replay trace must be a list of records, "
                             f"got {records!r}")
        trace = []
        for record in records:
            if not (isinstance(record, (list, tuple)) and len(record) in (2, 4)
                    and is_number(record[0])):
                raise ValueError(f"trace records must be [time, model] or "
                                 f"[time, model, prompt_tokens, output_tokens], "
                                 f"got {record!r}")
            time, model, *tokens = record
            # Token counts unconverted: int() would truncate a fractional one.
            trace.append((float(time), str(model), *tokens))
        return cls(tuple(trace))

    def iter_arrivals(self, duration: float, seed: int) -> Iterator[Request]:
        check_finite(duration=duration)
        # Replay still sorts its trace up front (a trace is in memory anyway);
        # laziness here is about matching the streaming protocol.
        ordered = sorted(entry for entry in self.trace if entry[0] < duration)
        for index, entry in enumerate(ordered):
            yield Request(index=index, model=entry[1], arrival=entry[0],
                          prompt_tokens=entry[2] if len(entry) > 2 else None,
                          output_tokens=entry[3] if len(entry) > 2 else None)

    def arrivals(self, duration: float, seed: int) -> list[Request]:
        return list(self.iter_arrivals(duration, seed))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "trace_length": len(self.trace)}


def make_traffic(pattern: str, rate: float, models: Sequence[str],
                 weights: Sequence[float] | None = None, *,
                 period: float = 10.0,
                 trace: Iterable[Sequence[object]] | None = None,
                 tokens: "TokenProfile | None" = None) -> TrafficPattern:
    """Build a traffic pattern by name (the CLI entry point).

    ``rate`` is the mean (Poisson/bursty) or peak (diurnal) arrival rate in
    requests per second; ``replay`` requires ``trace`` and ignores the rest
    (including ``tokens`` — replay records carry their own token counts).
    ``tokens`` attaches one prompt/output :class:`TokenProfile` to every
    model in the mix.
    """

    if pattern == "replay":
        if trace is None:
            raise ValueError("replay traffic requires a trace")
        return ReplayTraffic.from_records(trace)
    mix = WorkloadMix.of(tuple(models), weights, tokens=tokens)
    if pattern == "poisson":
        return PoissonTraffic(rate, mix)
    if pattern == "bursty":
        return BurstyTraffic(rate, mix)
    if pattern == "diurnal":
        return DiurnalTraffic(rate, mix, period=period)
    raise ValueError(f"unknown traffic pattern {pattern!r}; "
                     f"available: {', '.join(TRAFFIC_PATTERNS)}")
