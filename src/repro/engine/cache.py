"""Memoising result cache keyed on :class:`~repro.engine.RunSpec`.

The paper's figures and tables repeatedly simulate the same (model, target)
pairs — Fig. 11 and Fig. 12 alone share every one of their runs.  Because a
``RunSpec`` is frozen and hashable and a ``RunResult`` is immutable, results
can be memoised safely: the first simulation of a spec pays the cost, every
later request is a dictionary lookup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.engine.results import RunResult
from repro.engine.spec import RunSpec

if TYPE_CHECKING:
    from repro.engine.targets import Target


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one cache (a snapshot, not a live view)."""

    hits: int
    misses: int
    size: int
    evictions: int = 0
    max_entries: int | None = None
    #: Results served from the persistent tier (always 0 for the in-memory
    #: :class:`ResultCache`; see :class:`~repro.engine.DiskResultCache`).
    disk_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        return {"hits": self.hits, "misses": self.misses, "size": self.size,
                "evictions": self.evictions, "max_entries": self.max_entries,
                "disk_hits": self.disk_hits, "hit_rate": self.hit_rate}


class ResultCache:
    """An in-memory memo table from :class:`RunSpec` to :class:`RunResult`.

    With ``max_entries`` set the table is LRU-bounded: inserting beyond the
    bound evicts the least-recently-used entry (hits refresh recency), so
    long serving runs over many (model, batch) shapes hold the cache at a
    fixed footprint.  The default is unbounded — the paper's figure/table
    sweeps revisit a small, finite spec set.
    """

    def __init__(self, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._store: dict[RunSpec, RunResult] = {}
        self._max_entries = max_entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec in self._store

    def get_or_run(self, spec: RunSpec,
                   runner: Callable[[RunSpec], RunResult]) -> RunResult:
        """Return the cached result for ``spec``, running ``runner`` on a miss."""

        try:
            result = self._store.pop(spec)
        except KeyError:
            self._misses += 1
            result = runner(spec)
            self._store[spec] = result
            if self._max_entries is not None:
                while len(self._store) > self._max_entries:
                    self._store.pop(next(iter(self._store)))
                    self._evictions += 1
            return result
        self._hits += 1
        self._store[spec] = result       # re-insert at the back: most recent
        return result

    def invalidate_target(self, target: str) -> int:
        """Drop every memoised result produced by the named target.

        Called when a target is re-registered, so a replaced backend cannot
        keep serving its predecessor's numbers.  Returns the eviction count.
        """

        stale = [spec for spec in self._store if spec.target == target]
        for spec in stale:
            del self._store[spec]
        return len(stale)

    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses,
                          size=len(self._store), evictions=self._evictions,
                          max_entries=self._max_entries)

    def clear(self) -> None:
        self._store.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0


#: Process-wide default cache used by :func:`simulate` when none is passed.
DEFAULT_CACHE = ResultCache()


@functools.lru_cache(maxsize=1024)
def resolve(spec: RunSpec) -> tuple[Target, RunSpec]:
    """``(target, canonical spec)`` for one run request.

    Three canonicalisations keep physically identical runs on one cache
    entry: the target's name is normalised (configured names —
    ``vitality[...]`` — sort their knobs, canonicalise values and drop
    reference settings), the model's name is normalised the same way
    (``"deit-tiny[heads=3,tokens=512]"`` keys as ``"deit-tiny[tokens=512]"``),
    and the target collapses spec options that are no-ops for it (e.g. a
    ``scale_to_peak`` at or below ViTALiTy's native peak).

    :func:`simulate` is this plus one cache lookup,
    ``cache.get_or_run(canonical, target.simulate)``.  A hot loop that runs
    one shape many times resolves it once and then makes only that lookup,
    with the same hits, misses and LRU order; the serving simulators do so
    once per shape per run.

    Memoised on the incoming frozen spec.  The answer depends only on the
    target registry (workload families are fixed at import), and
    :func:`~repro.engine.register_target` clears the memo on every
    registration; a pair held past a registration keeps the old target.
    It is LRU-bounded like a serving :class:`ResultCache`;
    ``resolve.__wrapped__`` is the unmemoised resolver.
    """

    from repro.engine.targets import get_target
    from repro.workloads import canonical_workload_name

    target = get_target(spec.target)
    if target.name != spec.target:
        spec = spec._replace(target=target.name)
    model = canonical_workload_name(spec.model)
    if model != spec.model:
        spec = spec._replace(model=model)
    canonicalise = getattr(target, "canonical_spec", None)
    if canonicalise is not None:
        spec = canonicalise(spec)
    return target, spec


def canonicalise_spec(spec: RunSpec) -> RunSpec:
    """The exact spec :func:`simulate` would key the result cache on."""

    return resolve(spec)[1]


def simulate(spec: RunSpec, *, cache: ResultCache | None = None) -> RunResult:
    """Simulate one run, memoised through a result cache::

        simulate(RunSpec("deit-tiny", target="sanger"))

    That is :func:`resolve` and then one ``cache.get_or_run`` (``cache``
    defaults to :data:`DEFAULT_CACHE`).
    """

    target, spec = resolve(spec)
    cache = DEFAULT_CACHE if cache is None else cache
    return cache.get_or_run(spec, target.simulate)


def cache_stats() -> CacheStats:
    """Hit/miss counters of the process-wide default cache."""

    return DEFAULT_CACHE.stats()


def clear_cache() -> None:
    """Drop every memoised result from the process-wide default cache."""

    DEFAULT_CACHE.clear()
