"""Declarative cross-product sweeps over models, targets and run options.

A :class:`Sweep` expands ``{models} x {targets} x {options}`` into
:class:`RunSpec` instances and executes them through the result cache, so a
sweep that revisits pairs another figure already simulated costs nothing::

    outcome = (Sweep()
               .models("deit-tiny", "deit-small")
               .targets("vitality", "sanger")
               .run())
    for result in outcome.results:
        print(result.model, result.target, result.end_to_end_latency)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine.cache import DEFAULT_CACHE, ResultCache, canonicalise_spec, simulate
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.knobs import is_count
from repro.workloads import list_workloads


def _simulate_fresh(spec: RunSpec) -> RunResult:
    """Worker entry point for parallel sweeps (must be module-level to pickle).

    Runs through the worker process's own default cache; the parent inserts
    the returned result into the sweep's cache, so parallel and serial runs
    leave identical cache states behind.
    """

    return simulate(spec)


@dataclass(frozen=True)
class SweepOutcome:
    """Every result of one sweep plus the cache traffic it generated."""

    specs: tuple[RunSpec, ...]
    results: tuple[RunResult, ...]
    hits: int
    misses: int
    #: Of the misses, how many were served from a persistent tier instead of
    #: simulation (only nonzero through a :class:`~repro.engine.DiskResultCache`).
    disk_hits: int = 0

    def to_rows(self) -> list[dict[str, object]]:
        """Flat per-run rows, ready for markdown/JSON reporting."""

        rows = []
        for spec, result in zip(self.specs, self.results):
            rows.append({
                "model": spec.model,
                "target": spec.target,
                "attention": spec.attention or "native",
                "batch_size": spec.batch_size,
                "attention_latency_ms": result.attention_latency * 1e3,
                "end_to_end_latency_ms": result.end_to_end_latency * 1e3,
                "end_to_end_energy_mj": result.end_to_end_energy * 1e3,
            })
        return rows

    def to_dict(self) -> dict[str, object]:
        return {
            "runs": [dict(spec=spec.to_dict(), result=result.to_dict())
                     for spec, result in zip(self.specs, self.results)],
            "cache": {"hits": self.hits, "misses": self.misses,
                      "disk_hits": self.disk_hits},
        }


def _unique_names(values: tuple, method: str) -> tuple[str, ...]:
    """Flatten ``(iterable,)`` or ``(name, name, ...)`` into unique names."""

    if len(values) == 1 and not isinstance(values[0], str):
        values = tuple(values[0])
    for value in values:
        if not isinstance(value, str):
            raise TypeError(f"{method} expects workload/target names, "
                            f"got {value!r}")
    return tuple(dict.fromkeys(values))


@dataclass
class Sweep:
    """Builder for a cross product of simulation runs.

    Each ``models``/``targets``/... call replaces that axis; axes left at
    their defaults contribute a single value to the product.  The models
    axis defaults to every workload *only when never set* — an explicitly
    empty selection yields an empty sweep, it does not fan out.
    """

    _models: tuple[str, ...] | None = None
    _model_configs: tuple[str | None, ...] = (None,)
    _targets: tuple[str, ...] = ("vitality",)
    _configs: tuple[str | None, ...] = (None,)
    _attentions: tuple[str | None, ...] = (None,)
    _batch_sizes: tuple[int, ...] = (1,)
    _dataflows: tuple[str | None, ...] = (None,)
    _include_linear: bool = True

    def models(self, *names: str) -> "Sweep":
        self._models = tuple(names)
        return self

    def all_models(self) -> "Sweep":
        self._models = tuple(list_workloads())
        return self

    def targets(self, *names: str) -> "Sweep":
        self._targets = tuple(names)
        return self

    def over_models(self, *names) -> "Sweep":
        """Set the models axis from varargs *or* one iterable, deduplicated.

        Accepting an iterable lets callers that hold a collection of names —
        a serving fleet's workload mix, another sweep's axis — feed it
        straight in (``.over_models(mix_names)``) instead of hand-building
        cross-products; duplicates collapse order-preservingly, so a fleet
        spec like ``2xvitality,1xgpu`` contributes each name once.
        """

        self._models = _unique_names(names, "over_models")
        return self

    def over_targets(self, *names) -> "Sweep":
        """Set the targets axis from varargs *or* one iterable, deduplicated
        (the counterpart of :meth:`over_models` — see there)."""

        self._targets = _unique_names(names, "over_targets")
        return self

    def over_configs(self, *knob_strings) -> "Sweep":
        """Set a design-point axis of knob strings crossed with the targets.

        Each value is a bracketed-name body such as ``"pe=32x32,freq=1ghz"``;
        the expansion runs every target at every design point
        (``vitality[pe=32x32,freq=1ghz]``).  An empty string means the
        target's reference design point, so ``over_configs("", "pe=32x32")``
        compares a scaled design against Table III.  Accepts varargs or one
        iterable, deduplicated, like :meth:`over_models`.
        """

        self._configs = _unique_names(knob_strings, "over_configs")
        return self

    def model_configs(self, *knob_strings) -> "Sweep":
        """Set a workload-knob axis crossed with the models — the workload
        side of :meth:`over_configs`.

        Each value is a workload-grammar bracket body such as
        ``"tokens=1024"`` or ``"kv_tokens=2048,phase=decode"``; the expansion
        runs every model at every configuration
        (``deit-tiny[tokens=1024]``).  An empty string means the family's
        reference geometry, so the model-knob × target-knob product
        ``model_configs("", "tokens=1024").over_configs("", "pe=32x32")`` is
        fully symmetric.  Accepts varargs or one iterable, deduplicated.
        """

        self._model_configs = _unique_names(knob_strings, "model_configs")
        return self

    def attentions(self, *modes: str | None) -> "Sweep":
        self._attentions = tuple(modes)
        return self

    def batch_sizes(self, *sizes: int) -> "Sweep":
        self._batch_sizes = tuple(sizes)
        return self

    def dataflows(self, *flows: str | None) -> "Sweep":
        self._dataflows = tuple(flows)
        return self

    def attention_only(self) -> "Sweep":
        self._include_linear = False
        return self

    def expand(self) -> Iterator[RunSpec]:
        """Yield the cross product as :class:`RunSpec` instances."""

        models = self._models if self._models is not None else tuple(list_workloads())
        for model, model_config, target, config, attention, batch, dataflow \
                in itertools.product(
                    models, self._model_configs, self._targets, self._configs,
                    self._attentions, self._batch_sizes, self._dataflows):
            if model_config:
                if "[" in model:
                    raise ValueError(
                        f"cannot apply model_configs knobs {model_config!r} to "
                        f"the already-configured model {model!r}")
                model = f"{model}[{model_config}]"
            if config:
                if "[" in target:
                    raise ValueError(
                        f"cannot apply over_configs knobs {config!r} to the "
                        f"already-configured target {target!r}")
                target = f"{target}[{config}]"
            yield RunSpec(model=model, target=target, attention=attention,
                          batch_size=batch, dataflow=dataflow,
                          include_linear=self._include_linear)

    def run(self, cache: ResultCache | None = None,
            jobs: int | None = None) -> SweepOutcome:
        """Execute every run in the product through the (shared) result cache.

        With ``jobs`` > 1, cache misses fan out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`; the simulators are
        deterministic, so the outcome — results *and* cache accounting — is
        identical to the serial path, only the wall clock changes.
        ``jobs`` must be None or an integer >= 1.
        """

        if jobs is not None and not is_count(jobs):
            raise ValueError(f"jobs must be None or an integer >= 1, got {jobs!r}")
        cache = DEFAULT_CACHE if cache is None else cache
        before = cache.stats()
        specs = tuple(self.expand())
        if jobs is not None and jobs > 1 and len(specs) > 1:
            results = tuple(self._run_parallel(specs, cache, jobs))
        else:
            results = tuple(simulate(spec, cache=cache) for spec in specs)
        after = cache.stats()
        return SweepOutcome(specs=specs, results=results,
                            hits=after.hits - before.hits,
                            misses=after.misses - before.misses,
                            disk_hits=after.disk_hits - before.disk_hits)

    @staticmethod
    def _run_parallel(specs: Sequence[RunSpec], cache: ResultCache,
                      jobs: int) -> list[RunResult]:
        """Simulate uncached specs in worker processes, then replay the
        serial cache protocol in order (first occurrence a miss, repeats
        hits) so parallel accounting matches the serial path exactly.

        Specs whose target a fresh worker could not reproduce — registered
        after import, or replacing a built-in — are simulated in this
        process instead of being shipped out (a worker would crash on the
        unknown name, or silently answer with the import-time backend).
        """

        from repro.engine.targets import get_target, is_import_time_target

        canonical = [canonicalise_spec(spec) for spec in specs]
        pending = [spec for spec in dict.fromkeys(canonical)
                   if spec not in cache and is_import_time_target(spec.target)]
        computed: dict[RunSpec, RunResult] = {}
        if pending:
            # Only parallel runs pay for importing multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(pending))
            chunksize = max(1, len(pending) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = dict(zip(pending, pool.map(_simulate_fresh, pending,
                                                      chunksize=chunksize)))

        def runner(spec: RunSpec) -> RunResult:
            # Locally-registered targets, plus duplicates whose first
            # occurrence an LRU-bounded cache already evicted, simulate
            # inline — straight through the target, so no cache but the
            # sweep's own sees the run (the spec is already canonical).
            return computed[spec] if spec in computed \
                else get_target(spec.target).simulate(spec)

        return [cache.get_or_run(spec, runner) for spec in canonical]


def sweep(models: Sequence[str], targets: Sequence[str],
          cache: ResultCache | None = None, jobs: int | None = None,
          **axes) -> SweepOutcome:
    """One-call convenience wrapper around :class:`Sweep`.

    ``axes`` may set ``attentions``, ``batch_sizes``, ``dataflows``,
    ``over_configs``, ``model_configs`` (sequences) or ``include_linear``
    (bool); ``jobs`` enables the parallel execution path.
    """

    builder = Sweep().models(*models).targets(*targets)
    valid_axes = ("attentions", "batch_sizes", "dataflows", "over_configs",
                  "model_configs")
    for axis, values in axes.items():
        if axis == "include_linear":
            if not values:
                builder.attention_only()
            continue
        if axis not in valid_axes:
            raise TypeError(f"unknown sweep axis {axis!r}; expected one of "
                            f"{valid_axes} or include_linear")
        getattr(builder, axis)(*values)
    return builder.run(cache=cache, jobs=jobs)
