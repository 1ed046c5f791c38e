"""Outside-in layer tracer: wall-clock self time per simulator layer.

The tracer times the program from the benchmark's side, without editing
``src/``.  Each layer is a set of public functions of one ``repro`` module
(see :data:`WRAPPED`).  While a :class:`Tracer` is installed, each of those
functions is replaced by a timing wrapper wherever a ``repro.*`` module or
class binds it.  Bindings are matched by identity, so the ``from ... import
x as _x`` aliases are covered.  Uninstalling puts every original object back.

Spans nest on one stack.  A layer's self time is its span minus the spans of
the layers it called, so the self times of all layers plus the time the op
spent outside any layer (``unattributed``) add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: ``(module:qualname, layer, counter)`` for every wrapped function; the
#: counter (if any) is bumped once per returning call.
WRAPPED = (
    ("repro.serve.traffic:iter_arrivals", "traffic", None),
    ("repro.serve.cluster:LeastLoadedRouter.choose", "route", "route.calls"),
    ("repro.serve.cluster:EnergyAwareRouter.choose", "route", "route.calls"),
    ("repro.serve.cluster:LoadIndex.argmin", "route", "route.calls"),
    ("repro.serve.cluster:LoadIndex.update", "route", "route.calls"),
    ("repro.serve.batching:FIFOPolicy.take", "batch", "batch.takes"),
    ("repro.serve.batching:SizeBatchPolicy.take", "batch", "batch.takes"),
    ("repro.serve.batching:TimeoutBatchPolicy.take", "batch", "batch.takes"),
    ("repro.serve.simulator:serve", "kernel", "plan.simulations"),
    ("repro.serve.pipeline:serve_pipeline", "kernel", "plan.simulations"),
    ("repro.serve.llm:serve_llm", "kernel", "plan.simulations"),
    ("repro.serve.metrics:ReportAccumulator.observe", "metrics",
     "metrics.observes"),
    ("repro.serve.metrics:ReportAccumulator.finalize", "metrics", None),
    ("repro.serve.metrics:build_report", "metrics", None),
    ("repro.obs.sketch:StreamingLatency.add", "metrics", None),
    ("repro.engine.cache:simulate", "engine.resolve", None),
    ("repro.engine.cache:ResultCache.get_or_run", "engine.lookup",
     "engine.calls"),
    ("repro.engine.targets:VitalityTarget.simulate", "hw", "hw.runs"),
    ("repro.engine.targets:SangerTarget.simulate", "hw", "hw.runs"),
    ("repro.engine.targets:SALOTarget.simulate", "hw", "hw.runs"),
    ("repro.engine.targets:PlatformTarget.simulate", "hw", "hw.runs"),
    ("repro.hardware.memsim.simulator:simulate_tiled_gemm", "memsim",
     "memsim.gemms"),
    ("repro.plan.queueing:estimate_fleet", "plan.estimate", "plan.estimates"),
    ("repro.plan.optimizer:plan_capacity", "driver", None),
    ("repro.experiments.dse_exps:explore_design_space", "driver", None),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer, _ in WRAPPED))


def resolve(path: str):
    """The function object a ``module:qualname`` path names."""

    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[name]


def binding_sites(original) -> list[tuple[object, str]]:
    """Every ``(module or class, attribute)`` in ``repro`` bound to ``original``."""

    sites, seen = [], set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type)
                             and value.__module__ == module_name]
        for owner in owners:
            for attribute, value in list(vars(owner).items()):
                if value is original and (id(owner), attribute) not in seen:
                    seen.add((id(owner), attribute))
                    sites.append((owner, attribute))
    return sites


class _Arrivals:
    """Iterator proxy whose every ``next()`` runs inside a traffic span."""

    __slots__ = ("_step",)

    def __init__(self, step):
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step()


class Tracer:
    """Per-layer self time and call counts of the ops run under it.

    Use one tracer per op: ``with tracer.installed(): tracer.run(op)``.
    """

    def __init__(self):
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.wall_seconds = 0.0
        self.unattributed_seconds = 0.0
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, layer: str, counter: str | None, function, after=None):
        """Wrap ``function`` so each call is a ``layer`` span.

        ``counter`` is bumped per returning call; ``after(result)`` may
        derive further counts from the return value.
        """

        stack, clock = self._stack, time.perf_counter
        self_seconds, counts = self.self_seconds, self.counts

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_seconds[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
            if counter is not None:
                counts[counter] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def _wrapper(self, layer: str, counter: str | None, original):
        counts = self.counts
        if layer == "traffic":
            start = self._span(layer, None, original)

            def arrivals(*args, **kwargs):
                stream = iter(start(*args, **kwargs))
                return _Arrivals(self._span(layer, "traffic.arrivals",
                                           stream.__next__))
            return arrivals
        if layer == "batch":
            def after(batch):
                if batch is not None:
                    counts["batch.dispatches"] += 1
                    counts["batch.requests"] += len(batch)
            return self._span(layer, counter, original, after)
        if layer == "memsim":
            def after(trace):
                counts["memsim.tiles"] += trace.tiles
            return self._span(layer, counter, original, after)
        if layer == "engine.lookup":
            def lookup(cache, spec, runner):
                # A miss is a lookup during which a hardware model ran.
                runs = counts["hw.runs"]
                result = original(cache, spec, runner)
                if counts["hw.runs"] != runs:
                    counts["engine.misses"] += 1
                return result
            return self._span(layer, counter, lookup)
        return self._span(layer, counter, original)

    def install(self) -> None:
        """Replace every layer function at all of its ``repro`` bindings."""

        if self._patched:
            raise RuntimeError("tracer is already installed")
        for path, layer, counter in WRAPPED:
            original = resolve(path)
            wrapper = self._wrapper(layer, counter, original)
            for owner, attribute in binding_sites(original):
                self._patched.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original function object back where it was bound."""

        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        """Installed inside the ``with`` block, restored after it."""

        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def run(self, op):
        """Run ``op`` as the root span; return its result."""

        root = [0.0]
        self._stack[:] = [root]
        clock = time.perf_counter
        start = clock()
        result = op()
        self.wall_seconds = clock() - start
        self.unattributed_seconds = self.wall_seconds - root[0]
        return result
