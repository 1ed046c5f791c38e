"""Tests for the unified simulation engine: specs, targets, cache, sweeps."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine import (
    ATTENTION_MODES,
    DATAFLOWS,
    LayerRecord,
    ResultCache,
    RunSpec,
    StepRecord,
    Sweep,
    UnknownTargetError,
    VitalityTarget,
    canonicalise_spec,
    get_target,
    list_targets,
    register_target,
    resolve,
    simulate,
    sweep,
)
from repro.hardware import (
    RooflineRecord,
    SangerAccelerator,
    ViTALiTyAccelerator,
    get_platform,
    pipeline_latency,
    run_model,
    sequential_latency,
)
from repro.hardware.memsim import TilePlan
from repro.workloads import get_workload, list_workloads, scaled_to_tokens


class TestPipelineEdgeCases:
    def test_empty_step_list(self):
        assert pipeline_latency([]) == 0
        assert sequential_latency([]) == 0

    def test_single_chunk_no_overlap(self):
        steps = [("a", "systolic", 40, 0.0), ("b", "systolic", 60, 0.0)]
        assert pipeline_latency(steps) == sequential_latency(steps) == 100

    def test_single_step(self):
        steps = [("only", "adder", 7, 0.0)]
        assert pipeline_latency(steps) == sequential_latency(steps) == 7

    def test_tie_between_chunks(self):
        """Two chunks with equal busy time: either is dominant, the other is
        the fill overhead, so the pipelined latency equals the sequential one."""

        steps = [("a", "systolic", 50, 0.0), ("b", "adder", 50, 0.0)]
        assert pipeline_latency(steps) == 100 == sequential_latency(steps)

    def test_three_way_tie_still_bounded_by_sequential(self):
        steps = [("a", "x", 30, 0.0), ("b", "y", 30, 0.0), ("c", "z", 30, 0.0)]
        assert pipeline_latency(steps) == 60
        assert sequential_latency(steps) == 90

    def test_zero_cycle_steps(self):
        steps = [("a", "systolic", 100, 0.0), ("m", "memory", 0, 0.0)]
        assert pipeline_latency(steps) == sequential_latency(steps) == 100


class TestRunSpec:
    def test_hashable_and_equal(self):
        a = RunSpec("deit-tiny", target="sanger")
        b = RunSpec("deit-tiny", target="sanger")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_options_hash_differently(self):
        specs = {
            RunSpec("deit-tiny"),
            RunSpec("deit-tiny", include_linear=False),
            RunSpec("deit-tiny", batch_size=2),
            RunSpec("deit-tiny", dataflow="g_stationary"),
        }
        assert len(specs) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec("deit-tiny", batch_size=0)
        # A fractional batch simulated 2.5 images, True ran as 1 and nan
        # passed the old ``< 1`` check with NaN latency and energy.
        for batch_size in (2.5, True, float("nan")):
            with pytest.raises(ValueError, match="batch_size"):
                RunSpec("deit-tiny", batch_size=batch_size)
        with pytest.raises(ValueError, match="tokens"):
            canonicalise_spec(RunSpec("deit-tiny[tokens=0]"))
        with pytest.raises(ValueError):
            RunSpec("deit-tiny", dataflow="sideways")
        with pytest.raises(ValueError):
            RunSpec("deit-tiny", attention="softermax")
        with pytest.raises(ValueError):
            RunSpec("deit-tiny", scale_to_peak=-1.0)
        with pytest.raises(ValueError):
            RunSpec("")

    @pytest.mark.parametrize("peak", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_to_peak_rejected(self, peak):
        """nan passed the ``<= 0`` check and returned unscaled numbers; inf
        overflowed inside the target."""

        with pytest.raises(ValueError, match="scale_to_peak"):
            RunSpec("deit-tiny", scale_to_peak=peak)

    @pytest.mark.parametrize("bad, message", [
        ({"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
        ({"attention": "x"},
         "attention must be one of ('vanilla', 'taylor'), got 'x'"),
        ({"scale_to_peak": float("nan")},
         "scale_to_peak must be finite and positive, got nan"),
    ], ids=["batch_size", "attention", "scale_to_peak"])
    def test_every_construction_path_runs_the_checks(self, bad, message):
        """A named tuple's generated ``_make`` and ``_replace`` skip
        ``__new__``; the resolver and the targets' ``canonical_spec`` build
        through ``_replace``, and pickles and copies rebuild through the
        constructor."""

        good = RunSpec("deit-tiny", target="gpu")
        values = {**good.to_dict(), **bad}
        # Built past every check, as a foreign pickle could carry it.
        unchecked = tuple.__new__(RunSpec, tuple(values.values()))
        paths = {
            "keywords": lambda: RunSpec(**values),
            "positional": lambda: RunSpec(*values.values()),
            "_replace": lambda: good._replace(**bad),
            "_make": lambda: RunSpec._make(values.values()),
            "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
            "copy": lambda: copy.copy(unchecked),
            "deepcopy": lambda: copy.deepcopy(unchecked),
        }
        for path, build in paths.items():
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == message, path

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_rebuilds_through_the_checks(self, protocol):
        """Protocols 0 and 1 rebuild a tuple subclass with ``tuple.__new__``
        unless it reduces through its constructor."""

        good = RunSpec("decoder[kv_tokens=512,phase=decode,tokens=1]",
                       target="gpu", attention="taylor", batch_size=3)
        unchecked = tuple.__new__(
            RunSpec, tuple({**good.to_dict(), "batch_size": 0}.values()))
        with pytest.raises(ValueError) as error:
            pickle.loads(pickle.dumps(unchecked, protocol=protocol))
        assert str(error.value) == "batch_size must be an integer >= 1, got 0"
        twin = pickle.loads(pickle.dumps(good, protocol=protocol))
        assert type(twin) is RunSpec
        assert twin == good and hash(twin) == hash(good)

    def test_to_dict_round_trip(self):
        spec = RunSpec("levit-128", target="salo", include_linear=False)
        assert RunSpec(**spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(("deit-tiny",
                                  "decoder[kv_tokens=512,phase=decode,tokens=1]")),
           target=st.sampled_from(("vitality", "gpu", "sanger")),
           attention=st.sampled_from((None,) + ATTENTION_MODES),
           batch_size=st.integers(1, 64),
           dataflow=st.sampled_from((None,) + DATAFLOWS),
           pipelined=st.sampled_from((None, False, True)),
           include_linear=st.booleans(),
           scale_to_peak=st.none() | st.floats(1e9, 1e15))
    def test_cached_hash_is_the_field_tuple_hash(self, **values):
        """A spec hashes as the tuple of its fields; ``_replace`` and
        ``deepcopy`` give equal specs that hash equal."""

        spec = RunSpec(**values)
        assert hash(spec) == hash(tuple(getattr(spec, field)
                                        for field in spec._fields))
        for twin in (spec._replace(), copy.deepcopy(spec),
                     copy.copy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and hash(twin) == hash(spec)
        bigger = spec._replace(batch_size=spec.batch_size + 1)
        assert bigger != spec
        assert hash(bigger) == hash(tuple(bigger.to_dict().values()))

    def test_unpickled_spec_hashes_under_its_own_process_salt(self):
        """String hashes are salted per process: a spec pickled under one
        ``PYTHONHASHSEED`` must hash afresh where it is unpickled, or it
        misses every dict it is looked up in there."""

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        pickled = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys\n"
             "from repro.engine import RunSpec\n"
             "spec = RunSpec('decoder[kv_tokens=512,phase=decode,tokens=1]',"
             " target='gpu', attention='taylor', batch_size=3)\n"
             "sys.stdout.buffer.write(pickle.dumps(spec))"],
            env={**env, "PYTHONHASHSEED": "1"}, capture_output=True,
            check=True).stdout
        checked = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys\n"
             "from repro.engine import RunSpec\n"
             "spec = pickle.loads(sys.stdin.buffer.read())\n"
             "fresh = RunSpec(**spec.to_dict())\n"
             "assert hash(spec) == hash(fresh), (hash(spec), hash(fresh))\n"
             "assert {fresh: 'found'}.get(spec) == 'found'\n"
             "print('ok')"],
            input=pickled, env={**env, "PYTHONHASHSEED": "2"},
            capture_output=True)
        assert checked.returncode == 0, checked.stderr.decode()
        assert checked.stdout.strip() == b"ok"

    def test_token_scaling_preserves_stage_structure(self):
        workload = get_workload("levit-128")
        scaled = scaled_to_tokens(workload, 392)
        assert len(scaled.attention_layers) == len(workload.attention_layers)
        assert max(s.tokens for s in scaled.attention_layers) == 392
        # LeViT's shrinking blocks keep kv_tokens > tokens after scaling.
        shrink = scaled.attention_layers[-1]
        assert shrink.kv_tokens > shrink.tokens

    def test_token_scaling_identity(self):
        workload = get_workload("deit-tiny")
        assert scaled_to_tokens(workload, 197) is workload


class TestTargetRegistry:
    def test_expected_targets_registered(self):
        names = list_targets()
        for required in ("vitality", "vitality-gstationary", "vitality-unpipelined",
                         "sanger", "salo", "cpu", "edge_gpu", "gpu"):
            assert required in names

    def test_unknown_target_error_lists_available(self):
        with pytest.raises(UnknownTargetError, match="vitality"):
            get_target("tpu")

    def test_peaks_positive(self):
        for name in list_targets():
            assert get_target(name).peak_macs_per_second > 0

    def test_platform_peak_matches_platform_model(self):
        assert (get_target("gpu").peak_macs_per_second
                == get_platform("gpu").peak_macs_per_second)

    def test_native_attention_mode_enforced(self):
        with pytest.raises(ValueError, match="native"):
            simulate(RunSpec("deit-tiny", target="vitality", attention="vanilla"),
                     cache=ResultCache())
        with pytest.raises(ValueError, match="native"):
            simulate(RunSpec("deit-tiny", target="sanger", attention="taylor"),
                     cache=ResultCache())

    def test_scaled_to_peak_variant(self):
        base = VitalityTarget("vitality-test")
        fast = base.simulate(RunSpec("deit-tiny",
                                     scale_to_peak=base.peak_macs_per_second * 3))
        slow = base.simulate(RunSpec("deit-tiny"))
        assert fast.end_to_end_latency < slow.end_to_end_latency

    def test_unsupported_options_rejected_not_ignored(self):
        """Baseline/platform targets must fail loudly on options they cannot
        honor rather than returning unmodified numbers."""

        for target in ("sanger", "salo", "gpu"):
            with pytest.raises(ValueError, match="does not support"):
                simulate(RunSpec("deit-tiny", target=target, scale_to_peak=1e15),
                         cache=ResultCache())
            with pytest.raises(ValueError, match="does not support"):
                simulate(RunSpec("deit-tiny", target=target, dataflow="g_stationary"),
                         cache=ResultCache())

    def test_replacing_target_evicts_its_cached_results(self):
        from repro.engine import DEFAULT_CACHE, register_target

        original = get_target("salo")
        spec = RunSpec("deit-tiny", target="salo")
        try:
            stale = simulate(spec)
            assert spec in DEFAULT_CACHE

            class Doubled:
                name = "salo"
                peak_macs_per_second = original.peak_macs_per_second

                def simulate(self, spec):
                    result = original.simulate(spec)
                    return type(result)(**{**result.__dict__,
                                           "attention_latency": result.attention_latency * 2})

            register_target(Doubled(), replace=True)
            assert spec not in DEFAULT_CACHE
            fresh = simulate(spec)
            assert fresh.attention_latency == 2 * stale.attention_latency
        finally:
            register_target(original, replace=True)


class _Doubled:
    """A stand-in backend: the wrapped target with doubled attention latency.

    Configures like its base, so ``name[knob=...]`` instances derived from
    it double too.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.knob_schema = inner.knob_schema
        self.peak_macs_per_second = inner.peak_macs_per_second

    def configured(self, name, design):
        return _Doubled(self.inner.configured(name, design))

    def canonical_spec(self, spec):
        return self.inner.canonical_spec(spec)

    def simulate(self, spec):
        result = self.inner.simulate(spec)
        return dataclasses.replace(result,
                                   attention_latency=2 * result.attention_latency)


def _outcome(run):
    """A run's result, or its error's type and message, for comparison."""

    try:
        return run()
    except (ValueError, KeyError) as error:
        return type(error), str(error)


#: Drawn by the differential test: seed and configured workloads; bare,
#: variant, configured (incl. non-canonical and reference spellings) and
#: platform targets.
_MODELS = ("deit-tiny", "deit-tiny[tokens=64]", "levit-128s",
           "encoder[tokens=128]", "decoder[kv_tokens=256,phase=decode,tokens=1]")
_TARGETS = ("vitality", "vitality-unpipelined", "vitality[pe=32x32]",
            "vitality[freq=1ghz,pe=32x32]", "vitality[pe=64x64]",
            "vitality[dram_gbps=25]", "sanger", "sanger[freq=1ghz]", "salo",
            "cpu", "gpu", "gpu[compute=2]", "edge_gpu")


class TestSpecResolutionMemo:
    """``resolve`` runs once per distinct :class:`RunSpec` per process, and a
    serving run once per shape; every observable output equals the
    unmemoised resolver's."""

    def test_replacing_a_base_target_refreshes_its_configured_names(self):
        original = get_target("vitality")
        spec = RunSpec("deit-tiny", target="vitality[pe=32x32]")
        stock = simulate(spec, cache=ResultCache())
        try:
            register_target(_Doubled(original), replace=True)
            doubled = simulate(spec, cache=ResultCache())
            assert doubled.attention_latency == 2 * stock.attention_latency
        finally:
            register_target(original, replace=True)
        assert simulate(spec, cache=ResultCache()) == stock

    def test_serve_llm_resolves_each_distinct_spec_once(self, engine_calls):
        """One resolution per distinct shape per run, then one cache lookup
        per iteration."""

        import repro.serve.llm as llm
        from repro.serve import PoissonTraffic, WorkloadMix, serve_llm

        engine_calls.watch(llm)
        resolve.cache_clear()
        cache = ResultCache()
        serve_llm(PoissonTraffic(rate=30.0, mix=WorkloadMix.of(["decoder"])),
                  fleet="2xvitality", duration=1.0, output_tokens=8, seed=0,
                  cache=cache)
        resolutions = resolve.cache_info()
        resolved, lookups = engine_calls.resolved, engine_calls.lookups
        assert resolutions.misses == len(set(resolved)) == len(resolved) \
            == len(set(lookups)) < len(lookups)
        assert resolutions.hits + resolutions.misses == len(resolved)
        stats = cache.stats()
        assert len(lookups) == stats.hits + stats.misses

    @pytest.mark.parametrize("run", ["serve", "serve_llm"])
    def test_a_target_re_registered_between_runs_serves_the_next(self, run):
        """Runs hold each shape's resolved target for the run only: the run
        after a re-registration simulates on the new backend, and the run
        after restoring the original reproduces the first."""

        from repro.serve import PoissonTraffic, WorkloadMix, serve, serve_llm

        if run == "serve":
            traffic = PoissonTraffic(rate=200.0,
                                     mix=WorkloadMix.of(["deit-tiny"]))
            serve_once = lambda: serve(traffic, "2xvitality", duration=0.5,
                                       seed=0, cache=ResultCache())
        else:
            traffic = PoissonTraffic(rate=30.0, mix=WorkloadMix.of(["decoder"]))
            serve_once = lambda: serve_llm(traffic, fleet="2xvitality",
                                           duration=1.0, output_tokens=8,
                                           seed=0, cache=ResultCache())

        class Slowed(_Doubled):
            """Doubles the end-to-end latency, which a serving report shows,
            and counts its simulations."""

            calls = 0

            def simulate(self, spec):
                Slowed.calls += 1
                result = self.inner.simulate(spec)
                return dataclasses.replace(
                    result, end_to_end_latency=2 * result.end_to_end_latency)

        original = get_target("vitality")
        stock = serve_once()
        try:
            register_target(Slowed(original), replace=True)
            slowed = serve_once()
        finally:
            register_target(original, replace=True)
        assert Slowed.calls == slowed.cache.misses > 0
        assert slowed.latency.mean > stock.latency.mean
        assert serve_once().to_json() == stock.to_json()
        assert Slowed.calls == slowed.cache.misses

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(_MODELS), target=st.sampled_from(_TARGETS),
           batch_size=st.integers(1, 4),
           attention=st.sampled_from((None, "vanilla", "taylor")),
           scale_to_peak=st.sampled_from((None, 1e9, 1e15)))
    def test_memoised_resolution_matches_the_resolver(
            self, model, target, batch_size, attention, scale_to_peak):
        spec = RunSpec(model, target=target, batch_size=batch_size,
                       attention=attention, scale_to_peak=scale_to_peak)
        resolved_target, canonical = resolve.__wrapped__(spec)
        assert canonicalise_spec(spec) == canonical
        assert resolve(spec)[0] is resolved_target
        memoised, reference = ResultCache(), ResultCache()
        for _ in range(2):              # a result-cache miss, then a hit
            resolved_target, canonical = resolve.__wrapped__(spec)
            assert (_outcome(lambda: simulate(spec, cache=memoised))
                    == _outcome(lambda: reference.get_or_run(
                        canonical, resolved_target.simulate)))
        assert memoised.stats() == reference.stats()


class TestEngineMatchesHardwareModels:
    """The engine is a facade: its numbers are the hardware models' numbers."""

    def test_vitality_run_matches_direct_accelerator(self):
        workload = get_workload("deit-tiny")
        attention_latency, attention_energy, linear_latency, linear_energy, layers = (
            run_model(ViTALiTyAccelerator(), workload))
        engine = simulate(RunSpec("deit-tiny", target="vitality"), cache=ResultCache())
        assert engine.attention_latency == attention_latency
        assert engine.end_to_end_latency == attention_latency + linear_latency
        assert engine.end_to_end_energy == attention_energy + linear_energy
        assert engine.layers == layers

    def test_sanger_run_matches_direct_accelerator(self):
        workload = get_workload("levit-128")
        attention_latency, attention_energy, _, linear_energy, layers = run_model(
            SangerAccelerator(), workload)
        engine = simulate(RunSpec("levit-128", target="sanger"), cache=ResultCache())
        assert engine.attention_latency == attention_latency
        assert engine.end_to_end_energy == attention_energy + linear_energy
        assert engine.layers == layers

    def test_platform_run_matches_direct_platform(self):
        workload = get_workload("deit-tiny")
        platform = get_platform("edge_gpu")
        engine = simulate(RunSpec("deit-tiny", target="edge_gpu"), cache=ResultCache())
        assert engine.end_to_end_latency == platform.end_to_end_latency(workload)
        assert engine.end_to_end_energy == platform.end_to_end_energy(workload)

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("include_linear", [True, False])
    @pytest.mark.parametrize("model", ["deit-tiny", "deit-base", "levit-128",
                                       "mobilevit-xs", "decoder"])
    @pytest.mark.parametrize("target", ["vitality", "vitality-gstationary",
                                        "vitality-unpipelined",
                                        "vitality[dram_gbps=25]",
                                        "vitality[pe=32x32,dram_gbps=8]"])
    def test_vitality_breakdown_partitions_attention_energy(
            self, target, model, include_linear, batch_size):
        """Table V's three categories split the attention energy: together
        they add up to it, to within float rounding."""

        result = simulate(RunSpec(model, target=target, include_linear=include_linear,
                                  batch_size=batch_size), cache=ResultCache())
        breakdown = result.breakdown()
        assert list(breakdown) == ["data_access", "other_processors", "systolic_array"]
        total = (breakdown["data_access"] + breakdown["other_processors"]
                 + breakdown["systolic_array"])
        assert total == pytest.approx(result.attention_energy, rel=1e-12, abs=0.0)

    def test_variant_targets_match_spec_overrides(self):
        cache = ResultCache()
        via_variant = simulate(RunSpec("deit-tiny", target="vitality-unpipelined",
                                       include_linear=False), cache=cache)
        via_override = simulate(RunSpec("deit-tiny", target="vitality", pipelined=False,
                                        include_linear=False), cache=cache)
        assert via_variant.attention_latency == via_override.attention_latency


class TestResultCache:
    def test_same_spec_simulated_once(self):
        cache = ResultCache()
        calls = []

        def runner(spec):
            calls.append(spec)
            return simulate(spec, cache=ResultCache())

        spec = RunSpec("deit-tiny", target="salo")
        first = cache.get_or_run(spec, runner)
        second = cache.get_or_run(spec, runner)
        assert len(calls) == 1
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_noop_options_share_one_cache_entry(self):
        """Options a target provably ignores must not fork the cache."""

        cache = ResultCache()
        # vitality: scaling to a peak below the native one is a no-op.
        native_peak = get_target("vitality").peak_macs_per_second
        simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        simulate(RunSpec("deit-tiny", target="vitality", scale_to_peak=native_peak / 2),
                 cache=cache)
        # salo models attention only, so include_linear is a no-op.
        simulate(RunSpec("deit-tiny", target="salo"), cache=cache)
        simulate(RunSpec("deit-tiny", target="salo", include_linear=False), cache=cache)
        # platforms: attention=None means vanilla.
        simulate(RunSpec("deit-tiny", target="cpu"), cache=cache)
        simulate(RunSpec("deit-tiny", target="cpu", attention="vanilla"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (3, 3)

    def test_simulate_uses_cache(self):
        cache = ResultCache()
        spec = RunSpec("deit-tiny", target="vitality", include_linear=False)
        simulate(spec, cache=cache)
        simulate(spec, cache=cache)
        simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert 0 < stats.hit_rate < 1

    def test_clear(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny", target="salo"), cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 0

    def test_lru_bound_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        specs = [RunSpec("deit-tiny", target="salo"),
                 RunSpec("deit-small", target="salo"),
                 RunSpec("levit-128", target="salo")]
        for spec in specs:
            simulate(spec, cache=cache)
        assert len(cache) == 2
        assert specs[0] not in cache         # least recently used went first
        assert specs[1] in cache and specs[2] in cache
        stats = cache.stats()
        assert (stats.evictions, stats.max_entries) == (1, 2)

    def test_lru_hit_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        first = RunSpec("deit-tiny", target="salo")
        second = RunSpec("deit-small", target="salo")
        simulate(first, cache=cache)
        simulate(second, cache=cache)
        simulate(first, cache=cache)         # hit: first is now most recent
        simulate(RunSpec("levit-128", target="salo"), cache=cache)
        assert first in cache
        assert second not in cache

    def test_unbounded_cache_never_evicts(self):
        cache = ResultCache()
        for model in list_workloads():
            simulate(RunSpec(model, target="salo"), cache=cache)
        stats = cache.stats()
        assert stats.evictions == 0
        assert stats.max_entries is None
        assert stats.size == len(list_workloads())

    def test_lru_validation_and_stats_dict(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)
        cache = ResultCache(max_entries=1)
        simulate(RunSpec("deit-tiny", target="salo"), cache=cache)
        payload = cache.stats().to_dict()
        assert payload["size"] == 1
        assert payload["max_entries"] == 1
        assert payload["hit_rate"] == 0.0
        cache.clear()
        assert cache.stats().evictions == 0


class TestSweep:
    def test_explicit_empty_models_yields_empty_sweep(self):
        """An explicitly empty model selection must not fan out to all models."""

        outcome = Sweep().models().targets("vitality").run(cache=ResultCache())
        assert outcome.results == ()

    def test_cross_product_expansion(self):
        specs = list(Sweep().models("deit-tiny", "levit-128")
                     .targets("vitality", "sanger").expand())
        assert len(specs) == 4
        assert {(s.model, s.target) for s in specs} == {
            ("deit-tiny", "vitality"), ("deit-tiny", "sanger"),
            ("levit-128", "vitality"), ("levit-128", "sanger"),
        }

    def test_all_models_times_two_targets_hits_cache_on_second_pass(self):
        """The acceptance scenario: 7 models x 2 targets, second pass all hits."""

        cache = ResultCache()
        builder = Sweep().all_models().targets("vitality", "sanger")
        first = builder.run(cache=cache)
        expected = len(list_workloads()) * 2
        assert len(first.results) == expected
        assert (first.misses, first.hits) == (expected, 0)
        second = builder.run(cache=cache)
        assert (second.misses, second.hits) == (0, expected)
        assert [r.end_to_end_latency for r in second.results] == \
               [r.end_to_end_latency for r in first.results]

    def test_over_models_and_over_targets_accept_iterables(self):
        """The builder path fleet specs share: iterables in, duplicates out."""

        from_iterables = Sweep().over_models(["deit-tiny", "deit-tiny"]) \
                                .over_targets(("vitality", "sanger", "vitality"))
        from_varargs = Sweep().over_models("deit-tiny") \
                              .over_targets("vitality", "sanger")
        assert list(from_iterables.expand()) == list(from_varargs.expand())
        assert len(list(from_iterables.expand())) == 2

    def test_over_models_rejects_non_names(self):
        with pytest.raises(TypeError, match="over_models"):
            Sweep().over_models([1, 2])
        with pytest.raises(TypeError, match="over_targets"):
            Sweep().over_targets(["vitality", None])

    def test_rows_and_dict(self):
        outcome = Sweep().models("deit-tiny").targets("salo").run(cache=ResultCache())
        rows = outcome.to_rows()
        assert rows[0]["model"] == "deit-tiny"
        assert rows[0]["target"] == "salo"
        payload = outcome.to_dict()
        assert payload["cache"]["misses"] == 1

    def test_convenience_function(self):
        outcome = sweep(["deit-tiny"], ["vitality", "salo"], cache=ResultCache(),
                        include_linear=False)
        assert len(outcome.results) == 2
        assert all(r.linear_latency == 0.0 for r in outcome.results)

    def test_unknown_axis_rejected(self):
        with pytest.raises(TypeError):
            sweep(["deit-tiny"], ["vitality"], cache=ResultCache(), colour=["red"])
        # Sweep method names that are not axes must not be invocable either.
        with pytest.raises(TypeError):
            sweep(["deit-tiny"], ["vitality"], cache=ResultCache(), run=[])


class TestRunResult:
    def test_batch_scales_linearly(self):
        cache = ResultCache()
        one = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        four = simulate(RunSpec("deit-tiny", target="vitality", batch_size=4), cache=cache)
        assert four.end_to_end_latency == pytest.approx(4 * one.end_to_end_latency)
        assert four.end_to_end_energy == pytest.approx(4 * one.end_to_end_energy)

    def test_token_override_increases_latency(self):
        cache = ResultCache()
        base = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        longer = simulate(RunSpec("deit-tiny[tokens=788]", target="vitality"), cache=cache)
        assert longer.end_to_end_latency > base.end_to_end_latency

    def test_salo_has_no_linear_component(self):
        result = simulate(RunSpec("deit-tiny", target="salo"), cache=ResultCache())
        assert result.linear_latency == 0.0
        assert result.end_to_end_latency == result.attention_latency

    def test_layer_records_cover_workload(self):
        workload = get_workload("deit-tiny")
        result = simulate(RunSpec("deit-tiny", target="vitality"), cache=ResultCache())
        expected = len(workload.attention_layers) + len(workload.linear_layers)
        assert len(result.layers) == expected
        attention = [layer for layer in result.layers if layer.kind == "attention"]
        assert attention and all(layer.steps for layer in attention)

    def test_json_serialisation(self):
        result = simulate(RunSpec("deit-tiny", target="edge_gpu", attention="taylor",
                                  include_linear=False), cache=ResultCache())
        payload = json.loads(result.to_json(include_layers=True))
        assert payload["target"] == "edge_gpu"
        assert payload["end_to_end_latency"] == pytest.approx(result.end_to_end_latency)
        step_names = [step["name"] for step in payload["layers"][0]["steps"]]
        assert len(step_names) == 6   # the six Taylor-attention steps


def _records() -> list:
    """One record of each type, as a memsim run builds them."""

    result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                      cache=ResultCache())
    layer = result.layers[0]
    return [layer.steps[0], layer, result.roofline[0],
            TilePlan(tile_m=64, tile_k=32, tile_n=16)]


class TestRecords:
    """The per-step, per-layer, roofline and tile-plan records are values:
    immutable, and unchanged by pickle at every protocol and by deepcopy."""

    def test_each_type_is_covered(self):
        assert [type(record) for record in _records()] == [
            StepRecord, LayerRecord, RooflineRecord, TilePlan]

    @pytest.mark.parametrize("index", range(4))
    def test_assignment_raises_attribute_error(self, index):
        record = _records()[index]
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize("index", range(4))
    def test_pickle_and_deepcopy_return_an_equal_record(self, index):
        record = _records()[index]
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies.append(copy.deepcopy(record))
        for clone in copies:
            assert type(clone) is type(record)
            assert clone == record
            # The repr names every nested type and field value.
            assert repr(clone) == repr(record)

    def test_tile_plan_builds_from_keywords(self):
        plan = TilePlan(tile_m=64, tile_k=32, tile_n=16)
        assert (plan.tile_m, plan.tile_k, plan.tile_n) == (64, 32, 16)
