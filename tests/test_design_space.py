"""Tests for the parametric microarchitecture core and design-space stack:
knob parsing round-trips, configured targets, seed-equivalence goldens,
parallel sweeps, the disk cache and the DSE Pareto frontier."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.engine import (
    DiskResultCache,
    ResultCache,
    RunSpec,
    Sweep,
    UnknownTargetError,
    canonicalise_spec,
    get_target,
    simulate,
    split_configured_names,
    sweep,
)
from repro.engine.results import RunResult
from repro.experiments import run_experiment
from repro.experiments.dse_exps import explore_design_space, pareto_frontier
from repro.hardware import (
    KnobConfig,
    KnobError,
    SALO_SCHEMA,
    SANGER_SCHEMA,
    VITALITY_SCHEMA,
    ViTALiTyAcceleratorConfig,
    build_vitality_config,
)
from repro.serve import Fleet

GOLDEN_PATH = Path(__file__).parent / "data" / "seed_hardware_golden.json"


class TestKnobParsing:
    @pytest.mark.parametrize("text", [
        "pe=32x32,freq=1ghz",
        "freq=433mhz",
        "pe=16x64,sram_kb=400,dram_pj=45.5",
        "util=0.9,freq=750mhz",
    ])
    def test_parse_render_parse_round_trip(self, text):
        config = VITALITY_SCHEMA.parse(text)
        rendered = VITALITY_SCHEMA.render(config)
        assert VITALITY_SCHEMA.parse(rendered) == config

    def test_knob_order_is_normalised(self):
        assert (VITALITY_SCHEMA.parse("freq=1ghz,pe=32x32")
                == VITALITY_SCHEMA.parse("pe=32x32,freq=1ghz"))

    def test_reference_values_are_dropped(self):
        config = VITALITY_SCHEMA.parse("pe=64x64,freq=500mhz,util=0.85,sram_kb=200")
        assert config.is_reference
        assert VITALITY_SCHEMA.render(config) == ""

    def test_frequency_spellings(self):
        assert VITALITY_SCHEMA.parse("freq=1ghz") == VITALITY_SCHEMA.parse("freq=1000mhz")
        assert VITALITY_SCHEMA.parse("freq=250mhz").get("freq") == 250e6
        assert VITALITY_SCHEMA.parse("freq=2.5e8") == VITALITY_SCHEMA.parse("freq=250mhz")

    def test_config_is_hashable_and_order_insensitive(self):
        a = SANGER_SCHEMA.parse("density=0.2,pe=32x8")
        b = SANGER_SCHEMA.parse("pe=32x8,density=0.2")
        assert hash(a) == hash(b)
        assert a.get("density") == 0.2
        assert "pe" in a and "freq" not in a

    @pytest.mark.parametrize("text,fragment", [
        ("pew=2", "unknown knob 'pew'"),
        ("pe=32", "ROWSxCOLS"),
        ("pe=0x8", ">= 1"),
        ("freq=fast", "frequency"),
        ("freq=-5mhz", "positive"),
        ("freq=nan", "finite and positive, got 'nan'"),
        ("freq=inf", "finite and positive, got 'inf'"),
        ("freq=infghz", "finite and positive, got 'infghz'"),
        ("util=1.5", "fraction"),
        ("util=nan", "finite positive number, got 'nan'"),
        ("util=inf", "finite positive number, got 'inf'"),
        ("sram_kb=nope", "positive integer"),
        ("pe", "knob=value"),
        ("pe=32x32,pe=64x64", "duplicate knob"),
    ])
    def test_invalid_knobs_raise_actionable_errors(self, text, fragment):
        with pytest.raises(KnobError) as excinfo:
            VITALITY_SCHEMA.parse(text)
        assert fragment in str(excinfo.value)

    def test_unknown_knob_error_lists_valid_knobs(self):
        with pytest.raises(KnobError) as excinfo:
            SALO_SCHEMA.parse("density=0.5")
        assert "window" in str(excinfo.value) and "global" in str(excinfo.value)

    def test_family_mismatch_rejected(self):
        with pytest.raises(KnobError, match="family"):
            build_vitality_config(KnobConfig("sanger", (("pe", (8, 8)),)))


class TestConfiguredTargets:
    def test_spellings_share_one_instance(self):
        a = get_target("vitality[pe=32x32,freq=1ghz]")
        b = get_target("vitality[freq=1ghz,pe=32x32]")
        assert a is b
        assert a.name == "vitality[freq=1ghz,pe=32x32]"

    def test_reference_knobs_resolve_to_base_target(self):
        assert get_target("vitality[pe=64x64,freq=500mhz]") is get_target("vitality")
        assert get_target("sanger[]") is get_target("sanger")

    def test_every_family_is_configurable(self):
        assert get_target("sanger[density=0.2]").name == "sanger[density=0.2]"
        assert get_target("salo[window=128,global=8]").peak_macs_per_second > 0
        slow = get_target("gpu[compute=0.5]")
        assert slow.peak_macs_per_second == get_target("gpu").peak_macs_per_second / 2

    def test_unknown_base_and_bad_knob_errors(self):
        with pytest.raises(UnknownTargetError, match="tpu"):
            get_target("tpu[pe=1x1]")
        with pytest.raises(KnobError, match="unknown knob"):
            get_target("salo[density=0.5]")

    @pytest.mark.parametrize("name,fragment", [
        ("gpu[power=nan]", "knob 'power': expected a finite positive number, "
                           "got 'nan'"),
        ("gpu[power=inf]", "got 'inf'"),
        ("gpu[compute=-inf]", "got '-inf'"),
        ("gpu[launch_us=nan]", "got 'nan'"),
        ("gpu[util=nan]", "unknown knob 'util'"),
        ("sanger[util=nan]", "knob 'util': expected a finite positive "
                             "number, got 'nan'"),
        ("salo[util=inf]", "knob 'util': expected a finite positive number, "
                           "got 'inf'"),
    ])
    def test_non_finite_knob_values_fail_naming_the_text(self, name, fragment):
        """nan passes a bare ``value <= 0`` test: unchecked,
        ``gpu[power=nan]`` simulates nan energy."""

        with pytest.raises(KnobError) as excinfo:
            get_target(name)
        assert fragment in str(excinfo.value)

    def test_variant_targets_accept_knobs(self):
        target = get_target("vitality-unpipelined[pe=32x32]")
        result = target.simulate(RunSpec("deit-tiny", include_linear=False))
        base = get_target("vitality[pe=32x32]").simulate(
            RunSpec("deit-tiny", include_linear=False))
        assert result.attention_latency > base.attention_latency

    def test_canonical_spec_rewrites_target_name(self):
        spec = canonicalise_spec(RunSpec("deit-tiny", target="vitality[freq=1ghz,pe=32x32]"))
        assert spec.target == "vitality[freq=1ghz,pe=32x32]"
        reference = canonicalise_spec(RunSpec("deit-tiny", target="vitality[pe=64x64]"))
        assert reference.target == "vitality"

    def test_spellings_share_cache_entries(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny", target="vitality[pe=32x32,freq=1ghz]"), cache=cache)
        simulate(RunSpec("deit-tiny", target="vitality[freq=1ghz,pe=32x32]"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_result_carries_config(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[pe=32x32]"),
                          cache=ResultCache())
        assert result.config == "pe=32x32"
        assert json.loads(result.to_json())["config"] == "pe=32x32"
        reference = simulate(RunSpec("deit-tiny", target="vitality"), cache=ResultCache())
        assert reference.config == ""

    def test_design_points_change_the_physics(self):
        cache = ResultCache()
        base = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        narrow = simulate(RunSpec("deit-tiny", target="vitality[pe=32x32]"), cache=cache)
        fast = simulate(RunSpec("deit-tiny", target="vitality[freq=1ghz]"), cache=cache)
        assert narrow.end_to_end_latency > base.end_to_end_latency
        assert fast.end_to_end_latency < base.end_to_end_latency
        assert get_target("vitality[pe=32x32]").area_mm2 < get_target("vitality").area_mm2

    def test_memory_knobs_shape_energy_only(self):
        cache = ResultCache()
        base = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        cheap = simulate(RunSpec("deit-tiny", target="vitality[dram_pj=10]"), cache=cache)
        assert cheap.end_to_end_latency == base.end_to_end_latency
        assert cheap.end_to_end_energy < base.end_to_end_energy


@pytest.mark.usefixtures("no_float_sum")
class TestSeedEquivalence:
    """Default-config targets must reproduce the seed outputs bit-identically.

    The golden file was generated by the pre-refactor (seed) hardware models;
    every value is compared exactly, not approximately — the parametric core
    moved the arithmetic, not the numbers.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("experiment", ["fig11", "fig12", "tab5", "salo", "table2"])
    def test_experiment_matches_seed_bit_identically(self, golden, experiment):
        if experiment == "table2":
            current = run_experiment("tab2")
        else:
            current = run_experiment(experiment)
        assert json.loads(json.dumps(current)) == golden[experiment]

    def test_explicit_reference_design_point_is_bit_identical(self):
        cache = ResultCache()
        reference = simulate(RunSpec("deit-base", target="vitality"), cache=cache)
        explicit = simulate(
            RunSpec("deit-base",
                    target="vitality[pe=64x64,freq=500mhz,sram_kb=200,util=0.85]"),
            cache=ResultCache())
        assert explicit.end_to_end_latency == reference.end_to_end_latency
        assert explicit.end_to_end_energy == reference.end_to_end_energy
        assert explicit.breakdown() == reference.breakdown()

    def test_builder_reference_configs_are_the_reference_objects(self):
        assert build_vitality_config(None) == ViTALiTyAcceleratorConfig()
        assert build_vitality_config(VITALITY_SCHEMA.parse("")) is build_vitality_config(None)


class TestParallelSweep:
    def _builder(self):
        return (Sweep().models("deit-tiny", "levit-128")
                .targets("vitality", "salo")
                .over_configs("", "pe=32x32"))

    def test_jobs_match_serial_exactly(self):
        serial = self._builder().run(cache=ResultCache())
        parallel = self._builder().run(cache=ResultCache(), jobs=2)
        assert serial.specs == parallel.specs
        assert serial.results == parallel.results
        assert (serial.hits, serial.misses) == (parallel.hits, parallel.misses)

    def test_parallel_warm_cache_all_hits(self):
        cache = ResultCache()
        self._builder().run(cache=cache)
        second = self._builder().run(cache=cache, jobs=2)
        assert second.misses == 0
        assert second.hits == len(second.results)

    def test_over_configs_expansion(self):
        specs = list(Sweep().models("deit-tiny").targets("vitality", "sanger")
                     .over_configs("", "freq=1ghz").expand())
        assert [spec.target for spec in specs] == [
            "vitality", "vitality[freq=1ghz]", "sanger", "sanger[freq=1ghz]"]

    def test_over_configs_rejects_preconfigured_targets(self):
        with pytest.raises(ValueError, match="already-configured"):
            list(Sweep().models("deit-tiny").targets("vitality[pe=32x32]")
                 .over_configs("freq=1ghz").expand())

    def test_locally_registered_targets_simulate_in_process(self):
        """Specs a fresh worker could not resolve must not be shipped out:
        a replaced built-in has to answer with the replacement's numbers
        even under jobs > 1."""

        from repro.engine import register_target

        original = get_target("salo")
        try:
            class Doubled:
                name = "salo"
                knob_schema = original.knob_schema
                peak_macs_per_second = original.peak_macs_per_second

                def canonical_spec(self, spec):
                    return original.canonical_spec(spec)

                def simulate(self, spec):
                    result = original.simulate(spec)
                    return type(result)(**{**result.__dict__,
                                           "attention_latency": result.attention_latency * 2})

            register_target(Doubled(), replace=True)
            outcome = (Sweep().models("deit-tiny").targets("salo")
                       .run(cache=ResultCache(), jobs=2))
            stock = original.simulate(canonicalise_spec(RunSpec("deit-tiny", target="salo")))
            assert outcome.results[0].attention_latency == 2 * stock.attention_latency
        finally:
            register_target(original, replace=True)

    def test_eviction_fallback_stays_off_the_default_cache(self):
        """A bounded private cache that evicts a repeat's first occurrence
        mid-replay must re-simulate inline, not leak runs into the
        process-global default cache."""

        from repro.engine import cache_stats

        bounded = ResultCache(max_entries=1)
        # Two spellings of one design point plus an interloper: the replay
        # sees [X, Y, X], and Y's insertion evicts X before its repeat.
        builder = (Sweep().models("deit-tiny")
                   .targets("vitality[pe=32x32]", "salo",
                            "vitality[freq=500mhz,pe=32x32]")
                   .attention_only())
        simulate(RunSpec("deit-tiny", target="vitality[pe=32x32]",
                         include_linear=False), cache=bounded)
        before = cache_stats()
        outcome = builder.run(cache=bounded, jobs=2)
        after = cache_stats()
        assert (after.size, after.misses) == (before.size, before.misses)
        assert outcome.results[0] == outcome.results[2]


#: ``jobs`` values that are not None or an integer >= 1.
BAD_JOBS = [-1, 0, 2.5, math.nan, True]
BAD_JOBS_IDS = ["minus-one", "zero", "2.5", "nan", "True"]


class TestJobsMustBeACount:
    """Unchecked, ``jobs=2.5`` died inside the pool with a TypeError, and
    -1, 0, nan and True silently ran serially."""

    @pytest.mark.parametrize("jobs", BAD_JOBS, ids=BAD_JOBS_IDS)
    @pytest.mark.parametrize("run", [
        lambda jobs, cache: (Sweep().models("deit-tiny", "levit-128")
                             .targets("vitality", "sanger")
                             .run(cache=cache, jobs=jobs)),
        lambda jobs, cache: sweep(["deit-tiny", "levit-128"],
                                  ["vitality", "sanger"], cache=cache,
                                  jobs=jobs),
        lambda jobs, cache: explore_design_space(
            pe=("32x32", "64x64"), freq=("1ghz",), sram_kb=(200,),
            cache=cache, jobs=jobs),
    ], ids=["Sweep.run", "sweep", "explore_design_space"])
    def test_fails_before_any_simulation(self, run, jobs):
        cache = ResultCache()
        with pytest.raises(ValueError, match=r"jobs must be None or an "
                                             r"integer >= 1, got"):
            run(jobs, cache)
        assert cache.stats().hits == cache.stats().misses == 0

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--models", "deit-tiny", "--targets", "vitality,sanger"],
        ["dse", "--pe", "32x32,64x64", "--freq", "1ghz", "--sram-kb", "200"],
    ], ids=["sweep", "dse"])
    def test_commands_exit_2(self, command, jobs, capsys):
        assert main([*command, f"--jobs={jobs}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"jobs must be None or an integer >= 1, got {jobs}" \
            in captured.err


class TestDiskCache:
    def test_results_survive_across_instances(self, tmp_path):
        spec = RunSpec("deit-tiny", target="vitality[pe=32x32]")
        first = DiskResultCache(tmp_path)
        original = simulate(spec, cache=first)
        assert first.stats().disk_hits == 0
        second = DiskResultCache(tmp_path)          # fresh process stand-in
        restored = simulate(spec, cache=second)
        assert restored == original                 # layers, steps and all
        assert second.stats().disk_hits == 1
        assert spec in second

    def test_corrupt_entries_are_resimulated(self, tmp_path):
        spec = RunSpec("deit-tiny", target="salo")
        cache = DiskResultCache(tmp_path)
        expected = simulate(spec, cache=cache)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        fresh = DiskResultCache(tmp_path)
        assert simulate(spec, cache=fresh) == expected
        assert fresh.stats().disk_hits == 0

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        simulate(RunSpec("deit-tiny", target="salo"), cache=cache)
        assert list(tmp_path.glob("*.json"))
        cache.clear()
        assert not list(tmp_path.glob("*.json"))

    def test_parallel_sweep_composes_with_disk_cache(self, tmp_path):
        builder = Sweep().models("deit-tiny").targets("vitality") \
                         .over_configs("pe=32x32", "pe=48x48")
        first = builder.run(cache=DiskResultCache(tmp_path), jobs=2)
        warm = DiskResultCache(tmp_path)
        second = builder.run(cache=warm, jobs=2)
        assert second.results == first.results
        assert warm.stats().disk_hits == len(second.results)

    def test_run_result_dict_round_trip(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[freq=1ghz]"),
                          cache=ResultCache())
        payload = json.loads(json.dumps(result.to_dict(include_layers=True)))
        assert RunResult.from_dict(payload) == result


def _all_any_frontier(points, keys):
    """The definition ``pareto_frontier`` had before it read each point's
    coordinates once, kept verbatim."""

    frontier = []
    for point in points:
        dominated = any(
            all(other[key] <= point[key] for key in keys)
            and any(other[key] < point[key] for key in keys)
            for other in points if other is not point
        )
        if not dominated:
            frontier.append(point)
    return sorted(frontier, key=lambda point: tuple(point[key] for key in keys))


#: A small pool, so that ties on one key, equal coordinates, signed zeros,
#: infinities and nans (two distinct objects) are all common.
_COORDINATES = st.sampled_from(
    [-math.inf, -2.5, -1, -0.0, 0.0, 0, 1, 1.5, 2, 3.25, math.inf,
     math.nan, float("nan")])


@st.composite
def _point_clouds(draw):
    """``(points, keys)``: up to 10 drawn points plus up to 4 more, each the
    same dict object as a drawn point or a copy of one (equal coordinates,
    distinct objects), in a drawn order."""

    keys = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    points = draw(st.lists(
        st.fixed_dictionaries({key: _COORDINATES for key in keys}), max_size=10))
    if points:
        for index, same in draw(st.lists(
                st.tuples(st.integers(0, len(points) - 1), st.booleans()),
                max_size=4)):
            points.append(points[index] if same else dict(points[index]))
    return draw(st.permutations(points)), keys


class TestDesignSpaceExploration:
    @settings(max_examples=400, deadline=None)
    @given(cloud=_point_clouds())
    @example(cloud=([{"a": 1.0, "b": 2.0}] * 2 + [{"a": 1.0, "b": 2.0}],
                    ("a", "b")))
    @example(cloud=([{"a": -0.0, "b": 1}, {"a": 0.0, "b": 1}, {"a": 0, "b": 0.5}],
                    ("a", "b")))
    @example(cloud=([{"a": math.inf, "b": 0.0}, {"a": 1.0, "b": math.inf},
                     {"a": math.inf, "b": math.inf}, {"a": 1.0, "b": 1.0}],
                    ("a", "b")))
    def test_pareto_frontier_matches_the_all_any_definition(self, cloud):
        points, keys = cloud
        frontier = pareto_frontier(points, keys)
        expected = _all_any_frontier(points, keys)
        # The same point objects, in the same order.
        assert [id(point) for point in frontier] == [id(point) for point in expected]

    def test_pareto_frontier_drops_dominated_points(self):
        points = [
            {"name": "a", "latency": 1.0, "energy": 2.0},
            {"name": "b", "latency": 2.0, "energy": 1.0},
            {"name": "c", "latency": 2.0, "energy": 2.0},   # dominated by a and b
        ]
        frontier = pareto_frontier(points, ("latency", "energy"))
        assert [point["name"] for point in frontier] == ["a", "b"]

    def test_tiny_space_emits_valid_frontier(self):
        payload = explore_design_space(pe=("32x32", "64x64"),
                                       freq=("500mhz", "1ghz"),
                                       sram_kb=(200,), cache=ResultCache())
        assert payload["evaluated"] == 4
        assert payload["objectives"] == ["latency_ms", "energy_mj", "area_mm2"]
        assert payload["pareto_frontier"]
        json.dumps(payload)                         # JSON-serialisable end to end
        frontier = payload["pareto_frontier"]
        for point in frontier:
            assert point["pareto"] is True
            assert point["latency_ms"] > 0 and point["area_mm2"] > 0
        # No frontier point may dominate another frontier point.
        for point in frontier:
            for other in frontier:
                if other is point:
                    continue
                assert not (all(other[k] <= point[k] for k in payload["objectives"])
                            and any(other[k] < point[k] for k in payload["objectives"]))

    def test_three_knob_space_with_parallel_jobs(self):
        payload = explore_design_space(pe=("32x32", "64x64"), freq=("500mhz", "1ghz"),
                                       sram_kb=(100, 200), jobs=2, cache=ResultCache())
        assert payload["evaluated"] == 8
        assert {point["target"] for point in payload["points"]} >= {"vitality"}
        assert payload["pareto_frontier"]

    def test_registered_as_experiment(self):
        payload = run_experiment("dse", pe=("32x32",), freq=("1ghz",),
                                 sram_kb=(200,), cache=ResultCache())
        assert payload["evaluated"] == 1
        assert payload["points"][0]["pareto"] is True


class TestConfiguredFleets:
    def test_split_configured_names(self):
        assert split_configured_names("vitality[pe=32x32,freq=1ghz],sanger") == (
            "vitality[pe=32x32,freq=1ghz]", "sanger")
        assert split_configured_names(" a , b ") == ("a", "b")
        assert split_configured_names("") == ()

    def test_fleet_mixes_design_points(self):
        fleet = Fleet.parse("2xvitality[pe=32x32,freq=1ghz],1xvitality")
        assert len(fleet.replicas) == 3
        labels = [replica.spec.target for replica in fleet.replicas]
        assert labels.count("vitality[pe=32x32,freq=1ghz]") == 2
        assert labels.count("vitality") == 1

    def test_fleet_configured_platform_with_attention_pin(self):
        fleet = Fleet.parse("1xgpu[compute=0.5]:taylor")
        spec = fleet.replicas[0].spec
        assert spec.target == "gpu[compute=0.5]"
        assert spec.attention == "taylor"

    def test_fleet_rejects_bad_knobs_at_parse_time(self):
        with pytest.raises(KnobError, match="unknown knob"):
            Fleet.parse("2xvitality[warp=9]")
