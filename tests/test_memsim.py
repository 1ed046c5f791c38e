"""Tests for the tile-level memory-hierarchy simulator (``repro.hardware.memsim``):
knob-grammar edge cases, activation gating and cache identity, stall/roofline
physics, the closed-form pipeline against a pass-by-pass oracle, input
validation, golden pinning, JSON shapes and the bandwidth-aware DSE axis."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import ResultCache, RunSpec, get_target, simulate
from repro.engine.results import RunResult
from repro.experiments import run_experiment
from repro.experiments.dse_exps import explore_design_space, roofline_experiment
from repro.hardware import (
    KnobError,
    SystolicArray,
    VITALITY_SCHEMA,
    build_vitality_config,
    matmul_cycles,
    run_model,
)
from repro.hardware.memsim import (
    GemmMemTrace,
    MemSimConfig,
    MemSimViTALiTyAccelerator,
    TiledSystolicArray,
    buffer_words,
    simulate_tiled_gemm,
)
from repro.hardware.memsim.config import TilePlan
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "memsim_golden.json"
SEED_GOLDEN_PATH = Path(__file__).parent / "data" / "seed_hardware_golden.json"

#: The two design points ``memsim_golden.json`` pins through ``to_dict()``.
POINT_GOLDENS = ("vitality[dram_gbps=25]", "vitality[pe=128x128,dram_gbps=25]")

#: Runs ``memsim_golden.json`` pins through ``to_dict(include_layers=True)``,
#: one per branch of the tile pipeline and the per-layer roofline records:
#: tiles that leave a remainder on m, k and n (several m-chunks); tile knobs
#: at ideal bandwidth; SRAM-resident streamed operands; a buffer small enough
#: to shrink ``tile_n``; a PE array scaled to a peak; the G-stationary and
#: unpipelined variants; a batch; attention layers only; and a decode step.
LAYER_GOLDENS = {
    "tile-remainders": RunSpec(
        "deit-tiny", target="vitality[dram_gbps=25,tile_m=50,tile_k=40,tile_n=56]"),
    "ideal-dram-tiles": RunSpec("deit-tiny", target="vitality[tile_m=40,tile_n=48]"),
    "sram-resident-streams": RunSpec(
        "deit-tiny", target="vitality[dram_gbps=25,sram_kb=800]"),
    "small-sram": RunSpec("deit-tiny", target="vitality[dram_gbps=8,sram_kb=8]"),
    "scale-to-peak": RunSpec("deit-tiny", target="vitality[dram_gbps=25]",
                             scale_to_peak=8.192e12),
    "g-stationary": RunSpec("levit-128", target="vitality-gstationary[dram_gbps=25]"),
    "unpipelined": RunSpec("mobilevit-xs",
                           target="vitality-unpipelined[dram_gbps=25]"),
    "batch": RunSpec("deit-tiny", target="vitality[pe=32x32,dram_gbps=100]",
                     batch_size=4),
    "attention-only": RunSpec("deit-base", target="vitality[dram_gbps=25]",
                              include_linear=False),
    "decode": RunSpec("decoder[tokens=1,kv_tokens=2048,phase=decode]",
                      target="vitality[dram_gbps=25]"),
}

#: The reduced bandwidth-axis exploration ``memsim_golden.json`` pins whole,
#: under ``"dse"``.
DSE_GOLDEN = dict(model="deit-tiny", pe=("32x32", "128x128"), freq=("500mhz",),
                  sram_kb=(100, 200), dram_gbps=(8.0, 100.0))

#: Every entry of ``memsim_golden.json``, in file order.
GOLDEN_LABELS = (*POINT_GOLDENS, *LAYER_GOLDENS, "dse")


def _golden_entry(label: str) -> object:
    """One entry of ``memsim_golden.json``, computed now, as a JSON value.

    Regenerate (only when an output change is intended and documented)::

        PYTHONPATH=src:tests python tests/test_memsim.py
    """

    if label in POINT_GOLDENS:
        payload = simulate(RunSpec("deit-tiny", target=label),
                           cache=ResultCache()).to_dict()
    elif label in LAYER_GOLDENS:
        payload = simulate(LAYER_GOLDENS[label], cache=ResultCache()).to_dict(
            include_layers=True)
    else:
        payload = explore_design_space(**DSE_GOLDEN, cache=ResultCache())
    return json.loads(json.dumps(payload))


#: The JSON keys every default (analytic-path) result has — and no others.
DEFAULT_RESULT_KEYS = {
    "model", "target", "attention_latency", "linear_latency",
    "end_to_end_latency", "attention_energy", "linear_energy",
    "end_to_end_energy", "energy_breakdown", "config",
}


class TestMemsimKnobs:
    def test_unknown_tile_knob_lists_valid_knobs(self):
        with pytest.raises(KnobError) as excinfo:
            VITALITY_SCHEMA.parse("tile_q=4")
        message = str(excinfo.value)
        assert "unknown knob 'tile_q'" in message
        assert "tile_m" in message and "dram_gbps" in message

    @pytest.mark.parametrize("text,fragment", [
        ("dram_gbps=0", "positive"),
        ("dram_gbps=-5", "positive"),
        ("dram_gbps=nan", "GB/s"),
        ("dram_gbps=-inf", "positive"),
        ("dram_gbps=fast", "number"),
        ("tile_m=0", "positive integer"),
        ("tile_k=-2", "positive integer"),
        ("tile_n=big", "positive integer"),
    ])
    def test_invalid_memsim_knobs_raise_actionable_errors(self, text, fragment):
        with pytest.raises(KnobError) as excinfo:
            VITALITY_SCHEMA.parse(text)
        assert fragment in str(excinfo.value)

    def test_dram_gbps_inf_is_the_reference_value(self):
        config = VITALITY_SCHEMA.parse("dram_gbps=inf")
        assert config.is_reference
        assert VITALITY_SCHEMA.render(config) == ""

    @pytest.mark.parametrize("target,fragment", [
        ("vitality[tile_k=65]", "stationary rows"),
        ("vitality[tile_n=65]", "columns"),
        ("vitality[tile_k=64,tile_n=64,sram_kb=4]", "weight-buffer half"),
        ("vitality[tile_m=10000,tile_k=64]", "input-buffer half"),
        ("vitality[tile_m=10000,tile_n=64]", "output-buffer half"),
    ])
    def test_impossible_tilings_fail_at_target_construction(self, target, fragment):
        with pytest.raises(KnobError) as excinfo:
            get_target(target)
        assert fragment in str(excinfo.value)

    def test_ideal_bandwidth_spelling_resolves_to_base_target(self):
        assert get_target("vitality[dram_gbps=inf]") is get_target("vitality")

    def test_ideal_bandwidth_spelling_shares_cache_entry(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=inf]"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_from_design_is_inactive_without_memsim_knobs(self):
        assert MemSimConfig.from_design(None, 200, 64, 64) is None
        design = VITALITY_SCHEMA.parse("pe=32x32,freq=1ghz")
        assert MemSimConfig.from_design(design, 200, 32, 32) is None


class TestMemsimActivation:
    def test_default_result_has_no_roofline(self):
        result = simulate(RunSpec("deit-tiny", target="vitality"),
                          cache=ResultCache())
        assert result.roofline == ()
        assert set(result.to_dict()) == DEFAULT_RESULT_KEYS
        assert set(result.to_dict(include_layers=True)) == \
            DEFAULT_RESULT_KEYS | {"layers"}

    def test_memsim_result_carries_the_roofline_block(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                          cache=ResultCache())
        assert result.roofline
        assert set(result.to_dict()) == DEFAULT_RESULT_KEYS | {"roofline"}
        for record in result.roofline:
            assert record.bound in ("memory", "compute")
            assert record.peak_gbps == 25.0
            assert record.attained_gbps <= record.peak_gbps * 1.001

    def test_low_bandwidth_is_memory_bound_with_nonzero_stalls(self):
        cache = ResultCache()
        base = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        starved = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=8]"),
                           cache=cache)
        memory_bound = [record for record in starved.roofline
                        if record.bound == "memory"]
        assert memory_bound
        assert all(record.stall_cycles > 0 for record in memory_bound)
        assert starved.end_to_end_latency > base.end_to_end_latency

    def test_high_bandwidth_is_compute_bound(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=100]"),
                          cache=ResultCache())
        assert all(record.bound == "compute" for record in result.roofline)

    def test_round_trip_preserves_the_roofline(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                          cache=ResultCache())
        payload = json.loads(json.dumps(result.to_dict(include_layers=True)))
        assert RunResult.from_dict(payload) == result

    def test_each_partition_is_built_once(self, monkeypatch):
        # The memsim accelerator builds its two tiled partitions, and no
        # analytic ones, also when scaled to a peak.  Its roofline records
        # align with the layer records, as the engine returns them.
        built = []
        original = SystolicArray.__init__

        def counting(array, *args, **kwargs):
            built.append(type(array))
            original(array, *args, **kwargs)

        monkeypatch.setattr(SystolicArray, "__init__", counting)
        design = VITALITY_SCHEMA.parse("dram_gbps=25")
        config = build_vitality_config(design)
        accelerator = MemSimViTALiTyAccelerator(config, MemSimConfig.from_design(
            design, config.memory.sram_kb, config.sa_general.rows,
            config.sa_general.columns))
        assert built == [TiledSystolicArray, TiledSystolicArray]
        assert accelerator.sa_general.traces is accelerator.sa_diag.traces
        scaled = accelerator.scaled_to_peak(4 * accelerator.peak_macs_per_second)
        assert built == [TiledSystolicArray] * 4
        assert type(scaled) is MemSimViTALiTyAccelerator
        assert scaled.memsim is accelerator.memsim
        layers = run_model(accelerator, get_workload("deit-tiny"))[-1]
        assert [(record.layer, record.kind, record.repeats)
                for record in accelerator.rooflines] == [
            (layer.name, layer.kind, layer.repeats) for layer in layers]
        engine = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                          cache=ResultCache())
        assert engine.layers == layers
        assert list(engine.roofline) == accelerator.rooflines


@pytest.mark.usefixtures("no_float_sum")
class TestMemsimGolden:
    """The memsim outputs for two reference design points, the layer records
    of one run per tiling branch and one bandwidth-axis exploration are
    pinned exactly, and activating the subsystem must not move any seed
    experiment."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_golden_holds_exactly_these_entries(self, golden):
        assert list(golden) == list(GOLDEN_LABELS)

    @pytest.mark.parametrize("target", POINT_GOLDENS)
    def test_design_point_matches_golden_bit_identically(self, golden, target):
        assert _golden_entry(target) == golden[target]

    @pytest.mark.parametrize("label", [*LAYER_GOLDENS, "dse"])
    def test_run_matches_golden_bit_identically(self, golden, label):
        assert _golden_entry(label) == golden[label]

    @pytest.fixture(scope="class")
    def seed_golden(self):
        return json.loads(SEED_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("experiment", ["fig11", "fig12", "tab5", "salo",
                                            "table2"])
    def test_seed_experiments_stay_bit_identical(self, seed_golden, experiment):
        current = run_experiment("tab2" if experiment == "table2" else experiment)
        assert json.loads(json.dumps(current)) == seed_golden[experiment]


class TestTilePipeline:
    def _config(self, dram_gbps=math.inf, sram_kb=200):
        words = buffer_words(sram_kb)
        return MemSimConfig(dram_gbps=dram_gbps, tile_m=None, tile_k=None,
                            tile_n=None, ibuf_words=words, wbuf_words=words,
                            obuf_words=words)

    def test_buffer_words_reference_budget(self):
        # 200 KB / 4 operand buffers / 2 bytes per word = 25600 words each.
        assert buffer_words(200) == 25600

    def test_plan_respects_array_and_buffer_capacities(self):
        config = self._config(sram_kb=4)
        plan = config.plan(197, 192, 576, rows=64, columns=64)
        half = max(1, config.wbuf_words // 2)
        assert plan.tile_k <= 64 and plan.tile_n <= 64
        assert plan.tile_k * plan.tile_n <= half
        assert plan.tile_m * plan.tile_k <= max(1, config.ibuf_words // 2)
        assert plan.tile_m * plan.tile_n <= max(1, config.obuf_words // 2)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 4096), k=st.integers(1, 4096), n=st.integers(1, 4096),
           rows=st.integers(1, 256), columns=st.integers(1, 256),
           utilization=st.floats(min_value=1e-6, max_value=1.0),
           batch=st.integers(1, 16), spare_m=st.integers(0, 4096),
           stationary_dram=st.booleans(), streamed_dram=st.booleans())
    @example(m=100, k=64, n=64, rows=64, columns=64, utilization=0.85, batch=1,
             spare_m=0, stationary_dram=True, streamed_dram=True)
    def test_infinite_bandwidth_single_chunk_matches_analytic_cycles(
            self, m, k, n, rows, columns, utilization, batch, spare_m,
            stationary_dram, streamed_dram):
        # Array-shaped stationary tiles and one m-chunk, every rate infinite:
        # the tiled count is the analytic one and nothing stalls.
        trace = simulate_tiled_gemm(
            m, k, n, rows=rows, columns=columns, utilization=utilization,
            batch=batch,
            plan=TilePlan(tile_m=m + spare_m, tile_k=min(k, rows),
                          tile_n=min(n, columns)),
            dram_words_per_cycle=math.inf, sram_words_per_cycle=math.inf,
            drain_words_per_cycle=math.inf, stationary_dram=stationary_dram,
            streamed_dram=streamed_dram)
        assert trace.compute_cycles == matmul_cycles(
            m, k, n, rows=rows, columns=columns, utilization=utilization,
            batch=batch)
        assert trace.load_stall_cycles == 0
        assert trace.drain_stall_cycles == 0

    def test_stall_decomposition_is_exact(self):
        trace = simulate_tiled_gemm(
            197, 192, 576, rows=64, columns=64, utilization=0.85, batch=1,
            plan=TilePlan(tile_m=64, tile_k=64, tile_n=64),
            dram_words_per_cycle=2.5, sram_words_per_cycle=128.0,
            drain_words_per_cycle=64.0, stationary_dram=True,
            streamed_dram=True)
        assert trace.cycles == (trace.compute_cycles
                                + trace.load_stall_cycles
                                + trace.drain_stall_cycles)
        assert trace.load_stall_cycles > 0
        assert trace.tiles > 1

    @pytest.mark.parametrize("name,overrides", [
        ("m", {"m": 0}),
        ("k", {"k": 0}),
        ("n", {"n": -3}),
        ("batch", {"batch": 0}),
        ("plan.tile_m", {"plan": TilePlan(tile_m=0, tile_k=64, tile_n=64)}),
        ("plan.tile_k", {"plan": TilePlan(tile_m=64, tile_k=0, tile_n=64)}),
        ("plan.tile_n", {"plan": TilePlan(tile_m=64, tile_k=64, tile_n=-1)}),
        ("utilization", {"utilization": 0.0}),
        ("utilization", {"utilization": 1.5}),
        ("utilization", {"utilization": math.nan}),
        ("dram_words_per_cycle", {"dram_words_per_cycle": 0.0}),
        ("dram_words_per_cycle", {"dram_words_per_cycle": -2.5}),
        ("dram_words_per_cycle", {"dram_words_per_cycle": math.nan}),
        ("sram_words_per_cycle", {"sram_words_per_cycle": -math.inf}),
        ("drain_words_per_cycle", {"drain_words_per_cycle": math.nan}),
    ])
    def test_bad_inputs_raise_value_errors_naming_the_argument(self, name, overrides):
        kwargs = dict(rows=64, columns=64, utilization=0.85, batch=1,
                      plan=TilePlan(tile_m=64, tile_k=64, tile_n=64),
                      dram_words_per_cycle=2.5, sram_words_per_cycle=128.0,
                      drain_words_per_cycle=64.0, stationary_dram=True,
                      streamed_dram=True)
        dims = {"m": 197, "k": 192, "n": 576}
        for key, value in overrides.items():
            (dims if key in dims else kwargs)[key] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
            simulate_tiled_gemm(dims["m"], dims["k"], dims["n"], **kwargs)

    def test_less_bandwidth_never_runs_faster(self):
        def cycles(words_per_cycle):
            return simulate_tiled_gemm(
                197, 192, 576, rows=64, columns=64, utilization=0.85, batch=1,
                plan=TilePlan(tile_m=64, tile_k=64, tile_n=64),
                dram_words_per_cycle=words_per_cycle,
                sram_words_per_cycle=128.0, drain_words_per_cycle=64.0,
                stationary_dram=True, streamed_dram=True).cycles
        assert cycles(2.5) >= cycles(25.0) >= cycles(math.inf)


def _loop_transfer_cycles(words: int, words_per_cycle: float) -> int:
    if words <= 0 or math.isinf(words_per_cycle):
        return 0
    return math.ceil(words / words_per_cycle)


def _loop_chunks(total: int, size: int) -> list[int]:
    full, rest = divmod(total, size)
    return [size] * full + ([rest] if rest else [])


def _loop_simulate_tiled_gemm(m: int, k: int, n: int, *,
                              rows: int, columns: int, utilization: float,
                              batch: int, plan: TilePlan,
                              dram_words_per_cycle: float,
                              sram_words_per_cycle: float,
                              drain_words_per_cycle: float,
                              stationary_dram: bool,
                              streamed_dram: bool) -> GemmMemTrace:
    """The reference pipeline: one Python step per tile pass."""

    stationary_rate = dram_words_per_cycle if stationary_dram else sram_words_per_cycle
    streamed_rate = dram_words_per_cycle if streamed_dram else sram_words_per_cycle

    computes: list[int] = []
    loads: list[int] = []
    drains: list[int] = []
    dram_words = 0
    sram_words = 0

    k_tiles = _loop_chunks(k, plan.tile_k)
    n_tiles = _loop_chunks(n, plan.tile_n)
    m_chunks = _loop_chunks(m, plan.tile_m)
    for _ in range(batch):
        for chunk_m in m_chunks:
            for tile_n in n_tiles:
                for index_k, tile_k in enumerate(k_tiles):
                    stationary_words = tile_k * tile_n
                    streamed_words = chunk_m * tile_k
                    computes.append(math.ceil(chunk_m / utilization))
                    loads.append(_loop_transfer_cycles(stationary_words, stationary_rate)
                                 + _loop_transfer_cycles(streamed_words, streamed_rate))
                    output_words = (chunk_m * tile_n
                                    if index_k == len(k_tiles) - 1 else 0)
                    drains.append(_loop_transfer_cycles(output_words, drain_words_per_cycle))
                    if stationary_dram:
                        dram_words += stationary_words
                    else:
                        sram_words += stationary_words
                    if streamed_dram:
                        dram_words += streamed_words
                    else:
                        sram_words += streamed_words
                    sram_words += output_words

    # Array fill once per batched GEMM, as in the analytic model.
    compute_cycles = rows + columns + sum(computes)
    load_stall = loads[0] + sum(
        max(0, loads[i] - computes[i - 1]) for i in range(1, len(loads)))
    drain_stall = drains[-1] + sum(
        max(0, drains[i] - computes[i + 1]) for i in range(len(drains) - 1))
    return GemmMemTrace(
        tiles=len(computes),
        compute_cycles=compute_cycles,
        load_stall_cycles=load_stall,
        drain_stall_cycles=drain_stall,
        dram_words=dram_words,
        sram_words=sram_words,
        macs=m * k * n * batch,
    )


#: Rates straddling the per-pass compute windows, plus ideal bandwidth.
RATES = (math.inf, 0.37, 1.0, 2.5, 64.0, 130.0)


@st.composite
def _gemm_cases(draw):
    """A GEMM of at most ~3k tile passes: every tile is at least 1/8 of its axis."""

    m, k, n = (draw(st.integers(1, 256)) for _ in range(3))
    tile_m, tile_k, tile_n = (draw(st.integers(max(1, dim // 8), dim))
                              for dim in (m, k, n))
    return dict(
        m=m, k=k, n=n, rows=64, columns=64,
        # Below ~1e-306 the compute window overflows float division.
        utilization=draw(st.floats(min_value=1e-6, max_value=1.0)),
        batch=draw(st.integers(1, 4)),
        plan=TilePlan(tile_m=tile_m, tile_k=tile_k, tile_n=tile_n),
        dram_words_per_cycle=draw(st.sampled_from(RATES)),
        sram_words_per_cycle=draw(st.sampled_from(RATES)),
        drain_words_per_cycle=draw(st.sampled_from(RATES)),
        stationary_dram=draw(st.booleans()),
        streamed_dram=draw(st.booleans()),
    )


def _case(m, k, n, tile_m, tile_k, tile_n, batch, *, utilization=1.0,
          dram=0.37, sram=130.0, drain=2.5, stationary_dram=True,
          streamed_dram=True):
    return dict(m=m, k=k, n=n, rows=64, columns=64, utilization=utilization,
                batch=batch, plan=TilePlan(tile_m=tile_m, tile_k=tile_k, tile_n=tile_n),
                dram_words_per_cycle=dram, sram_words_per_cycle=sram,
                drain_words_per_cycle=drain, stationary_dram=stationary_dram,
                streamed_dram=streamed_dram)


class TestClosedFormMatchesLoop:
    """The closed-form pipeline equals the pass-by-pass loop field by field."""

    @settings(max_examples=200, deadline=None)
    @given(case=_gemm_cases())
    # Exact multiples: no remainder on any axis.
    @example(case=_case(192, 128, 64, 64, 32, 16, 2))
    # A single chunk per axis: one pass per batch.
    @example(case=_case(100, 64, 64, 100, 64, 64, 3, utilization=0.85))
    # batch >= 2 with full and remainder m-chunks: every m-chunk boundary
    # repeats once per batch, and the last chunk meets the first between
    # batches.
    @example(case=_case(10, 8, 8, 4, 8, 8, 3, dram=2.5, drain=1.0))
    @example(case=_case(197, 192, 576, 64, 64, 64, 4, utilization=0.85,
                        dram=2.5, sram=128.0, drain=1.0, stationary_dram=False))
    def test_every_field_equals_the_loop(self, case):
        assert simulate_tiled_gemm(**case) == _loop_simulate_tiled_gemm(**case)

    def test_one_by_one_tiling_finishes_with_one_pass_per_mac(self):
        # 1,104,309,504 passes: about 22 minutes for a per-pass pipeline.
        result = simulate(RunSpec(
            "deit-tiny", target="vitality[dram_gbps=25,tile_m=1,tile_k=1,tile_n=1]"),
            cache=ResultCache())
        assert result.roofline
        for record in result.roofline:
            assert record.tiles == record.macs


class TestBandwidthAwareDSE:
    def test_dram_axis_adds_roofline_annotations(self):
        payload = explore_design_space(pe=("64x64",), freq=("500mhz",),
                                       sram_kb=(200,), dram_gbps=(25.0,),
                                       cache=ResultCache())
        assert payload["evaluated"] == 1
        assert payload["space"]["dram_gbps"] == [25.0]
        point = payload["points"][0]
        assert point["dram_gbps"] == 25.0
        assert point["memory_bound_layers"] > 0

    def test_without_dram_axis_the_point_schema_is_unchanged(self):
        payload = explore_design_space(pe=("64x64",), freq=("500mhz",),
                                       sram_kb=(200,), cache=ResultCache())
        assert "dram_gbps" not in payload["space"]
        assert set(payload["points"][0]) == {
            "target", "config", "latency_ms", "energy_mj", "area_mm2",
            "peak_gmacs", "pareto"}

    def test_roofline_demotes_the_bandwidth_starved_big_array(self):
        payload = roofline_experiment(pe=("64x64", "128x128"),
                                      dram_gbps=(25.0, 100.0),
                                      cache=ResultCache())
        by_target = {point["target"]: point for point in payload["points"]}
        starved_big = by_target["vitality[dram_gbps=25.0,pe=128x128]"]
        balanced = by_target["vitality[dram_gbps=100.0]"]
        assert not starved_big["pareto"]
        assert balanced["pareto"]
        assert starved_big["memory_bound_layers"] > 0
        demoted = {entry["demoted"]: entry for entry in payload["demotions"]}
        entry = demoted["vitality[dram_gbps=25.0,pe=128x128]"]
        assert entry["demoted_by"] == "vitality[dram_gbps=100.0]"
        assert entry["latency_ratio"] > 1.0

    def test_registered_as_experiment(self):
        payload = run_experiment("roofline", pe=("64x64",), dram_gbps=(25.0,),
                                 cache=ResultCache())
        assert payload["evaluated"] == 1
        assert payload["points"][0]["memory_bound_layers"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {label: _golden_entry(label) for label in GOLDEN_LABELS}, indent=2) + "\n")
