"""Tests for the hardware models: systolic array, processors, pipeline, accelerators."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention import count_taylor_attention_ops
from repro.engine import ResultCache, RunSpec, get_target, simulate
from repro.hardware import (
    LaneArray,
    MemoryEnergyConfig,
    SALOAccelerator,
    SangerAccelerator,
    SangerAcceleratorConfig,
    SystolicArray,
    ViTALiTyAccelerator,
    ViTALiTyAcceleratorConfig,
    get_platform,
    linear_attention_processor_requirements,
    matmul_cycles,
    pipeline_latency,
    run_model,
    sequential_latency,
)
from repro.workloads import DEIT_TINY, LEVIT_128, AttentionLayerSpec, LinearLayerSpec


class TestSystolicArray:
    def test_cycles_scale_with_work(self):
        small = matmul_cycles(64, 64, 64, 64, 64)
        large = matmul_cycles(256, 64, 64, 64, 64)
        assert large > small

    def test_tiling_over_rows_and_columns(self):
        """Quadrupling the stationary tile count quadruples the streaming cycles."""

        fill = 64 + 64
        one_tile = matmul_cycles(10, 64, 64, 64, 64) - fill
        four_tiles = matmul_cycles(10, 128, 128, 64, 64) - fill
        assert four_tiles == 4 * one_tile

    def test_batch_amortises_fill(self):
        single = matmul_cycles(64, 64, 64, 64, 64, batch=1)
        batched = matmul_cycles(64, 64, 64, 64, 64, batch=4)
        assert batched < 4 * single

    def test_utilization_bounds(self):
        with pytest.raises(ValueError):
            matmul_cycles(1, 1, 1, 64, 64, utilization=0.0)
        with pytest.raises(ValueError):
            matmul_cycles(0, 1, 1, 64, 64)

    def test_energy_proportional_to_cycles(self):
        config = ViTALiTyAcceleratorConfig()
        array = SystolicArray(config.sa_general, config.frequency_hz, utilization=1.0)
        short_cycles, short_energy = array.matmul(32, 64, 64)
        long_cycles, long_energy = array.matmul(320, 64, 64)
        assert long_energy > short_energy
        assert long_energy / short_energy == pytest.approx(long_cycles / short_cycles)

    def test_pe_energy_scale(self):
        config = ViTALiTyAcceleratorConfig()
        array = SystolicArray(config.sa_general, config.frequency_hz)
        plain_cycles, plain_energy = array.matmul(64, 64, 64)
        scaled_cycles, scaled_energy = array.matmul(64, 64, 64, pe_energy_scale=1.2)
        assert scaled_cycles == plain_cycles
        assert scaled_energy == pytest.approx(plain_energy * 1.2)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 300), k=st.integers(1, 300), n=st.integers(1, 300))
    def test_cycles_at_least_ideal_property(self, m, k, n):
        """The cycle count can never beat the ideal MACs / PEs bound."""

        cycles = matmul_cycles(m, k, n, 64, 64, utilization=1.0)
        assert cycles >= (m * k * n) / (64 * 64)


class TestProcessorsAndPipeline:
    def _config(self):
        return ViTALiTyAcceleratorConfig()

    def test_accumulator_cycles(self):
        config = self._config()
        acc = LaneArray(config.accumulator_array, config.frequency_hz)
        cycles, _ = acc.run(197 * 64)
        assert cycles == int(np.ceil(197 * 64 / 64))

    def test_adder_and_divider(self):
        config = self._config()
        adder = LaneArray(config.adder_array, config.frequency_hz)
        divider = LaneArray(config.divider_array, config.frequency_hz)
        assert adder.run(128)[0] == 2
        assert divider.run(64)[0] == 1
        assert divider.run(65)[0] == 2

    def test_zero_operations(self):
        config = self._config()
        adder = LaneArray(config.adder_array, config.frequency_hz)
        assert adder.run(0) == (0, 0.0)
        with pytest.raises(ValueError):
            adder.run(-1)

    def test_pipeline_latency_bounded_by_sequential(self):
        steps = [("a", "systolic", 100, 0.0), ("b", "adder", 30, 0.0),
                 ("c", "divider", 20, 0.0)]
        assert pipeline_latency(steps) <= sequential_latency(steps)
        assert pipeline_latency(steps) >= 100

    def test_pipeline_single_chunk_no_gain(self):
        steps = [("a", "systolic", 50, 0.0), ("b", "systolic", 70, 0.0)]
        assert pipeline_latency(steps) == sequential_latency(steps)

    def test_pipeline_empty(self):
        assert pipeline_latency([]) == 0

    def test_memory_access_energy(self):
        """Every SRAM word also crosses the NoC; every DRAM word pays one access."""

        memory = MemoryEnergyConfig()
        assert memory.access_energy(1000, dram_words=10) == (
            1000 * memory.sram_access + 1000 * memory.noc_access
            + 10 * memory.dram_access)
        assert memory.access_energy(1000) < memory.access_energy(1000, dram_words=10)


class TestViTALiTyAccelerator:
    def test_attention_layer_has_all_steps(self):
        accelerator = ViTALiTyAccelerator()
        cycles, layer = accelerator.run_attention_layer(DEIT_TINY.attention_layers[0])
        step_names = {step.name.split(":")[0] for step in layer.steps}
        assert {"1", "2", "3", "4", "5", "6"} <= step_names
        assert cycles > 0
        assert layer.latency_seconds == cycles / accelerator.frequency_hz
        assert layer.energy_joules > 0

    def test_pipelining_reduces_latency(self):
        spec = DEIT_TINY.attention_layers[0]
        pipelined_cycles, pipelined = ViTALiTyAccelerator(pipelined=True).run_attention_layer(spec)
        sequential_cycles, sequential = ViTALiTyAccelerator(pipelined=False).run_attention_layer(spec)
        assert pipelined_cycles < sequential_cycles
        assert pipelined.energy_joules == pytest.approx(sequential.energy_joules)

    def test_down_forward_saves_energy_over_g_stationary(self):
        """Table V: down-forward accumulation has lower overall energy."""

        cache = ResultCache()
        for model in ("deit-base", "levit-128"):
            ours = simulate(RunSpec(model, target="vitality"), cache=cache).breakdown()
            theirs = simulate(RunSpec(model, target="vitality-gstationary"),
                              cache=cache).breakdown()
            assert sum(ours.values()) < sum(theirs.values())
            # ... while G-stationary has lower data-access energy (it keeps G in the PEs).
            assert theirs["data_access"] < ours["data_access"]
            # And the pre/post-processor energy is identical across dataflows.
            assert ours["other_processors"] == pytest.approx(theirs["other_processors"])

    def test_run_model_aggregates_layers(self):
        attention_latency, attention_energy, linear_latency, _, layers = run_model(
            ViTALiTyAccelerator(), DEIT_TINY)
        assert attention_latency > 0
        assert linear_latency > attention_latency   # projections dominate DeiT
        attention = [layer for layer in layers if layer.kind == "attention"]
        assert len(attention) == len(DEIT_TINY.attention_layers)
        assert len(layers) - len(attention) == len(DEIT_TINY.linear_layers)
        assert attention_latency == pytest.approx(
            sum(layer.latency_seconds * layer.repeats for layer in attention))
        assert attention_energy == pytest.approx(
            sum(layer.energy_joules * layer.repeats for layer in attention))

    def test_attention_only_mode(self):
        _, _, linear_latency, linear_energy, layers = run_model(
            ViTALiTyAccelerator(), DEIT_TINY, include_linear=False)
        assert linear_latency == linear_energy == 0.0
        assert all(layer.kind == "attention" for layer in layers)

    def test_full_utilization_is_no_slower_than_half(self):
        def attention_latency(utilization: float) -> float:
            config = ViTALiTyAcceleratorConfig(systolic_utilization=utilization)
            return run_model(ViTALiTyAccelerator(config), DEIT_TINY,
                             include_linear=False)[0]

        assert attention_latency(1.0) <= attention_latency(0.5)

    def test_scaled_to_peak_increases_throughput(self):
        accelerator = ViTALiTyAccelerator()
        scaled = accelerator.scaled_to_peak(accelerator.peak_macs_per_second * 3)
        assert scaled.peak_macs_per_second > accelerator.peak_macs_per_second
        base_linear = run_model(accelerator, DEIT_TINY)[2]
        scaled_linear = run_model(scaled, DEIT_TINY)[2]
        assert scaled_linear < base_linear

    def test_scaled_to_peak_validation(self):
        with pytest.raises(ValueError):
            ViTALiTyAccelerator().scaled_to_peak(0)

    @pytest.mark.parametrize("target", ["vitality", "vitality[dram_gbps=25]"])
    @pytest.mark.parametrize("model", ["deit-tiny", "levit-128", "mobilevit-xs",
                                       "decoder"])
    def test_attention_steps_perform_table1_operations(self, model, target):
        """Per repeat, each attention layer's steps perform Table I's Taylor
        counts: the systolic MACs are its multiplications, the divider
        operations its divisions, and the accumulator and adder operations
        its additions beyond the matmul accumulations."""

        spec = RunSpec(model, target=target)
        workload = spec.workload()
        # The accelerator the engine target simulates this spec on, with a
        # counter around every array it issues work to.
        accelerator = get_target(target)._accelerator(spec)
        operations = Counter()

        def count_macs(chunk, array):
            matmul = array.matmul

            def counted(m, k, n, pe_energy_scale=1.0, batch=1):
                operations[chunk] += m * k * n * batch
                return matmul(m, k, n, pe_energy_scale=pe_energy_scale, batch=batch)
            array.matmul = counted

        def count_operations(chunk, array):
            run = array.run

            def counted(count):
                operations[chunk] += count
                return run(count)
            array.run = counted

        count_macs("sa_general", accelerator.sa_general)
        count_macs("sa_diag", accelerator.sa_diag)
        for chunk in ("accumulator", "adder", "divider"):
            count_operations(chunk, getattr(accelerator, chunk))
        assert workload.attention_layers
        for layer_spec in workload.attention_layers:
            counts = count_taylor_attention_ops(
                dataclasses.replace(layer_spec, repeats=1))
            operations.clear()
            accelerator.run_attention_layer(layer_spec)
            assert (operations["sa_general"] + operations["sa_diag"]
                    == counts.multiplications)
            assert operations["divider"] == counts.divisions
            assert (operations["accumulator"] + operations["adder"]
                    == counts.additions - counts.multiplications)

    def test_levit_asymmetric_layer_runs(self):
        cycles, _ = ViTALiTyAccelerator().run_attention_layer(LEVIT_128.attention_layers[-1])
        assert cycles > 0

    def test_table3_budget_parity(self):
        """ViTALiTy and Sanger configurations have comparable area and power (Table III)."""

        vitality = ViTALiTyAcceleratorConfig()
        sanger = SangerAcceleratorConfig()
        assert vitality.total_area_mm2 == pytest.approx(5.223, rel=0.01)
        assert sanger.total_area_mm2 == pytest.approx(5.194, rel=0.01)
        assert vitality.total_power_mw == pytest.approx(1460, rel=0.01)
        assert sanger.total_power_mw == pytest.approx(1450, rel=0.01)
        assert abs(vitality.total_area_mm2 - sanger.total_area_mm2) / vitality.total_area_mm2 < 0.05


class TestSangerSALOPlatforms:
    def test_sanger_layer_and_model(self):
        sanger = SangerAccelerator()
        cycles, _ = sanger.run_attention_layer(DEIT_TINY.attention_layers[0])
        assert cycles > 0
        attention_latency, _, linear_latency, _, _ = run_model(sanger, DEIT_TINY)
        assert attention_latency > 0 and linear_latency > 0

    def test_sanger_density_scales_latency(self):
        sparse = run_model(SangerAccelerator(density=0.1), DEIT_TINY, include_linear=False)
        dense = run_model(SangerAccelerator(density=0.9), DEIT_TINY, include_linear=False)
        assert sparse[0] < dense[0]

    def test_sanger_validation(self):
        with pytest.raises(ValueError):
            SangerAccelerator(density=0.0)
        with pytest.raises(ValueError):
            SangerAccelerator(load_balance_efficiency=1.5)

    def test_vitality_beats_sanger_on_attention(self):
        """Headline result: ViTALiTy is several times faster than Sanger on attention."""

        vitality = run_model(ViTALiTyAccelerator(), DEIT_TINY, include_linear=False)
        sanger = run_model(SangerAccelerator(), DEIT_TINY, include_linear=False)
        speedup = sanger[0] / vitality[0]
        assert 2.0 < speedup < 20.0

    def test_salo_slower_than_vitality(self):
        vitality = run_model(ViTALiTyAccelerator(), DEIT_TINY, include_linear=False)
        salo = run_model(SALOAccelerator(), DEIT_TINY, include_linear=False)
        assert salo[0] > vitality[0]

    def test_platform_lookup(self):
        assert get_platform("gpu").name == "gpu"
        with pytest.raises(KeyError):
            get_platform("tpu")

    def test_platform_vanilla_profile_structure(self):
        profile = get_platform("edge_gpu").vanilla_attention_profile(DEIT_TINY)
        assert set(profile) == {"1:QK^T", "2:softmax", "3:SV"}
        assert all(latency > 0 for latency in profile.values())

    def test_platform_taylor_profile_structure(self):
        profile = get_platform("edge_gpu").taylor_attention_profile(DEIT_TINY)
        assert len(profile) == 6

    def test_edge_gpu_totals_match_table2(self):
        """Calibration check: TX2 totals land near the paper's Table II values."""

        tx2 = get_platform("edge_gpu")
        vanilla_ms = tx2.attention_latency(DEIT_TINY) * 1e3
        taylor_ms = tx2.attention_latency(DEIT_TINY, taylor=True) * 1e3
        assert vanilla_ms == pytest.approx(11.65, rel=0.25)
        assert taylor_ms == pytest.approx(14.03, rel=0.25)
        # The key qualitative point: the GPU does NOT benefit from Taylor attention.
        assert taylor_ms > vanilla_ms * 0.9

    def test_fig1_breakdown_softmax_step_dominates(self):
        """Fig. 1: the softmax attention map step dominates MHA runtime on every platform."""

        for platform_name in ("gpu", "edge_gpu", "pixel3"):
            breakdown = get_platform(platform_name).mha_runtime_breakdown(DEIT_TINY)
            assert sum(breakdown.values()) == pytest.approx(1.0)
            assert breakdown["step2_softmax_map"] == max(breakdown.values())
            assert 0.4 < breakdown["step2_softmax_map"] < 0.75

    def test_energy_positive_and_consistent(self):
        platform = get_platform("cpu")
        assert platform.attention_energy(DEIT_TINY) > 0
        assert platform.end_to_end_energy(DEIT_TINY) > platform.attention_energy(DEIT_TINY)

    def test_table6_requirements(self):
        table = linear_attention_processor_requirements()
        assert set(table) == {"linformer", "efficient", "performer", "linear_transformer", "vitality"}
        vitality = linear_attention_processor_requirements("vitality")
        assert not vitality.needs_exponentiation       # Taylor attention needs no exp unit
        assert "Acc." in vitality.processor_list()
        for name in ("linformer", "efficient", "performer", "linear_transformer"):
            assert linear_attention_processor_requirements(name).needs_exponentiation
        with pytest.raises(KeyError):
            linear_attention_processor_requirements("flash")
