"""Tests for the hardware models: systolic array, processors, pipeline, accelerators."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention import count_taylor_attention_ops
from repro.engine import RunSpec, get_target
from repro.hardware import (
    AccumulatorArray,
    AdderArray,
    Dataflow,
    DividerArray,
    MemoryEnergyConfig,
    SALOAccelerator,
    SangerAccelerator,
    SangerAcceleratorConfig,
    StepResult,
    SystolicArray,
    ViTALiTyAccelerator,
    ViTALiTyAcceleratorConfig,
    get_platform,
    linear_attention_processor_requirements,
    matmul_cycles,
    pipeline_latency,
    sequential_latency,
)
from repro.hardware.core.memory import MemoryTrafficModel
from repro.workloads import DEIT_BASE, DEIT_TINY, LEVIT_128, AttentionLayerSpec, LinearLayerSpec


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
        short = array.matmul(32, 64, 64)
        long = array.matmul(320, 64, 64)
        assert long.energy_joules > short.energy_joules
        assert long.macs == 10 * short.macs

    def test_pe_energy_scale(self):
        config = ViTALiTyAcceleratorConfig()
        array = SystolicArray(config.sa_general, config.frequency_hz)
        plain = array.matmul(64, 64, 64)
        scaled = array.matmul(64, 64, 64, pe_energy_scale=1.2)
        assert scaled.energy_joules == pytest.approx(plain.energy_joules * 1.2)

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
        acc = AccumulatorArray(config.accumulator_array, config.frequency_hz)
        result = acc.column_sum(tokens=197, features=64)
        assert result.cycles == int(np.ceil(197 * 64 / 64))

    def test_adder_and_divider(self):
        config = self._config()
        adder = AdderArray(config.adder_array, config.frequency_hz)
        divider = DividerArray(config.divider_array, config.frequency_hz)
        assert adder.elementwise(128).cycles == 2
        assert divider.single_divisor(64).cycles == 1
        assert divider.multiple_divisors(65).cycles == 2

    def test_zero_operations(self):
        config = self._config()
        adder = AdderArray(config.adder_array, config.frequency_hz)
        assert adder.elementwise(0).cycles == 0
        with pytest.raises(ValueError):
            adder.elementwise(-1)

    def test_pipeline_latency_bounded_by_sequential(self):
        steps = [StepResult("a", "systolic", 100, 0.0), StepResult("b", "adder", 30, 0.0),
                 StepResult("c", "divider", 20, 0.0)]
        assert pipeline_latency(steps) <= sequential_latency(steps)
        assert pipeline_latency(steps) >= 100

    def test_pipeline_single_chunk_no_gain(self):
        steps = [StepResult("a", "systolic", 50, 0.0), StepResult("b", "systolic", 70, 0.0)]
        assert pipeline_latency(steps) == sequential_latency(steps)

    def test_pipeline_empty(self):
        assert pipeline_latency([]) == 0

    def test_memory_traffic_model(self):
        memory = MemoryTrafficModel(MemoryEnergyConfig())
        memory.access_sram(1000)
        memory.access_dram(10)
        assert memory.energy_joules > 0
        with pytest.raises(ValueError):
            memory.access_sram(-1)


class TestViTALiTyAccelerator:
    def test_attention_layer_has_all_steps(self):
        accelerator = ViTALiTyAccelerator()
        layer = accelerator.run_attention_layer(DEIT_TINY.attention_layers[0])
        step_names = {step.name.split(":")[0] for step in layer.steps}
        assert {"1", "2", "3", "4", "5", "6"} <= step_names
        assert layer.cycles > 0
        assert layer.energy_joules > 0

    def test_pipelining_reduces_latency(self):
        spec = DEIT_TINY.attention_layers[0]
        pipelined = ViTALiTyAccelerator(pipelined=True).run_attention_layer(spec)
        sequential = ViTALiTyAccelerator(pipelined=False).run_attention_layer(spec)
        assert pipelined.cycles < sequential.cycles
        assert pipelined.energy_joules == pytest.approx(sequential.energy_joules)

    def test_down_forward_saves_energy_over_g_stationary(self):
        """Table V: down-forward accumulation has lower overall energy."""

        down_forward = ViTALiTyAccelerator(dataflow=Dataflow.DOWN_FORWARD)
        g_stationary = ViTALiTyAccelerator(dataflow=Dataflow.G_STATIONARY)
        for workload in (DEIT_BASE, LEVIT_128):
            ours = down_forward.attention_energy_breakdown(workload)
            theirs = g_stationary.attention_energy_breakdown(workload)
            assert ours.overall < theirs.overall
            # ... while G-stationary has lower data-access energy (it keeps G in the PEs).
            assert theirs.data_access < ours.data_access
            # And the pre/post-processor energy is identical across dataflows.
            assert ours.other_processors == pytest.approx(theirs.other_processors)

    def test_model_result_aggregates_layers(self):
        accelerator = ViTALiTyAccelerator()
        result = accelerator.run_model(DEIT_TINY)
        assert result.attention_cycles > 0
        assert result.linear_cycles > result.attention_cycles   # projections dominate DeiT
        assert result.end_to_end_latency == pytest.approx(
            result.attention_latency + result.linear_latency)

    def test_attention_only_mode(self):
        result = ViTALiTyAccelerator().run_model(DEIT_TINY, include_linear=False)
        assert result.linear_cycles == 0

    def test_full_utilization_is_no_slower_than_half(self):
        def attention_latency(utilization: float) -> float:
            config = ViTALiTyAcceleratorConfig(systolic_utilization=utilization)
            return ViTALiTyAccelerator(config).run_model(
                DEIT_TINY, include_linear=False).attention_latency

        assert attention_latency(1.0) <= attention_latency(0.5)

    def test_scaled_to_peak_increases_throughput(self):
        accelerator = ViTALiTyAccelerator()
        scaled = accelerator.scaled_to_peak(accelerator.peak_macs_per_second * 3)
        assert scaled.peak_macs_per_second > accelerator.peak_macs_per_second
        base_linear = accelerator.run_model(DEIT_TINY).linear_cycles
        scaled_linear = scaled.run_model(DEIT_TINY).linear_cycles
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
        # The accelerator the engine target simulates this spec on.
        result = get_target(target)._accelerator(spec).run_model(workload)
        assert 0 < len(workload.attention_layers) < len(result.layers)
        for layer_spec, layer in zip(workload.attention_layers, result.layers):
            counts = count_taylor_attention_ops(
                dataclasses.replace(layer_spec, repeats=1))
            operations = Counter()
            for step in layer.steps:
                operations[step.chunk] += step.operations
            assert (operations["systolic"] + operations["sa_diag"]
                    == counts.multiplications)
            assert operations["divider"] == counts.divisions
            assert (operations["accumulator"] + operations["adder"]
                    == counts.additions - counts.multiplications)

    def test_levit_asymmetric_layer_runs(self):
        layer = ViTALiTyAccelerator().run_attention_layer(LEVIT_128.attention_layers[-1])
        assert layer.cycles > 0

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
        layer = sanger.run_attention_layer(DEIT_TINY.attention_layers[0])
        assert layer.cycles > 0
        result = sanger.run_model(DEIT_TINY)
        assert result.end_to_end_latency > 0

    def test_sanger_density_scales_latency(self):
        sparse = SangerAccelerator(density=0.1).run_model(DEIT_TINY, include_linear=False)
        dense = SangerAccelerator(density=0.9).run_model(DEIT_TINY, include_linear=False)
        assert sparse.attention_latency < dense.attention_latency

    def test_sanger_validation(self):
        with pytest.raises(ValueError):
            SangerAccelerator(density=0.0)
        with pytest.raises(ValueError):
            SangerAccelerator(load_balance_efficiency=1.5)

    def test_vitality_beats_sanger_on_attention(self):
        """Headline result: ViTALiTy is several times faster than Sanger on attention."""

        vitality = ViTALiTyAccelerator().run_model(DEIT_TINY, include_linear=False)
        sanger = SangerAccelerator().run_model(DEIT_TINY, include_linear=False)
        speedup = sanger.attention_latency / vitality.attention_latency
        assert 2.0 < speedup < 20.0

    def test_salo_slower_than_vitality(self):
        vitality = ViTALiTyAccelerator().run_model(DEIT_TINY, include_linear=False)
        salo = SALOAccelerator().run_model(DEIT_TINY)
        assert salo.attention_latency > vitality.attention_latency

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
