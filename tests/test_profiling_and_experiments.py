"""Tests for the profiling utilities and the experiment registry/drivers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.experiments.complexity import PAPER_TABLE1, PAPER_TABLE4_FLOPS
from repro.experiments.hardware_exps import (
    PAPER_ATTENTION_SPEEDUP,
    PAPER_FIG11_AVERAGE,
    fig11_latency_speedup,
    fig12_energy_efficiency,
    pipeline_ablation,
    salo_comparison,
    table5_dataflow_energy,
)
from repro.experiments.profiling_exps import (
    PAPER_FIG1,
    PAPER_TABLE2_TOTALS,
    fig1_runtime_breakdown,
    table2_latency_profile,
)
from repro.profiling import attention_flops


class TestFlops:
    def test_vitality_fewer_flops_than_baseline(self):
        assert attention_flops("vitality") < attention_flops("baseline")

    def test_table4_ordering(self):
        """ViTALiTy's FLOPs are competitive with every comparator (Table IV)."""

        table = run_experiment("tab4_flops")
        vitality = table["vitality"]["flops_g"]
        assert vitality < table["baseline"]["flops_g"]
        assert vitality < table["linformer"]["flops_g"]
        assert vitality < table["performer"]["flops_g"]
        assert vitality < table["sanger"]["flops_g"]

    def test_flops_magnitude_close_to_paper(self):
        """DeiT-Tiny attention FLOPs: paper reports 0.50 G (baseline) and 0.33 G (ViTALiTy)."""

        assert attention_flops("baseline") == pytest.approx(
            PAPER_TABLE4_FLOPS["baseline"], rel=0.25)
        assert attention_flops("vitality") == pytest.approx(
            PAPER_TABLE4_FLOPS["vitality"], rel=0.25)

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            attention_flops("flash")

    def test_causal_prefill_skips_the_masked_triangle(self):
        """Table IV's baseline MACs are Table I's multiplications, so a
        causal prefill counts only the unmasked triangle of its scores:
        Q/K/V 21.74 G plus 9.67 G, not the full square's 19.33 G."""

        assert attention_flops("baseline", "decoder") == \
            pytest.approx(31.416385536, rel=1e-12)
        assert attention_flops("baseline", "decoder[causal=false]") == \
            pytest.approx(41.070624768, rel=1e-12)
        # Taylor attention streams every key once either way.
        assert attention_flops("vitality", "decoder") == \
            attention_flops("vitality", "decoder[causal=false]")


class TestBreakdowns:
    def test_fig1_fractions_sum_to_one(self):
        table = fig1_runtime_breakdown()
        for platform, breakdown in table.items():
            assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_fig1_close_to_paper(self):
        table = run_experiment("fig1")
        for platform, paper in PAPER_FIG1.items():
            measured = table[platform]
            assert measured["step2_softmax_map"] == pytest.approx(paper["step2_softmax_map"],
                                                                  abs=0.12)
            assert measured["step2_softmax_map"] == max(measured.values()), platform

    def test_step_profile_ratios(self):
        ratios = table2_latency_profile(models=("deit-tiny",))[0]["taylor_ratios"]
        assert sum(ratios.values()) == pytest.approx(1.0)
        assert len(ratios) == 6

    def test_table2_totals_close_to_paper(self):
        """DeiT-Tiny (the calibration target) matches Table II closely; for the other
        models the qualitative conclusion must hold: the GPU does not benefit from
        Taylor attention (its Taylor latency is not lower than the vanilla latency)."""

        rows = {row["model"]: row for row in table2_latency_profile()}
        deit = rows["deit-tiny"]
        assert deit["vanilla_total_ms"] == pytest.approx(PAPER_TABLE2_TOTALS["deit-tiny"]["vanilla"],
                                                         rel=0.3)
        assert deit["taylor_total_ms"] == pytest.approx(PAPER_TABLE2_TOTALS["deit-tiny"]["taylor"],
                                                        rel=0.3)
        for model in PAPER_TABLE2_TOTALS:
            assert rows[model]["taylor_total_ms"] > 0.9 * rows[model]["vanilla_total_ms"]

    def test_table2_pre_post_processing_is_substantial_on_gpu(self):
        """The paper's point: pre/post steps are ~50% of Taylor latency on a GPU."""

        ratios = table2_latency_profile(models=("deit-tiny",))[0]["taylor_ratios"]
        light_steps = ratios["1:k_hat"] + ratios["3:sums"] + ratios["4:tD"] + ratios["6:Z"]
        assert light_steps > 0.3


class TestHardwareExperiments:
    def test_fig11_vitality_wins_everywhere(self):
        rows = fig11_latency_speedup(models=("deit-tiny", "levit-128"))
        for model, row in rows.items():
            for baseline in ("cpu", "edge_gpu", "gpu", "sanger"):
                assert row[baseline] > 1.0, (model, baseline)

    def test_fig11_ordering_matches_paper(self):
        """CPU and edge GPU are beaten by much more than the GPU and Sanger."""

        row = fig11_latency_speedup(models=("deit-tiny",))["deit-tiny"]
        assert row["cpu"] > row["gpu"]
        assert row["edge_gpu"] > row["gpu"]
        assert row["attention_cpu"] > row["cpu"]

    def test_fig11_rough_magnitude(self):
        row = fig11_latency_speedup(models=("deit-tiny",))["deit-tiny"]
        assert row["attention_cpu"] == pytest.approx(PAPER_ATTENTION_SPEEDUP["cpu"], rel=0.6)
        assert row["gpu"] == pytest.approx(PAPER_FIG11_AVERAGE["gpu"], rel=1.5)
        assert row["sanger"] == pytest.approx(PAPER_FIG11_AVERAGE["sanger"], rel=1.2)

    @pytest.mark.parametrize("driver", [fig11_latency_speedup, fig12_energy_efficiency],
                             ids=["fig11", "fig12"])
    def test_all_model_average_beats_every_baseline(self, driver):
        rows = driver()
        assert len(rows) == 7
        for baseline in ("cpu", "edge_gpu", "gpu", "sanger"):
            average = sum(row[baseline] for row in rows.values()) / len(rows)
            assert average > 1.0, baseline

    def test_fig12_energy_improvements(self):
        rows = fig12_energy_efficiency(models=("deit-tiny",))
        row = rows["deit-tiny"]
        for baseline in ("cpu", "edge_gpu", "gpu", "sanger"):
            assert row[baseline] > 1.0

    def test_table5_down_forward_wins_all_models(self):
        table = table5_dataflow_energy()
        for model, per_dataflow in table.items():
            assert (per_dataflow["down_forward"]["overall_uj"]
                    < per_dataflow["g_stationary"]["overall_uj"])
            assert (per_dataflow["g_stationary"]["data_access_uj"]
                    < per_dataflow["down_forward"]["data_access_uj"])

    def test_table5_deit_base_magnitude(self):
        """Paper Table V: DeiT-Base Taylor attention energy ~198-222 uJ."""

        table = table5_dataflow_energy(models=("deit-base",))
        overall = table["deit-base"]["down_forward"]["overall_uj"]
        assert 100 < overall < 450

    def test_table3_area_parity(self):
        """Table III: the two accelerators are compared at matched silicon area."""

        table = run_experiment("tab3")
        gap = table["vitality"]["total_area_mm2"] - table["sanger"]["total_area_mm2"]
        assert abs(gap) < 0.3

    def test_salo_comparison_speedups(self):
        speedups = salo_comparison()
        assert speedups["deit-tiny"] > 2.0
        assert speedups["deit-small"] > 2.0

    def test_pipeline_ablation_gain(self):
        result = pipeline_ablation()
        assert result["throughput_gain"] > 1.0


class TestExperimentRegistry:
    def test_every_paper_artifact_registered(self):
        identifiers = list_experiments()
        for required in ("fig1", "fig3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                         "tab1", "tab2", "tab3", "tab4_flops", "tab4_accuracy", "tab5", "tab6",
                         "salo"):
            assert required in identifiers

    def test_get_experiment_metadata(self):
        spec = get_experiment("tab1")
        assert spec.paper_reference == "Table I"
        assert callable(spec.runner)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_every_driver_resolves_in_its_named_module(self):
        """A typo in the registry table would otherwise fail only when that
        experiment first runs."""

        for identifier in list_experiments():
            spec = get_experiment(identifier)
            module, _, _ = spec.driver.rpartition(".")
            assert callable(spec.runner), identifier
            assert spec.runner.__module__ == f"repro.experiments.{module}", \
                identifier

    def test_simulator_path_loads_no_training_stack(self):
        """The simulator commands, the registry and a hardware driver import
        neither NumPy nor the training stack nor the process pool.  Checked
        in a fresh interpreter, since this suite has long since loaded them."""

        script = (
            "import json, sys\n"
            "import repro.cli, repro.serve, repro.plan, repro.engine\n"
            "import repro.experiments.dse_exps, repro.experiments.reporting\n"
            "from repro.experiments import get_experiment, list_experiments\n"
            "titles = [get_experiment(name).title for name in list_experiments()]\n"
            "runner = get_experiment('fig11').runner\n"
            "print(json.dumps({'titles': len(titles), 'runner': runner.__name__,\n"
            "                  'modules': sorted(sys.modules)}))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        loaded = json.loads(done.stdout)
        assert loaded["titles"] == len(list_experiments())
        assert loaded["runner"] == "fig11_latency_speedup"
        heavy = {"numpy", "scipy", "repro.tensor", "repro.nn", "repro.models",
                 "repro.training", "repro.attention",
                 "repro.experiments.accuracy_exps",
                 "concurrent.futures.process"}
        assert heavy.isdisjoint(loaded["modules"]), \
            sorted(heavy.intersection(loaded["modules"]))

    def test_tab1_runner_matches_paper_reference_values(self):
        rows = run_experiment("tab1")
        for model, paper in PAPER_TABLE1.items():
            assert rows[model]["vitality_mul_m"] == pytest.approx(paper["vitality_mul"], rel=1.2)
            assert rows[model]["baseline_mul_m"] == pytest.approx(paper["baseline_mul"], rel=0.15)
        assert rows["deit-tiny"]["ratio_mul"] > 2.5

    def test_eq1_3_runner(self):
        ratios = run_experiment("eq1_3")
        assert ratios["multiplications"] == pytest.approx(ratios["n_over_d"], rel=0.05)

    def test_tab6_runner(self):
        table = run_experiment("tab6")
        assert table["vitality"]["processors"] == ["Acc.", "Div.", "Add."]
        assert "Exp." in table["performer"]["processors"]

    def test_fig3_runner_calibrated(self):
        summary = run_experiment("fig3", quick=True, source="calibrated")
        assert summary["mean_fraction_weak_centred"] > summary["mean_fraction_weak_vanilla"]

    def test_fig3_full_size_gain(self):
        summary = run_experiment("fig3", quick=False, source="calibrated")
        assert summary["mean_gain"] > 0.1


class TestServingExperiments:
    """The beyond-the-paper serving studies, on their registered defaults."""

    @pytest.mark.parametrize("pair", ["accelerator", "cpu_platform"])
    def test_taylor_fleet_out_serves_vanilla(self, pair):
        rows = run_experiment("serve_comparison")
        taylor, vanilla = (row for label, row in rows.items() if label.startswith(pair))
        assert taylor["throughput_rps"] > vanilla["throughput_rps"]
        assert taylor["energy_per_request_mj"] < vanilla["energy_per_request_mj"]
        assert taylor["p99_ms"] < vanilla["p99_ms"]

    def test_energy_aware_routing_spares_the_gpu(self):
        rows = run_experiment("serve_fleet")
        aware, least = rows["energy-aware"], rows["least-loaded"]
        assert aware["energy_per_request_mj"] < least["energy_per_request_mj"]
        assert aware["gpu_request_share"] < least["gpu_request_share"]

    def test_continuous_batching_and_disaggregation(self):
        rows = run_experiment("disagg")

        def row(kind: str) -> dict:
            return next(row for label, row in rows.items() if kind in label)

        continuous, monolithic = row("continuous"), row("monolithic")
        colocated, disaggregated = row("colocated"), row("disaggregated")
        assert (continuous["decode_tokens_per_second"]
                > monolithic["decode_tokens_per_second"])
        assert continuous["mean_decode_batch"] > monolithic["mean_decode_batch"]
        assert disaggregated["meets_slo_pair"]
        assert not colocated["meets_slo_pair"]
        assert disaggregated["tpot_p95_ms"] < colocated["tpot_p95_ms"]
