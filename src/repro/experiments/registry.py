"""Registry mapping experiment identifiers to their driver callables.

Each driver is named as ``"module.function"`` within
:mod:`repro.experiments`, and its module is imported the first time the
driver is asked for.  Listing experiments imports no driver, and running a
hardware, serving or planning experiment never loads the NumPy training
stack that the accuracy drivers import.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: its id, what it reproduces, and its driver.

    ``driver`` names the callable as ``"module.function"`` within
    :mod:`repro.experiments`, e.g. ``"hardware_exps.fig11_latency_speedup"``.
    """

    identifier: str
    title: str
    paper_reference: str
    driver: str

    @property
    def runner(self) -> Callable[..., object]:
        """The driver callable, importing its module on first use."""

        module, _, function = self.driver.rpartition(".")
        return getattr(importlib.import_module(f"repro.experiments.{module}"),
                       function)

    def run(self, **kwargs):
        return self.runner(**kwargs)


_EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _register(identifier: str, title: str, paper_reference: str,
              driver: str) -> None:
    _EXPERIMENTS[identifier] = ExperimentSpec(identifier, title, paper_reference, driver)


_register("fig1", "MHA runtime breakdown across platforms", "Figure 1",
          "profiling_exps.fig1_runtime_breakdown")
_register("fig3", "Attention distribution under mean-centering", "Figure 3",
          "accuracy_exps.fig3_attention_distribution")
_register("tab1", "Operation counts: ViTALiTy vs vanilla attention", "Table I",
          "complexity.table1_op_counts")
_register("tab2", "Per-step latency profile on the edge GPU", "Table II",
          "profiling_exps.table2_latency_profile")
_register("tab3", "Accelerator configurations (area/power)", "Table III",
          "hardware_exps.table3_configurations")
_register("tab4_flops", "Attention FLOPs per method", "Table IV (FLOPs column)",
          "complexity.table4_flops")
_register("tab4_accuracy", "Accuracy per method", "Table IV (accuracy column)",
          "accuracy_exps.table4_accuracy")
_register("fig10", "Accuracy of method variants across models", "Figure 10",
          "accuracy_exps.fig10_accuracy")
_register("fig11", "End-to-end latency speedup", "Figure 11",
          "hardware_exps.fig11_latency_speedup")
_register("fig12", "End-to-end energy efficiency", "Figure 12",
          "hardware_exps.fig12_energy_efficiency")
_register("fig13", "Training-scheme ablation on DeiT-Tiny", "Figure 13",
          "accuracy_exps.fig13_training_ablation")
_register("fig14", "Sparse component vanishing over training", "Figure 14",
          "accuracy_exps.fig14_sparsity_vanishing")
_register("fig15", "Sparsity-threshold sweep", "Figure 15",
          "accuracy_exps.fig15_threshold_sweep")
_register("tab5", "Dataflow ablation: G-stationary vs down-forward", "Table V",
          "hardware_exps.table5_dataflow_energy")
_register("tab6", "Accelerator extension to other linear attentions", "Table VI",
          "hardware_exps.table6_extension")
_register("salo", "Attention speedup over the SALO accelerator", "Section V-C",
          "hardware_exps.salo_comparison")
_register("pipeline_ablation", "Intra-layer pipeline on/off ablation", "Section IV-C",
          "hardware_exps.pipeline_ablation")
_register("eq1_3", "Closed-form operation-count ratios", "Equations (1)-(3)",
          "complexity.closed_form_ratios")
_register("serve_comparison", "Serving under load: taylor vs vanilla fleets",
          "beyond the paper", "serving_exps.serving_comparison")
_register("serve_fleet", "Heterogeneous-fleet routing under bursty traffic",
          "beyond the paper", "serving_exps.serving_fleet_study")
_register("dse", "Design-space exploration: PE array x frequency x SRAM Pareto",
          "beyond the paper", "dse_exps.explore_design_space")
_register("roofline", "Bandwidth-aware roofline DSE: PE array x DRAM bandwidth",
          "beyond the paper", "dse_exps.roofline_experiment")
_register("seqscale", "Sequence-length scaling: vanilla/taylor crossover",
          "beyond the paper", "seqscale_exps.seqscale_experiment")
_register("capacity", "SLO-driven capacity planning: cheapest fleet meeting p99",
          "beyond the paper", "plan_exps.capacity_planning")
_register("autoscale", "Autoscaling vs a peak-sized static fleet (diurnal load)",
          "beyond the paper", "plan_exps.autoscale_study")
_register("disagg", "Continuous batching and prefill/decode disaggregation",
          "beyond the paper", "llm_exps.continuous_vs_disaggregated")
_register("rag", "RAG pipeline serving: joint pool sizing and cascade "
                 "draft-verify", "beyond the paper",
          "pipeline_exps.rag_pipeline_study")


def list_experiments() -> list[str]:
    """Identifiers of every registered experiment."""

    return sorted(_EXPERIMENTS)


def get_experiment(identifier: str) -> ExperimentSpec:
    """Look up an experiment by identifier (e.g. ``"fig11"``)."""

    try:
        return _EXPERIMENTS[identifier]
    except KeyError:
        raise KeyError(
            f"unknown experiment {identifier!r}; available: {list_experiments()}"
        ) from None


def run_experiment(identifier: str, **kwargs):
    """Run one experiment by identifier and return its result structure."""

    return get_experiment(identifier).run(**kwargs)
