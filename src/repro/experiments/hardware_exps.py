"""Hardware experiments: Figs. 11-12, Tables III/V/VI and the SALO comparison.

Every simulation here routes through :mod:`repro.engine` — experiments only
declare *what* to run (:class:`~repro.engine.RunSpec`) and compute ratios on
the uniform :class:`~repro.engine.RunResult`; the engine owns target
construction, peak scaling and result memoisation.  Tables III and VI read
static configuration inventories and need no simulation.
"""

from __future__ import annotations

from repro.engine import RunSpec, get_target, simulate
from repro.fold import left_sum
from repro.hardware import (
    SangerAcceleratorConfig,
    ViTALiTyAcceleratorConfig,
    linear_attention_processor_requirements,
)
from repro.workloads import list_workloads

#: Paper-reported average speedups / energy-efficiency gains.
PAPER_FIG11_AVERAGE = {"gpu": 2.0, "sanger": 3.0, "edge_gpu": 30.0, "cpu": 53.0}
PAPER_FIG12_AVERAGE = {"sanger": 3.0, "gpu": 73.0, "edge_gpu": 67.0, "cpu": 115.0}
PAPER_ATTENTION_SPEEDUP = {"cpu": 236.0, "edge_gpu": 239.0, "gpu": 9.0, "sanger": 7.0}
PAPER_ATTENTION_ENERGY = {"cpu": 537.0, "edge_gpu": 309.0, "gpu": 187.0, "sanger": 6.0}

#: Table III from the paper, keyed like :func:`table3_configurations`.
PAPER_TABLE3 = {"vitality": {"total_area_mm2": 5.223, "total_power_mw": 1460},
                "sanger": {"total_area_mm2": 5.194, "total_power_mw": 1450}}

#: Table V from the paper (DeiT-Base, uJ), keyed like :func:`table5_dataflow_energy`.
PAPER_TABLE5 = {"deit-base": {
    "g_stationary": {"overall_uj": 222.0, "data_access_uj": 2.92},
    "down_forward": {"overall_uj": 198.0, "data_access_uj": 3.76},
}}

#: Section V-C: attention speedup over SALO the paper reports.
PAPER_SALO = {"deit-tiny": 4.7, "deit-small": 5.0}

#: Baselines of Figs. 11-12: Sanger and the general-purpose platforms.
FIG11_12_BASELINES = ("sanger", "cpu", "edge_gpu", "gpu")


def _fig11_12_rows(models: tuple[str, ...] | None, latency: bool,
                   baselines: tuple[str, ...] = FIG11_12_BASELINES,
                   ) -> dict[str, dict[str, float]]:
    """Shared Fig. 11 (latency) / Fig. 12 (energy) structure.

    For each model, ViTALiTy is compared end-to-end and attention-only
    against each baseline with its PE array scaled to the baseline's peak
    throughput (the paper's comparison methodology).  The engine drops a
    scale at or below ViTALiTy's own peak, so Sanger is compared as-is.
    Attention-only baselines (SALO) get no end-to-end ratio: their
    attention-only total against ViTALiTy's full model would understate
    their cost (the paper compares SALO on attention only).
    """

    def _end_to_end(result):
        return result.end_to_end_latency if latency else result.end_to_end_energy

    def _attention(result):
        return result.attention_latency if latency else result.attention_energy

    models = models or tuple(list_workloads())
    rows: dict[str, dict[str, float]] = {}
    for model in models:
        row: dict[str, float] = {}
        for baseline in baselines:
            own = simulate(RunSpec(
                model, target="vitality",
                scale_to_peak=get_target(baseline).peak_macs_per_second))
            other = simulate(RunSpec(model, target=baseline))
            if other.linear_latency > 0.0 or own.linear_latency == 0.0:
                row[baseline] = _end_to_end(other) / _end_to_end(own)
            row[f"attention_{baseline}"] = _attention(other) / _attention(own)
        rows[model] = row
    return rows


def fig11_latency_speedup(models: tuple[str, ...] | None = None) -> dict[str, dict[str, float]]:
    """Fig. 11: end-to-end (and attention-only) latency speedup of ViTALiTy.

    Returns ``{model: {baseline: speedup}}`` for the CPU / edge GPU / GPU
    platform models and the Sanger accelerator, plus ``attention_*`` entries
    for the attention-only speedups quoted in the text.
    """

    return _fig11_12_rows(models, latency=True)


def fig12_energy_efficiency(models: tuple[str, ...] | None = None) -> dict[str, dict[str, float]]:
    """Fig. 12: end-to-end (and attention-only) energy-efficiency improvement."""

    return _fig11_12_rows(models, latency=False)


def table3_configurations() -> dict[str, dict[str, float]]:
    """Table III: area/power inventories of the ViTALiTy and Sanger accelerators."""

    vitality = ViTALiTyAcceleratorConfig()
    sanger = SangerAcceleratorConfig()
    return {
        "vitality": {
            "total_area_mm2": vitality.total_area_mm2,
            "total_power_mw": vitality.total_power_mw,
            "sa_general_area_mm2": vitality.sa_general.area_mm2,
            "sa_general_power_mw": vitality.sa_general.power_mw,
        },
        "sanger": {
            "total_area_mm2": sanger.total_area_mm2,
            "total_power_mw": sanger.total_power_mw,
            "re_pe_area_mm2": sanger.re_pe_array.area_mm2,
            "re_pe_power_mw": sanger.re_pe_array.power_mw,
        },
    }


def table5_dataflow_energy(models: tuple[str, ...] = ("deit-base", "mobilevit-xxs",
                                                      "mobilevit-xs", "levit-128s", "levit-128")
                           ) -> dict[str, dict[str, dict[str, float]]]:
    """Table V: Taylor-attention energy under G-stationary vs down-forward dataflows."""

    rows: dict[str, dict[str, dict[str, float]]] = {}
    for model in models:
        per_dataflow: dict[str, dict[str, float]] = {}
        for dataflow in ("g_stationary", "down_forward"):
            result = simulate(RunSpec(model, target="vitality", dataflow=dataflow))
            breakdown = result.breakdown()
            per_dataflow[dataflow] = {
                "data_access_uj": breakdown["data_access"] * 1e6,
                "other_processors_uj": breakdown["other_processors"] * 1e6,
                "systolic_array_uj": breakdown["systolic_array"] * 1e6,
                "overall_uj": left_sum(breakdown.values()) * 1e6,
            }
        rows[model] = per_dataflow
    return rows


def table6_extension() -> dict[str, dict[str, object]]:
    """Table VI: pre/post-processors required by each linear-attention family."""

    requirements = linear_attention_processor_requirements()
    return {
        name: {
            "attention_type": req.attention_type,
            "model": req.model,
            "detail": req.detail,
            "processors": req.processor_list(),
        }
        for name, req in requirements.items()
    }


def salo_comparison(models: tuple[str, ...] = ("deit-tiny", "deit-small")) -> dict[str, float]:
    """Section V-C: attention speedup of ViTALiTy over SALO under the same budget."""

    speedups: dict[str, float] = {}
    for model in models:
        own = simulate(RunSpec(model, target="vitality", include_linear=False))
        other = simulate(RunSpec(model, target="salo"))
        speedups[model] = other.attention_latency / own.attention_latency
    return speedups


def pipeline_ablation(model: str = "deit-tiny") -> dict[str, float]:
    """Design-choice ablation: intra-layer pipelining on vs off."""

    pipelined = simulate(RunSpec(model, target="vitality", include_linear=False))
    sequential = simulate(RunSpec(model, target="vitality-unpipelined", include_linear=False))
    return {
        "pipelined_attention_ms": pipelined.attention_latency * 1e3,
        "sequential_attention_ms": sequential.attention_latency * 1e3,
        "throughput_gain": sequential.attention_latency / pipelined.attention_latency,
    }
