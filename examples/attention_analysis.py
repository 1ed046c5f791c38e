"""Analyse ViT attention distributions and the effect of mean-centering (Fig. 3).

Generates calibrated per-layer query/key tensors (mimicking pre-trained
DeiT-Tiny statistics), measures how many similarity values fall in the
"weak-connection" interval [-1, 1) before and after row-wise mean-centering,
and prints the per-layer histogram summary plus the runtime breakdown that
motivates the work (Fig. 1).

Run with:  python examples/attention_analysis.py
"""

from __future__ import annotations

from repro.attention.distribution import (
    attention_distribution_stats,
    generate_calibrated_qk,
    summarize_weak_fraction,
)
from repro.experiments.profiling_exps import fig1_runtime_breakdown


def main() -> None:
    queries, keys = generate_calibrated_qk(num_layers=12, seed=0)
    stats = attention_distribution_stats(queries, keys)

    print("Fig. 3 — fraction of similarities inside [-1, 1) per layer:")
    print(f"{'layer':>5s} {'vanilla':>9s} {'centred':>9s} {'gain':>7s}")
    for layer_stats in stats:
        print(f"{layer_stats.layer:5d} {layer_stats.fraction_weak_vanilla:9.3f} "
              f"{layer_stats.fraction_weak_centred:9.3f} {layer_stats.weak_fraction_gain:7.3f}")
    summary = summarize_weak_fraction(stats)
    print(f"\nmean vanilla {summary['mean_fraction_weak_vanilla']:.3f}  "
          f"mean centred {summary['mean_fraction_weak_centred']:.3f}  "
          f"gain {summary['mean_gain']:.3f}   (paper: 0.46 -> 0.67)")

    print("\nFig. 1 — MHA runtime breakdown per platform:")
    for platform, breakdown in fig1_runtime_breakdown("deit-tiny").items():
        print(f"  {platform:9s} QKV {breakdown['step1_qkv']:.0%}  "
              f"softmax-map {breakdown['step2_softmax_map']:.0%}  "
              f"score {breakdown['step3_attention_score']:.0%}")


if __name__ == "__main__":
    main()
