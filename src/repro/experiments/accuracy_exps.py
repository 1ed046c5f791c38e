"""Accuracy experiments: Figs. 3, 10, 13, 14, 15 and the Table IV accuracy column.

These experiments fine-tune the reduced ("trainable") model zoo on the
synthetic dataset, so absolute accuracies differ from the paper's ImageNet
numbers; what is reproduced is the *ordering* between method variants
(BASELINE >= ViTALiTy ~ LOWRANK+SPARSE > SPARSE >> LOWRANK drop-in) and the
qualitative behaviours (sparse component vanishing over epochs, threshold
sweep shape).  Every driver takes a ``quick`` flag that bounds its runtime.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.attention.distribution import (
    attention_distribution_stats,
    generate_calibrated_qk,
    summarize_weak_fraction,
)
from repro.data import SyntheticConfig
from repro.models import create_model
from repro.tensor import Tensor, no_grad
from repro.training import FinetuneConfig, SchemeResult, ViTALiTyFinetuner

#: Fig. 3 from the paper: share of similarities in [-1, 1) before and after
#: mean-centering, keyed like :func:`fig3_attention_distribution`'s summary.
PAPER_FIG3 = {"mean_fraction_weak_vanilla": 0.46, "mean_fraction_weak_centred": 0.67,
              "mean_gain": 0.21}

#: Paper accuracies (ImageNet top-1, %) from Fig. 10.
PAPER_FIG10 = {
    "deit-tiny": {"baseline": 72.2, "sparse": 71.2, "lowrank": 27.0, "vitality": 71.9},
    "deit-small": {"baseline": 79.9, "sparse": 79.2, "lowrank": 30.0, "vitality": 79.5},
    "deit-base": {"baseline": 81.8, "sparse": 80.9, "lowrank": 31.6, "vitality": 81.3},
    "mobilevit-xxs": {"baseline": 73.6, "sparse": 72.2, "lowrank": 18.7, "vitality": 72.4},
    "mobilevit-xs": {"baseline": 77.1, "sparse": 75.6, "lowrank": 20.3, "vitality": 75.7},
    "levit-128s": {"baseline": 76.6, "sparse": 74.8, "lowrank": 15.2, "vitality": 75.2},
    "levit-128": {"baseline": 78.6, "sparse": 76.3, "lowrank": 19.6, "vitality": 76.6},
}

#: Fig. 13 from the paper: DeiT-Tiny ImageNet top-1 (%) per training scheme.
PAPER_FIG13 = {"baseline": 72.2, "sparse": 71.2, "lowrank": 27.0, "lowrank+sparse": 70.7,
               "lowrank+sparse+kd": 71.9, "vitality": 70.6, "vitality+kd": 71.9}

#: Fig. 14 from the paper, which states the trend rather than per-epoch values.
PAPER_FIG14 = "non-zeros in the sparse part drop below ~1% within ~10 epochs"

#: Fig. 15 from the paper: DeiT-Tiny ImageNet top-1 (%) per sparsity threshold.
PAPER_FIG15 = {0.02: 71.2, 0.5: 71.9, 0.9: "drops (sparse part vanishes)"}

#: Table IV's accuracy column from the paper (DeiT-Tiny ImageNet top-1, %).
PAPER_TABLE4_ACCURACY = {"baseline": 72.2, "vitality": 71.9, "linformer": 69.5,
                         "performer": 68.3, "sanger": 71.2}


def _finetuner(model_name: str, quick: bool, seed: int = 0) -> ViTALiTyFinetuner:
    if quick:
        config = FinetuneConfig(model_name=model_name, train_samples=160, test_samples=80,
                                pretrain_epochs=6, finetune_epochs=4, batch_size=32, seed=seed)
    else:
        config = FinetuneConfig(model_name=model_name, train_samples=512, test_samples=256,
                                pretrain_epochs=14, finetune_epochs=10, batch_size=32, seed=seed)
    return ViTALiTyFinetuner(config)


# -- Fig. 3: attention distributions under mean-centering -------------------------------


def fig3_attention_distribution(quick: bool = True, seed: int = 0,
                                source: str = "calibrated") -> dict[str, float]:
    """Share of similarity values in [-1, 1) before/after mean-centering.

    Two sources are supported:

    * ``"calibrated"`` (default) — per-layer Q/K sampled from a generative
      model calibrated to pre-trained DeiT-Tiny statistics (the ImageNet
      checkpoint is unavailable offline); this reproduces the ~46% -> ~67%
      weak-fraction gain the paper reports.
    * ``"trained"`` — Q/K captured from our small synthetic-data baseline;
      its logits are much milder, so the gain is small — reported for
      completeness.
    """

    if source == "calibrated":
        queries, keys = generate_calibrated_qk(num_layers=12 if not quick else 6, seed=seed)
    elif source == "trained":
        finetuner = _finetuner("deit-tiny", quick=quick, seed=seed)
        model, _ = finetuner.pretrained_baseline()
        model.set_capture_qkv(True)
        images, _ = finetuner._test
        with no_grad():
            model.eval()
            model(Tensor(images[:16]))
        queries, keys, _ = model.captured_qkv()
        model.set_capture_qkv(False)
    else:
        raise ValueError(f"source must be 'calibrated' or 'trained', got {source!r}")

    stats = attention_distribution_stats(queries, keys)
    summary = summarize_weak_fraction(stats)
    summary["num_layers"] = float(len(stats))
    return summary


# -- Fig. 10: accuracy across models and methods ------------------------------------------


def fig10_accuracy(models: tuple[str, ...] = ("deit-tiny",),
                   schemes: tuple[str, ...] = ("baseline", "sparse", "lowrank", "vitality"),
                   quick: bool = True, seed: int = 0) -> dict[str, dict[str, float]]:
    """Accuracy of each method variant on each model (synthetic-dataset analogue)."""

    results: dict[str, dict[str, float]] = {}
    for model_name in models:
        finetuner = _finetuner(model_name, quick=quick, seed=seed)
        per_scheme: dict[str, float] = {}
        for scheme in schemes:
            per_scheme[scheme] = finetuner.run_scheme(scheme).accuracy
        results[model_name] = per_scheme
    return results


# -- Fig. 13: training-scheme ablation on DeiT-Tiny -----------------------------------------


def fig13_training_ablation(quick: bool = True, seed: int = 0) -> dict[str, float]:
    """Accuracy of the ablation schemes on DeiT-Tiny (LR, LR+SPARSE, +KD, ViTALiTy)."""

    finetuner = _finetuner("deit-tiny", quick=quick, seed=seed)
    schemes = ("baseline", "sparse", "lowrank", "lowrank+sparse", "lowrank+sparse+kd",
               "vitality", "vitality+kd")
    return {scheme: finetuner.run_scheme(scheme).accuracy for scheme in schemes}


# -- Fig. 14: sparse component vanishing over training ----------------------------------------


def fig14_sparsity_vanishing(quick: bool = True, seed: int = 0,
                             epochs: int | None = None) -> list[float]:
    """Per-epoch occupancy of the sparse residual component during ViTALiTy+KD training."""

    finetuner = _finetuner("deit-tiny", quick=quick, seed=seed)
    result: SchemeResult = finetuner.run_scheme("vitality+kd", epochs=epochs)
    return result.sparse_occupancy_per_epoch


# -- Fig. 15: sparsity-threshold sweep ----------------------------------------------------------


def fig15_threshold_sweep(thresholds: tuple[float, ...] = (0.002, 0.02, 0.2, 0.5, 0.9),
                          quick: bool = True, seed: int = 0) -> dict[float, dict[str, float]]:
    """Accuracy of ViTALiTy and LOWRANK+SPARSE+KD across sparsity thresholds."""

    finetuner = _finetuner("deit-tiny", quick=quick, seed=seed)
    results: dict[float, dict[str, float]] = {}
    for threshold in thresholds:
        vitality = finetuner.run_scheme("vitality+kd", vitality_threshold=threshold)
        combined = finetuner.run_scheme("lowrank+sparse+kd", vitality_threshold=threshold)
        results[threshold] = {
            "vitality": vitality.accuracy,
            "lowrank+sparse+kd": combined.accuracy,
        }
    return results


# -- Table IV: accuracy column -------------------------------------------------------------------


def table4_accuracy(quick: bool = True, seed: int = 0) -> dict[str, float]:
    """Accuracy of the methods compared in Table IV on the synthetic task (DeiT-Tiny)."""

    finetuner = _finetuner("deit-tiny", quick=quick, seed=seed)
    accuracies = {
        "baseline": finetuner.run_scheme("baseline").accuracy,
        "vitality": finetuner.run_scheme("vitality").accuracy,
        "sanger": finetuner.run_scheme("sparse").accuracy,
    }
    # The linear-attention comparators are fine-tuned directly with their
    # attention mechanism substituted into the baseline weights.
    for method in ("linformer", "performer"):
        accuracies[method] = _finetune_linear_baseline(finetuner, method)
    return accuracies


def _finetune_linear_baseline(finetuner: ViTALiTyFinetuner, method: str) -> float:
    from repro.training.trainer import Trainer, TrainingConfig

    baseline, _ = finetuner.pretrained_baseline()
    model = create_model(finetuner.config.model_name, attention_mode=method,
                         preset=finetuner.config.preset,
                         num_classes=finetuner.config.num_classes)
    finetuner._transfer_weights(baseline, model)
    trainer = Trainer(model, TrainingConfig(epochs=finetuner.config.finetune_epochs,
                                            batch_size=finetuner.config.batch_size,
                                            learning_rate=finetuner.config.finetune_learning_rate,
                                            seed=finetuner.config.seed))
    trainer.fit(finetuner.train_loader())
    return trainer.evaluate(finetuner.test_loader())
