"""Generic training loop over the numpy substrate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attention.base import AttentionModule
from repro.data import DataLoader
from repro.nn.module import Module
from repro.optim import AdamW, WarmupCosineSchedule
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.training.distillation import DistillationConfig, combined_loss
from repro.training.metrics import AverageMeter, accuracy


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    warmup_epochs: int = 1
    grad_clip: float = 5.0
    label_smoothing: float = 0.0
    seed: int = 0


@dataclass
class EpochStats:
    """Per-epoch statistics collected by the trainer."""

    epoch: int
    train_loss: float
    train_accuracy: float
    eval_accuracy: float | None = None
    #: Mean occupancy (fraction of non-negligible entries) of the sparse
    #: residual component across attention layers — the Fig. 14 metric.
    sparse_occupancy: float | None = None
    #: Mean density of the predicted sparsity mask across attention layers
    #: (the fraction of entries the mask keeps).
    mask_density: float | None = None
    extra: dict[str, float] = field(default_factory=dict)


class Trainer:
    """Trains a model with cross entropy and optional knowledge distillation.

    The trainer also polls every attention module's ``last_stats`` after each
    step, aggregating the ViTALiTy sparse-component occupancy so the Fig. 14
    "sparse part vanishes over training" curve can be reproduced, and the
    density of the predicted sparsity mask beside it.
    """

    def __init__(self, model: Module, config: TrainingConfig,
                 teacher: Module | None = None,
                 distillation: DistillationConfig | None = None):
        self.model = model
        self.config = config
        self.teacher = teacher
        self.distillation = distillation if teacher is not None else None
        self.optimizer = AdamW(model.parameters(), lr=config.learning_rate,
                               weight_decay=config.weight_decay)
        total = max(config.epochs, 2)
        warmup = min(config.warmup_epochs, total - 1)
        self.schedule = WarmupCosineSchedule(self.optimizer, total_epochs=total,
                                             warmup_epochs=warmup)
        self.history: list[EpochStats] = []
        if teacher is not None:
            teacher.eval()

    # -- internals ----------------------------------------------------------------

    def _teacher_logits(self, images: Tensor) -> Tensor | None:
        if self.teacher is None:
            return None
        with no_grad():
            return Tensor(self.teacher(images).data)

    def _student_outputs(self, images: Tensor) -> tuple[Tensor, Tensor]:
        """Return (classification logits, distillation logits) for the student."""

        if getattr(self.model, "distillation", False):
            return self.model.forward_with_distillation(images)
        logits = self.model(images)
        return logits, logits

    def _attention_stats(self) -> dict[str, float]:
        occupancies = []
        densities = []
        for module in self.model.modules():
            if isinstance(module, AttentionModule) and module.last_stats:
                if "sparse_residual_occupancy" in module.last_stats:
                    occupancies.append(module.last_stats["sparse_residual_occupancy"])
                # The SPARSE baseline writes ``mask_density``, ViTALiTy's
                # sparse component ``sparse_mask_density``.
                for key in ("mask_density", "sparse_mask_density"):
                    if key in module.last_stats:
                        densities.append(module.last_stats[key])
        stats: dict[str, float] = {}
        if occupancies:
            stats["sparse_occupancy"] = float(np.mean(occupancies))
        if densities:
            stats["mask_density"] = float(np.mean(densities))
        return stats

    # -- public API ----------------------------------------------------------------

    def train_epoch(self, loader: DataLoader, epoch: int) -> EpochStats:
        self.model.train()
        loss_meter = AverageMeter("loss")
        accuracy_meter = AverageMeter("accuracy")
        occupancy_meter = AverageMeter("sparse_occupancy")
        density_meter = AverageMeter("mask_density")

        for images, labels in loader:
            images_t = Tensor(images)
            teacher_logits = self._teacher_logits(images_t)
            class_logits, distillation_logits = self._student_outputs(images_t)
            if self.distillation is not None and teacher_logits is not None:
                loss = combined_loss(class_logits, distillation_logits, labels,
                                     teacher_logits, self.distillation)
            else:
                loss = cross_entropy(class_logits, labels,
                                     label_smoothing=self.config.label_smoothing)
            self.optimizer.zero_grad()
            loss.backward()
            if self.config.grad_clip:
                self.optimizer.clip_grad_norm(self.config.grad_clip)
            self.optimizer.step()

            batch = len(labels)
            loss_meter.update(float(loss.data), batch)
            accuracy_meter.update(accuracy(class_logits, labels), batch)
            attention_stats = self._attention_stats()
            if "sparse_occupancy" in attention_stats:
                occupancy_meter.update(attention_stats["sparse_occupancy"], batch)
            if "mask_density" in attention_stats:
                density_meter.update(attention_stats["mask_density"], batch)

        self.schedule.step()
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_meter.average,
            train_accuracy=accuracy_meter.average,
            sparse_occupancy=occupancy_meter.average if occupancy_meter.weight else None,
            mask_density=density_meter.average if density_meter.weight else None,
        )
        self.history.append(stats)
        return stats

    def evaluate(self, loader: DataLoader) -> float:
        """Top-1 accuracy (percent) of the model in eval mode."""

        self.model.eval()
        meter = AverageMeter("accuracy")
        with no_grad():
            for images, labels in loader:
                logits = self.model(Tensor(images))
                meter.update(accuracy(logits, labels), len(labels))
        self.model.train()
        return meter.average

    def fit(self, train_loader: DataLoader, eval_loader: DataLoader | None = None) -> list[EpochStats]:
        """Run the full training schedule, evaluating after each epoch."""

        for epoch in range(1, self.config.epochs + 1):
            stats = self.train_epoch(train_loader, epoch)
            if eval_loader is not None:
                stats.eval_accuracy = self.evaluate(eval_loader)
        return self.history
