"""Tests for the synthetic dataset, data loading, metrics and the training stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticConfig, SyntheticImageNet
from repro.data.transforms import horizontal_flip, normalize_images, random_crop_pad
from repro.models import create_model
from repro.tensor import Tensor
from repro.training import (
    AverageMeter,
    DistillationConfig,
    FinetuneConfig,
    SCHEMES,
    Trainer,
    TrainingConfig,
    ViTALiTyFinetuner,
    accuracy,
    distillation_loss,
    top_k_accuracy,
)
from repro.training.distillation import combined_loss


class TestSyntheticDataset:
    def test_deterministic_given_seed(self):
        dataset = SyntheticImageNet(SyntheticConfig(seed=7))
        images_a, labels_a = dataset.generate(32, seed=1)
        images_b, labels_b = dataset.generate(32, seed=1)
        np.testing.assert_allclose(images_a, images_b)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_different_seed_differs(self):
        dataset = SyntheticImageNet()
        images_a, _ = dataset.generate(8, seed=1)
        images_b, _ = dataset.generate(8, seed=2)
        assert np.abs(images_a - images_b).max() > 0.0

    def test_shapes_and_ranges(self):
        config = SyntheticConfig(image_size=32, channels=3)
        images, labels = SyntheticImageNet(config).generate(16)
        assert images.shape == (16, 3, 32, 32)
        assert labels.shape == (16,)
        assert images.min() >= 0.0
        assert labels.max() < config.num_classes

    def test_balanced_labels(self):
        images, labels = SyntheticImageNet().generate(100)
        counts = np.bincount(labels, minlength=10)
        assert counts.min() == 10

    def test_group_structure(self):
        dataset = SyntheticImageNet(SyntheticConfig(num_classes=10, classes_per_group=2))
        assert dataset.group_of(0) == dataset.group_of(1)
        assert dataset.group_of(0) != dataset.group_of(2)

    def test_same_group_shares_global_pattern(self):
        dataset = SyntheticImageNet()
        np.testing.assert_allclose(dataset._global_pattern(dataset.group_of(0)),
                                   dataset._global_pattern(dataset.group_of(1)))

    def test_same_group_different_glyph_position(self):
        dataset = SyntheticImageNet()
        assert dataset._glyph_position(0) != dataset._glyph_position(1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=10, classes_per_group=3)
        with pytest.raises(ValueError):
            SyntheticConfig(glyph_size=20, image_size=32)

    def test_train_test_split_disjoint_noise(self):
        train_x, _, test_x, _ = SyntheticImageNet().train_test_split(16, 16)
        assert np.abs(train_x[:16] - test_x[:16]).max() > 0.0


class TestDataLoaderAndTransforms:
    def test_loader_batches(self):
        images = np.zeros((10, 3, 4, 4))
        labels = np.arange(10)
        loader = DataLoader(images, labels, batch_size=4, shuffle=False)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 3, 4, 4)
        assert batches[-1][0].shape == (2, 3, 4, 4)

    def test_loader_drop_last(self):
        loader = DataLoader(np.zeros((10, 1)), np.zeros(10), batch_size=4, drop_last=True)
        assert len(loader) == 2

    def test_loader_shuffles(self):
        labels = np.arange(32)
        loader = DataLoader(np.zeros((32, 1)), labels, batch_size=32, shuffle=True, seed=0)
        (_, batch_labels), = list(loader)
        assert not np.array_equal(batch_labels, labels)
        assert sorted(batch_labels) == list(labels)

    def test_loader_validation(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((4, 1)), np.zeros(3), batch_size=2)
        with pytest.raises(ValueError):
            DataLoader(np.zeros((4, 1)), np.zeros(4), batch_size=0)

    def test_normalize_images(self):
        out = normalize_images(np.full((2, 3, 4, 4), 0.75), mean=0.5, std=0.5)
        np.testing.assert_allclose(out, 0.5)
        with pytest.raises(ValueError):
            normalize_images(np.ones((1,)), std=0.0)

    def test_horizontal_flip_preserves_content(self, rng):
        images = rng.normal(size=(6, 3, 8, 8))
        flipped = horizontal_flip(images, probability=1.0, rng=np.random.default_rng(0))
        np.testing.assert_allclose(flipped, images[..., ::-1])

    def test_random_crop_pad_shape(self, rng):
        images = rng.normal(size=(3, 3, 16, 16))
        out = random_crop_pad(images, padding=2, rng=np.random.default_rng(0))
        assert out.shape == images.shape


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        assert accuracy(logits, np.array([1, 0, 0])) == pytest.approx(100 * 2 / 3)

    def test_top_k_accuracy(self):
        logits = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
        assert top_k_accuracy(logits, np.array([1, 0]), k=2) == pytest.approx(50.0)
        assert top_k_accuracy(logits, np.array([1, 0]), k=3) == pytest.approx(100.0)

    def test_average_meter(self):
        meter = AverageMeter()
        meter.update(1.0, weight=1)
        meter.update(3.0, weight=3)
        assert meter.average == pytest.approx(2.5)
        meter.reset()
        assert meter.average == 0.0


class TestDistillation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistillationConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DistillationConfig(temperature=0.0)
        with pytest.raises(ValueError):
            DistillationConfig(kind="medium")

    def test_soft_loss_zero_for_identical(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        loss = distillation_loss(logits, logits, DistillationConfig(kind="soft"))
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_hard_loss_uses_teacher_argmax(self, rng):
        student = Tensor(rng.normal(size=(4, 5)))
        teacher = Tensor(np.eye(5)[:4] * 10)
        loss = distillation_loss(student, teacher, DistillationConfig(kind="hard"))
        assert loss.item() > 0.0

    def test_combined_loss_interpolates(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        labels = np.array([0, 1, 2, 3])
        teacher = Tensor(rng.normal(size=(4, 5)))
        no_kd = combined_loss(logits, logits, labels, None, None)
        with_kd = combined_loss(logits, logits, labels, teacher,
                                DistillationConfig(alpha=0.5))
        assert no_kd.item() != with_kd.item()


class TestTrainerAndFinetuner:
    @pytest.fixture(scope="class")
    def tiny_finetuner(self):
        config = FinetuneConfig(model_name="deit-tiny", train_samples=64, test_samples=32,
                                pretrain_epochs=2, finetune_epochs=1, batch_size=16,
                                learning_rate=2e-3)
        return ViTALiTyFinetuner(config)

    def test_trainer_reduces_loss(self):
        model = create_model("deit-tiny", attention_mode="softmax")
        dataset = SyntheticImageNet()
        images, labels = dataset.generate(64)
        loader = DataLoader(normalize_images(images), labels, batch_size=16, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=16, learning_rate=2e-3))
        history = trainer.fit(loader)
        assert len(history) == 3
        assert history[-1].train_loss < history[0].train_loss

    def test_trainer_evaluate_returns_percentage(self, tiny_finetuner):
        model, acc = tiny_finetuner.pretrained_baseline()
        assert 0.0 <= acc <= 100.0

    def test_scheme_names_complete(self):
        assert set(SCHEMES) == {"baseline", "sparse", "lowrank", "lowrank+sparse",
                                "lowrank+sparse+kd", "vitality", "vitality+kd"}

    def test_unknown_scheme_rejected(self, tiny_finetuner):
        with pytest.raises(ValueError):
            tiny_finetuner.run_scheme("magic")

    def test_lowrank_scheme_requires_no_training(self, tiny_finetuner):
        result = tiny_finetuner.run_scheme("lowrank")
        assert result.history == []
        assert 0.0 <= result.accuracy <= 100.0

    def test_vitality_scheme_tracks_occupancy(self, tiny_finetuner):
        result = tiny_finetuner.run_scheme("vitality", epochs=1)
        assert len(result.sparse_occupancy_per_epoch) == 1
        assert 0.0 <= result.sparse_occupancy_per_epoch[0] <= 1.0
        # The mask keeps at least each row's argmax, so its density is positive.
        [epoch] = result.history
        assert 0.0 < epoch.mask_density <= 1.0

    def test_weight_transfer_preserves_values(self, tiny_finetuner):
        baseline, _ = tiny_finetuner.pretrained_baseline()
        taylor = create_model("deit-tiny", attention_mode="taylor")
        tiny_finetuner._transfer_weights(baseline, taylor)
        source = dict(baseline.named_parameters())
        for name, parameter in taylor.named_parameters():
            np.testing.assert_allclose(parameter.data, source[name].data)
