"""Training loop and batched evaluation."""

import numpy as np
import pytest

from repro.models import build_model
from repro.training import (evaluate_accuracy, evaluate_loss,
                            evaluate_topk_accuracy, fit, predict_labels,
                            predict_logits, predict_probs)


class TestFit:
    def test_loss_decreases(self, tiny_dataset):
        train, _ = tiny_dataset
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        result = fit(model, train.x, train.y, epochs=3, batch_size=32,
                     lr=0.03, seed=0)
        assert result.train_loss[-1] < result.train_loss[0]

    def test_deterministic_given_seed(self, tiny_dataset):
        train, val = tiny_dataset
        outs = []
        for _ in range(2):
            model = build_model("resnet", num_classes=6, width=4, seed=2)
            fit(model, train.x, train.y, epochs=1, batch_size=32, lr=0.02,
                seed=7)
            outs.append(predict_logits(model, val.x[:4]))
        assert np.allclose(outs[0], outs[1])

    def test_val_history_recorded(self, tiny_dataset):
        train, val = tiny_dataset
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        result = fit(model, train.x, train.y, epochs=2, batch_size=32,
                     lr=0.02, x_val=val.x, y_val=val.y)
        assert len(result.val_accuracy) == 2
        assert result.final_val_accuracy == result.val_accuracy[-1]

    def test_learns_above_chance(self, tiny_dataset):
        train, val = tiny_dataset
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        fit(model, train.x, train.y, epochs=5, batch_size=32, lr=0.03)
        assert evaluate_accuracy(model, val.x, val.y) > 1 / 6 + 0.15

    def test_augmentation_hook_called(self, tiny_dataset):
        train, _ = tiny_dataset
        calls = []

        def aug(xb, rng):
            calls.append(len(xb))
            return xb
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        fit(model, train.x, train.y, epochs=1, batch_size=32, augment=aug)
        assert sum(calls) == len(train.x)

    def test_model_left_in_eval_mode(self, tiny_dataset):
        train, _ = tiny_dataset
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        fit(model, train.x, train.y, epochs=1, batch_size=32)
        assert not model.training


class TestEvaluate:
    def test_probs_normalized(self, tiny_model, tiny_dataset):
        _, val = tiny_dataset
        p = predict_probs(tiny_model, val.x[:10])
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_batching_invariant(self, tiny_model, tiny_dataset):
        _, val = tiny_dataset
        a = predict_logits(tiny_model, val.x[:10], batch_size=3)
        b = predict_logits(tiny_model, val.x[:10], batch_size=10)
        assert np.allclose(a, b)

    def test_topk_at_least_top1(self, tiny_model, tiny_dataset):
        _, val = tiny_dataset
        top1 = evaluate_accuracy(tiny_model, val.x, val.y)
        top3 = evaluate_topk_accuracy(tiny_model, val.x, val.y, k=3)
        assert top3 >= top1

    def test_topk_full_is_one(self, tiny_model, tiny_dataset):
        _, val = tiny_dataset
        assert evaluate_topk_accuracy(tiny_model, val.x, val.y, k=6) == 1.0

    def test_loss_positive(self, tiny_model, tiny_dataset):
        _, val = tiny_dataset
        assert evaluate_loss(tiny_model, val.x, val.y) > 0


_ZERO_ROW_MODELS = {
    "lenet": (dict(num_classes=6, in_channels=1, image_size=12, width=4),
              (5, 1, 12, 12), 6),
    "resnet": (dict(num_classes=6, width=4), (5, 3, 12, 12), 6),
    "mobilenet": (dict(num_classes=6, width=4), (5, 3, 12, 12), 6),
    "vggface": (dict(num_identities=8, image_size=16, width=4,
                     embed_dim=8), (5, 3, 16, 16), 8),
}


class TestZeroRows:
    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("name", sorted(_ZERO_ROW_MODELS))
    def test_empty_batch_predicts_empty(self, name, compiled):
        from repro.nn.graph import compile_forward
        kwargs, shape, classes = _ZERO_ROW_MODELS[name]
        model = build_model(name, **kwargs)
        model.eval()
        x = np.random.default_rng(0).random(shape)
        ex = compile_forward(model, x) if compiled else None
        logits = predict_logits(model, x[:0], executor=ex)
        assert logits.shape == (0, classes)
        assert logits.dtype == predict_logits(model, x, executor=ex).dtype
        assert predict_labels(model, x[:0], executor=ex).shape == (0,)


class TestModeRestored:
    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_loss_keeps_the_mode(self, training):
        model, x = build_model("resnet", num_classes=6, width=4), \
            np.random.default_rng(0).random((4, 3, 12, 12))
        model.train(training)
        evaluate_loss(model, x, np.arange(4) % 6)
        assert model.training is training

    @pytest.mark.parametrize("fn", [predict_logits, evaluate_loss])
    def test_raising_forward_keeps_train_mode(self, fn):
        from repro.nn.module import Module

        class Boom(Module):
            def forward(self, x):
                raise RuntimeError("boom")

        model = Boom()
        model.train()
        with pytest.raises(RuntimeError, match="boom"):
            if fn is evaluate_loss:
                fn(model, np.zeros((2, 3)), np.zeros(2, dtype=int))
            else:
                fn(model, np.zeros((2, 3)))
        assert model.training
