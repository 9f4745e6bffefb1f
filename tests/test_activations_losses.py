"""Extended activations and losses — values and gradient checks."""

import numpy as np
import pytest

from repro.nn import (ELU, GELU, HardSwish, LeakyReLU, Swish, Tensor, elu,
                      gelu, hard_sigmoid, hard_swish, leaky_relu, softplus,
                      swish)
from repro.nn import losses as L

from .conftest import numerical_gradient


def gradcheck(fn, shape, tol=1e-5, seed=0, positive=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if positive:
        x = np.abs(x) + 0.1
    xt = Tensor(x.copy(), requires_grad=True)
    fn(xt).sum().backward()
    f = lambda: float(fn(Tensor(xt.data)).data.sum())
    err = np.abs(numerical_gradient(f, xt.data) - xt.grad).max()
    assert err < tol, f"gradcheck failed: {err}"


class TestActivations:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        assert np.allclose(leaky_relu(x, 0.1).data, [-0.2, 0.0, 3.0])

    def test_leaky_relu_grad(self):
        gradcheck(lambda x: leaky_relu(x, 0.1), (4, 3))

    def test_elu_values(self):
        x = Tensor(np.array([-1.0, 2.0]))
        out = elu(x, 1.0)
        assert np.isclose(out.data[0], np.exp(-1) - 1)
        assert np.isclose(out.data[1], 2.0)

    def test_elu_grad(self):
        gradcheck(lambda x: elu(x), (4, 3))

    def test_softplus_matches_reference(self, rng):
        x = rng.normal(size=20) * 5
        out = softplus(Tensor(x)).data
        assert np.allclose(out, np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0),
                           atol=1e-10)

    def test_softplus_no_overflow(self):
        out = softplus(Tensor(np.array([1000.0, -1000.0])))
        assert np.isfinite(out.data).all()

    def test_gelu_values(self):
        # GELU(0)=0; GELU(x) ~ x for large x; ~0 for very negative x
        out = gelu(Tensor(np.array([0.0, 10.0, -10.0])))
        assert np.isclose(out.data[0], 0.0)
        assert np.isclose(out.data[1], 10.0, atol=1e-3)
        assert np.isclose(out.data[2], 0.0, atol=1e-3)

    def test_gelu_grad(self):
        gradcheck(gelu, (3, 5), tol=1e-4)

    def test_swish_grad(self):
        gradcheck(swish, (3, 4))

    def test_hard_sigmoid_range(self, rng):
        out = hard_sigmoid(Tensor(rng.normal(size=50) * 10)).data
        assert out.min() >= 0 and out.max() <= 1

    def test_hard_swish_matches_composition(self, rng):
        x = rng.normal(size=10)
        a = hard_swish(Tensor(x)).data
        b = x * np.clip(x / 6 + 0.5, 0, 1)
        assert np.allclose(a, b)

    def test_layer_wrappers(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        for layer in (LeakyReLU(), ELU(), GELU(), Swish(), HardSwish()):
            assert layer(x).shape == (2, 4)


class TestLosses:
    def test_label_smoothing_reduces_to_ce_at_zero(self, rng):
        from repro.nn import functional as F
        z = Tensor(rng.normal(size=(5, 4)))
        y = np.array([0, 1, 2, 3, 0])
        a = float(L.label_smoothing_cross_entropy(z, y, smoothing=0.0).data)
        b = float(F.cross_entropy(z, y).data)
        assert np.isclose(a, b)

    def test_label_smoothing_penalizes_overconfidence(self):
        y = np.array([0])
        confident = Tensor(np.array([[50.0, 0.0, 0.0]]))
        soft = Tensor(np.array([[3.0, 0.0, 0.0]]))
        ls = lambda z: float(L.label_smoothing_cross_entropy(z, y, 0.2).data)
        # with smoothing, extreme confidence costs more than moderate
        assert ls(confident) > ls(soft)

    def test_label_smoothing_validation(self, rng):
        z = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            L.label_smoothing_cross_entropy(z, np.array([0, 1]), smoothing=1.0)

    def test_bce_matches_reference(self, rng):
        z = rng.normal(size=10) * 3
        t = (rng.random(10) > 0.5).astype(float)
        got = float(L.binary_cross_entropy_with_logits(Tensor(z), t).data)
        p = 1 / (1 + np.exp(-z))
        want = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert np.isclose(got, want, atol=1e-8)

    def test_bce_gradcheck(self, rng):
        t = (rng.random(6) > 0.5).astype(float)
        gradcheck(lambda z: L.binary_cross_entropy_with_logits(z, t), (6,))

    def test_multi_margin_zero_when_separated(self):
        z = Tensor(np.array([[10.0, 0.0, 0.0]]))
        loss = L.multi_margin_loss(z, np.array([0]), margin=1.0)
        assert float(loss.data) == 0.0

    def test_multi_margin_positive_when_violated(self):
        z = Tensor(np.array([[0.0, 10.0, 0.0]]))
        assert float(L.multi_margin_loss(z, np.array([0])).data) > 0

    def test_huber_quadratic_then_linear(self):
        pred = Tensor(np.array([0.5, 10.0]))
        target = np.zeros(2)
        per = L.huber_loss(pred, target, delta=1.0, reduction="none").data
        assert np.isclose(per[0], 0.5 * 0.25)          # quadratic region
        assert np.isclose(per[1], 1.0 * (10 - 0.5))    # linear region

    def test_huber_gradcheck(self, rng):
        t = rng.normal(size=(5,))
        gradcheck(lambda p: L.huber_loss(p, t, delta=0.7), (5,), tol=1e-4)
