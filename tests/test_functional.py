"""Functional ops: convolution, pooling, losses — values and gradients."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from .conftest import numerical_gradient


def scipy_conv2d_reference(x, w, b, stride, pad):
    """Direct-loop reference convolution (slow, obviously correct)."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    if b is not None:
        out += b.reshape(1, f, 1, 1)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
        ref = scipy_conv2d_reference(x, w, b, stride, pad)
        assert np.allclose(out.data, ref, atol=1e-10)

    def test_output_size_formula(self):
        assert F.conv_output_size(16, 3, 1, 1) == 16
        assert F.conv_output_size(16, 3, 2, 1) == 8
        assert F.conv_output_size(7, 5, 1, 0) == 3

    def test_depthwise_matches_per_channel_conv(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(3, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1, groups=3)
        for ch in range(3):
            ref = scipy_conv2d_reference(x[:, ch:ch + 1], w[ch:ch + 1], None, 1, 1)
            assert np.allclose(out.data[:, ch:ch + 1], ref, atol=1e-10)

    def test_grouped_conv_grads(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(6, 2, 3, 3))     # groups=2, 3 filters/group
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        (F.conv2d(xt, wt, None, padding=1, groups=2) ** 2).sum().backward()
        f = lambda: float((F.conv2d(Tensor(xt.data), Tensor(wt.data), None,
                                    padding=1, groups=2).data ** 2).sum())
        assert np.abs(numerical_gradient(f, xt.data) - xt.grad).max() < 1e-5
        assert np.abs(numerical_gradient(f, wt.data) - wt.grad).max() < 1e-5

    def test_group_validation(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(4, 1, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w, None, groups=2)       # 3 not divisible by 2

    def test_channel_mismatch_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w, None)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_overlapping(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        out = F.max_pool2d(Tensor(x), 3, stride=1)
        assert out.shape == (1, 2, 3, 3)
        assert np.allclose(out.data[0, 0, 0, 0], x[0, 0, :3, :3].max())

    def test_maxpool_grad_routes_to_argmax(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        F.max_pool2d(xt, 2).sum().backward()
        # each window contributes exactly one gradient unit
        assert np.isclose(xt.grad.sum(), 2 * 2 * 2 * 2)
        assert set(np.unique(xt.grad)) <= {0.0, 1.0}

    def test_avgpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_grad_uniform(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        F.avg_pool2d(xt, 2).sum().backward()
        assert np.allclose(xt.grad, 0.25)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        assert np.allclose(F.global_avg_pool2d(Tensor(x)).data,
                           x.mean(axis=(2, 3)))


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        p = F.softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
        assert np.allclose(p.data.sum(axis=1), 1.0)
        assert (p.data >= 0).all()

    def test_softmax_stability_large_logits(self):
        p = F.softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]])), axis=-1)
        assert np.allclose(p.data, [[0.5, 0.5, 0.0]])

    def test_log_softmax_consistency(self, rng):
        z = rng.normal(size=(4, 6))
        assert np.allclose(F.log_softmax(Tensor(z)).data,
                           np.log(F.softmax(Tensor(z)).data), atol=1e-10)

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1]))
        assert np.isclose(float(loss.data), -(np.log(0.7) + np.log(0.8)) / 2)

    def test_cross_entropy_reductions(self, rng):
        z = Tensor(rng.normal(size=(4, 5)))
        y = np.array([0, 1, 2, 3])
        per = F.cross_entropy(z, y, reduction="none")
        assert per.shape == (4,)
        assert np.isclose(float(F.cross_entropy(z, y, reduction="sum").data),
                          per.data.sum())
        assert np.isclose(float(F.cross_entropy(z, y).data), per.data.mean())
        with pytest.raises(ValueError):
            F.cross_entropy(z, y, reduction="bogus")

    def test_cross_entropy_gradient(self, rng):
        z = rng.normal(size=(3, 5))
        y = np.array([1, 0, 4])
        zt = Tensor(z.copy(), requires_grad=True)
        F.cross_entropy(zt, y).backward()
        # analytic: (softmax - onehot)/N
        p = np.exp(z - z.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        onehot = np.eye(5)[y]
        assert np.allclose(zt.grad, (p - onehot) / 3, atol=1e-10)

    def test_kl_div_zero_for_identical(self, rng):
        z = rng.normal(size=(4, 5))
        p = F.softmax(Tensor(z)).data
        kl = F.kl_div(F.log_softmax(Tensor(z)), p)
        assert abs(float(kl.data)) < 1e-6

    def test_kl_div_positive(self, rng):
        logp = F.log_softmax(Tensor(rng.normal(size=(4, 5))))
        q = F.softmax(Tensor(rng.normal(size=(4, 5)))).data
        assert float(F.kl_div(logp, q).data) > 0


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_training_scales_survivors(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        vals = np.unique(out.data)
        assert set(vals) <= {0.0, 2.0}
        assert abs(out.data.mean() - 1.0) < 0.05
