"""Extended activations — values and gradient checks."""

import numpy as np

from repro.nn import (ELU, GELU, HardSwish, LeakyReLU, Swish, Tensor, elu,
                      gelu, hard_sigmoid, hard_swish, leaky_relu, softplus,
                      swish)

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
