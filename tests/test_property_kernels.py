"""Property-based tests (hypothesis): the compiled programs replay the
eager tape byte for byte over drawn conv, pooling and fake-quant
geometry — the forward logits, the ones-seeded input gradient, and the
parameters after two momentum-SGD training steps."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.graph import CompiledForward, _trace
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD
from repro.nn.train_graph import compile_train_step
from repro.quantization import FakeQuantize

SETTINGS = dict(max_examples=60, deadline=None)
CLASSES = 3


@st.composite
def geometries(draw):
    """A conv (dense, grouped or depthwise, non-square kernel, stride,
    padding and image), optionally a max or avg pool, optionally a
    fake-quant on the activation or the weight, frozen or training."""
    groups = draw(st.integers(1, 3))
    cg, fg = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    size = tuple(draw(st.integers(max(1, k - 2 * p), 9))
                 for k, p in zip(kernel, padding))
    out = [F.conv_output_size(n, k, s, p)
           for n, k, s, p in zip(size, kernel, stride, padding)]
    pool = draw(st.sampled_from([None, "max", "avg"]))
    pk = ps = pp = 1
    if pool is not None:
        pk = draw(st.integers(1, min(3, *out)))
        ps = draw(st.integers(1, 2))
        pp = draw(st.integers(0, pk // 2))
        out = [F.conv_output_size(n, pk, ps, pp) for n in out]
    return dict(
        groups=groups, cin=groups * cg, cout=groups * fg, kernel=kernel,
        stride=stride, padding=padding, size=size, bias=draw(st.booleans()),
        pool=pool, pool_args=(pk, ps, pp), flat=groups * fg * out[0] * out[1],
        fq=draw(st.sampled_from([None, "frozen", "training"])),
        fq_on=draw(st.sampled_from(["activation", "weight"])),
        rows=draw(st.integers(2, 3)), seed=draw(st.integers(0, 2 ** 16)))


class _Net(Module):
    def __init__(self, geo):
        super().__init__()
        rng = np.random.default_rng(geo["seed"])
        self.geo = geo
        self.weight = Parameter(rng.normal(
            size=(geo["cout"], geo["cin"] // geo["groups"]) + geo["kernel"]))
        self.bias = Parameter(rng.normal(size=geo["cout"])) if geo["bias"] \
            else None
        self.fq = None
        if geo["fq"] is not None:
            self.fq = (FakeQuantize.for_activations()
                       if geo["fq_on"] == "activation"
                       else FakeQuantize.for_weights())
        self.fc = Linear(geo["flat"], CLASSES, rng=rng)

    def _conv(self, x):
        geo = self.geo
        w = self.weight
        if self.fq is not None and geo["fq_on"] == "weight":
            w = self.fq(w)
        h = F.conv2d(x, w, self.bias, stride=geo["stride"],
                     padding=geo["padding"], groups=geo["groups"])
        if geo["pool"] == "max":
            h = F.max_pool2d(h, *geo["pool_args"])
        elif geo["pool"] == "avg":
            h = F.avg_pool2d(h, *geo["pool_args"])
        return h

    def forward(self, x):
        h = self._conv(x)
        if self.fq is not None and self.geo["fq_on"] == "activation":
            h = self.fq(h)
        return self.fc(h.flatten(1))

    def calibrate(self, x):
        """Initialize the quantizer's grid from one observation (frozen
        quantizers then stop observing)."""
        if self.fq is None:
            return
        if self.geo["fq_on"] == "weight":
            self.fq.observer.observe(self.weight.data)
        else:
            self.fq.observer.observe(self._conv(Tensor(x)).data)
        if self.geo["fq"] == "frozen":
            self.fq.freeze()


def _inputs(geo, seed):
    rng = np.random.default_rng(seed)
    shape = (geo["rows"], geo["cin"]) + geo["size"]
    return rng.normal(size=shape), rng.integers(0, CLASSES, geo["rows"])


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _net(geo, x):
    net = _Net(geo)
    net.calibrate(x)
    return net


@given(geometries())
@settings(**SETTINGS)
def test_compiled_forward_and_input_gradient_are_the_tape_bytes(geo):
    """The program is lowered without ``compile_forward``'s validation,
    which also requires each row's bits to be independent of the batch:
    it refuses grouped (not depthwise) convs, whose input-gradient einsum
    lets BLAS contract across rows, before any comparison could run."""
    x, _ = _inputs(geo, 1)
    net = _net(geo, x)
    net.eval()
    x, tracer, out_id = _trace(net, x)
    prog = CompiledForward(tracer, out_id, x)
    xt = Tensor(x, requires_grad=True)
    out = net(xt)
    out.backward(np.ones_like(out.data))
    got, gx = prog.value_and_input_grad(x, np.ones_like(out.data))
    _same_bytes(got, out.data)
    _same_bytes(gx, xt.grad)


@given(geometries())
@settings(**SETTINGS)
def test_compiled_momentum_sgd_steps_are_the_tape_bytes(geo):
    x, y = _inputs(geo, 1)
    eager, compiled = _net(geo, x), _net(geo, x)
    eager.train()
    compiled.train()
    opt_e = SGD(eager.parameters(), lr=0.05, momentum=0.9)
    opt_c = SGD(compiled.parameters(), lr=0.05, momentum=0.9)
    prog = compile_train_step(compiled, F.cross_entropy, x, y, opt_c)
    for seed in (2, 3):
        xb, yb = _inputs(geo, seed)
        loss = F.cross_entropy(eager(Tensor(xb)), yb)
        opt_e.zero_grad()
        loss.backward()
        opt_e.step()
        prog.step(xb, yb)
    for pe, pc in zip(eager.parameters(), compiled.parameters()):
        _same_bytes(pc.data, pe.data)
