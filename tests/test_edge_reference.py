"""The eager int8 reference: its float64-carried GEMMs against an int64
oracle, the requantization headroom its layers check at construction,
and the validated build run that answers a shape's first predict."""

import warnings

import numpy as np
import pytest

from repro.edge import (Dequantize, EdgeModel, EdgeProgram, QConv2d,
                        QLinear, QuantizeInput)
from repro.nn.functional import _im2col
from repro.quantization.affine import (QuantParams, quantize_multiplier,
                                       requantize)
from repro.serve.faults import FaultInjector, FaultSpec, inject

from .test_edge_lanes import _rows, vgg32  # noqa: F401 (fixture)
from .test_edge_program import _per_tensor

INT64_MAX = np.iinfo(np.int64).max


# -- the int64 oracle: integer matmuls and a per-channel requantize ------ #
def _oracle_requant(op, acc):
    """``acc`` (int64, channels on axis 1) -> the op's int32 grid, one
    channel at a time through :func:`requantize`."""
    out = np.empty_like(acc)
    for f in range(acc.shape[1]):
        i = f if op.per_channel else 0
        out[:, f] = requantize(acc[:, f], int(op.m0[i]), int(op.shift[i]))
    out += int(op.out_qp.zero_point)
    return np.clip(out, op.out_qp.qmin, op.out_qp.qmax).astype(np.int32)


def _oracle_conv(op, q):
    centered = q.astype(np.int64) - int(op.in_qp.zero_point)
    F, _, kh, kw = op.q_weight.shape
    cols, (oh, ow) = _im2col(centered, kh, kw, op.stride, op.stride,
                             op.padding, op.padding)
    N, C, G = len(q), q.shape[1], op.groups
    cols = cols.reshape(N, G, C // G, kh, kw, oh, ow).transpose(
        0, 1, 5, 6, 2, 3, 4).reshape(N, G, oh, ow, -1)
    acc = np.einsum("ngxyk,gfk->ngfxy", cols,
                    op.q_weight.reshape(G, F // G, -1))
    acc = acc.reshape(N, F, oh, ow) + op.bias_q.reshape(1, F, 1, 1)
    assert acc.dtype == np.int64
    return _oracle_requant(op, acc)


def _oracle_linear(op, q):
    centered = q.astype(np.int64) - int(op.in_qp.zero_point)
    return _oracle_requant(op, centered @ op.q_weight.T + op.bias_q)


# -- cases --------------------------------------------------------------- #
def _grid(kind):
    """Activation grids: uint8 and int8, zero-points at and inside the
    range (a zero-point at qmin makes ``q - z`` reach 255)."""
    return {"u8": QuantParams(np.float64(0.02), np.int64(0), 0, 255),
            "u8-mid": QuantParams(np.float64(0.03), np.int64(131), 0, 255),
            "i8": QuantParams(np.float64(0.05), np.int64(-128), -128, 127),
            "i8-mid": QuantParams(np.float64(0.01), np.int64(3), -128, 127),
            }[kind]


def _weights(rng, shape, per_channel):
    """int8 weights with one all-+127 and one all--127 filter."""
    w = rng.integers(-127, 128, size=shape).astype(np.int64)
    w[0] = 127
    w[-1] = -127
    f = shape[0]
    if per_channel:
        w_qp = QuantParams(rng.uniform(0.002, 0.02, f), np.zeros(f), -127,
                           127, axis=0)
    else:
        w_qp = QuantParams(np.float64(0.01), np.int64(0), -127, 127)
    return w, w_qp


def _activations(rng, qp, shape):
    """Random grid values, plus an all-qmin and an all-qmax row."""
    q = rng.integers(qp.qmin, qp.qmax + 1, size=shape).astype(np.int32)
    q[0] = qp.qmin
    q[-1] = qp.qmax
    return q


CONVS = {   # (out filters, in channels, kernel, stride, padding, groups)
    "dense": (6, 4, 3, 1, 0, 1),
    "strided": (5, 3, 3, 2, 0, 1),
    "padded": (4, 3, 3, 1, 2, 1),
    "strided-padded-5x5": (4, 2, 5, 2, 1, 1),
    "grouped": (6, 4, 3, 2, 1, 2),
    "depthwise": (4, 4, 3, 1, 1, 4),
    "depthwise-x2": (8, 4, 3, 2, 1, 4),
    "pointwise": (7, 5, 1, 1, 0, 1),
}


class TestInt64Oracle:
    """The float64-carried GEMMs return the int64 accumulator bit for
    bit, so the eager ops equal the integer oracle byte for byte."""

    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("grid", ["u8", "u8-mid", "i8", "i8-mid"])
    @pytest.mark.parametrize("case", sorted(CONVS))
    def test_conv(self, case, grid, per_channel):
        f, c, k, stride, padding, groups = CONVS[case]
        rng = np.random.default_rng([len(case), len(grid), per_channel])
        in_qp = _grid(grid)
        w, w_qp = _weights(rng, (f, c // groups, k, k), per_channel)
        bias = rng.integers(-5000, 5000, size=f)
        op = QConv2d(w, bias, in_qp, w_qp, _per_tensor(-2, 2, 0, 255),
                     stride=stride, padding=padding, groups=groups)
        q = _activations(rng, in_qp, (3, c, 9, 8))
        got = op(q)
        assert got.dtype == np.int32
        assert got.tobytes() == _oracle_conv(op, q).tobytes()

    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("grid", ["u8", "u8-mid", "i8", "i8-mid"])
    def test_linear(self, grid, per_channel):
        rng = np.random.default_rng([len(grid), per_channel, 7])
        in_qp = _grid(grid)
        w, w_qp = _weights(rng, (9, 300), per_channel)
        bias = rng.integers(-50000, 50000, size=9)
        op = QLinear(w, bias, in_qp, w_qp, _per_tensor(-40, 40, -128, 127))
        q = _activations(rng, in_qp, (5, 300))
        got = op(q)
        assert got.dtype == np.int32
        assert got.tobytes() == _oracle_linear(op, q).tobytes()

    @pytest.mark.parametrize("layer", ["conv", "linear"])
    def test_cancelling_bias_exposes_the_accumulator(self, layer):
        """All-127 filters and a bias that cancels the all-qmax
        accumulator leave small, unclamped outputs, so a carrier that
        rounded the ~2**26 (conv) or ~2**31 (linear) sums would show."""
        in_qp = _grid("u8")                       # |q - z| <= 255
        w_qp = QuantParams(np.float64(0.01), np.int64(0), -127, 127)
        out_qp = QuantParams(np.float64(0.0004), np.int64(128), 0, 255)
        shape = (2, 256, 3, 3) if layer == "conv" else (2, 50000)
        k = int(np.prod(shape[1:]))
        w = np.full(shape, 127, dtype=np.int64)
        bias = np.full(2, 100 - k * 127 * 255)
        op = (QConv2d if layer == "conv" else QLinear)(w, bias, in_qp,
                                                       w_qp, out_qp)
        q = np.full((4,) + shape[1:], 255, dtype=np.int32)
        for r in range(4):                 # row r: accumulator 100 - 127r
            q[r].reshape(-1)[:r] = 254
        got = op(q)
        oracle = (_oracle_conv if layer == "conv" else _oracle_linear)(op, q)
        assert got.tobytes() == oracle.tobytes()
        assert 0 < got[:3].min() and got[:3].max() < 255

    def test_linear_at_the_headroom(self):
        """The widest QLinear the headroom admits, at its extreme
        accumulators, is still the oracle's bytes."""
        op, _ = _headroom_linear(0)
        q = np.array([[127] * op.q_weight.shape[1],
                      [-128] * op.q_weight.shape[1]], dtype=np.int32)
        assert op(q).tobytes() == _oracle_linear(op, q).tobytes()


def _headroom_linear(extra):
    """A one-output all-127 QLinear on an int8 grid with zero-point -128
    (``|q - z| <= 255``), ``extra`` inputs wider than the widest whose
    ``bound * m0 + rounding`` fits int64; returns ``(op, K)``, or
    ``(None, K)`` when construction refused."""
    in_qp = QuantParams(np.float64(0.75), np.int64(-128), -128, 127)
    w_qp = QuantParams(np.float64(1.0), np.int64(0), -127, 127)
    out_qp = QuantParams(np.float64(1.0), np.int64(0), -128, 127)
    m0, shift = quantize_multiplier(0.75)
    rounding = 1 << (31 + shift - 1)
    k = (INT64_MAX - rounding) // m0 // (127 * 255) + extra
    w = np.full((1, k), 127, dtype=np.int64)
    try:
        return QLinear(w, np.zeros(1, np.int64), in_qp, w_qp, out_qp), k
    except ValueError:
        return None, k


class TestRequantHeadroom:
    """A layer whose ``acc * m0`` could overflow int64 refuses at
    construction instead of silently wrapping."""

    def test_wide_linear_refuses(self):
        in_qp = QuantParams(np.float64(0.75), np.int64(-128), -128, 127)
        w_qp = QuantParams(np.float64(1.0), np.int64(0), -127, 127)
        out_qp = QuantParams(np.float64(1.0), np.int64(0), -128, 127)
        w = np.full((1, 200000), 127, dtype=np.int64)
        with pytest.raises(ValueError, match="overflows int64"):
            QLinear(w, np.zeros(1, np.int64), in_qp, w_qp, out_qp)

    def test_check_is_exact(self):
        op, k = _headroom_linear(0)
        assert op is not None
        assert _headroom_linear(1) == (None, k + 1)

    def test_bias_counts(self):
        """The bias is part of the bound: one bias unit past the limit
        refuses a layer whose weights alone fit."""
        op, k = _headroom_linear(0)
        m0, rounding = int(op.m0[0]), 1 << (30 + int(op.shift[0]))
        slack = (INT64_MAX - rounding) // m0 - k * 127 * 255
        for bias, ok in ((slack, True), (slack + 1, False)):
            args = (op.q_weight, np.array([-bias]), op.in_qp, op.w_qp,
                    op.out_qp)
            if ok:
                QLinear(*args)
            else:
                with pytest.raises(ValueError, match="overflows int64"):
                    QLinear(*args)

    def test_program_lowers_every_layer_the_reference_admits(self):
        """The program has no headroom rule of its own: the widest
        QLinear construction admits, its bound well past 2**31, lowers
        with no warning and returns the eager bytes, extremes included."""
        op, k = _headroom_linear(0)
        assert 2 ** 31 < 127 * 255 * k
        edge = EdgeModel([QuantizeInput(op.in_qp), op,
                          Dequantize(op.out_qp)], 1)
        x = np.zeros((4, k))            # q = -128 = z_in: accumulator 0
        x[1, 0] = x[2, -1] = 0.75       # one input at q = -127: 127 * 0.75
        x[3] = 1000.0                   # every input at qmax: the bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = edge.predict(x)
        assert list(edge._programs.values()) != [None]
        assert got.tobytes() == edge.predict(x, compiled=False).tobytes()
        assert got.ravel().tolist() == [0.0, 95.0, 95.0, 127.0]

    def test_wide_conv_refuses(self):
        in_qp = QuantParams(np.float64(0.75), np.int64(0), 0, 255)
        w_qp = QuantParams(np.full(2, 1.0), np.zeros(2), -127, 127, axis=0)
        out_qp = QuantParams(np.float64(1.0), np.int64(0), 0, 255)
        w = np.full((2, 25000, 3, 3), 127, dtype=np.int64)
        w[0] = 1                       # filter 1 alone is past the limit
        with pytest.raises(ValueError, match="QConv2d"):
            QConv2d(w, np.zeros(2, np.int64), in_qp, w_qp, out_qp)


class TestFirstPredict:
    """The build's validation run answers the first predict of a shape."""

    @pytest.fixture
    def edge(self, vgg32):
        return EdgeModel(vgg32.ops, 50)

    def _count_runs(self, monkeypatch):
        runs = []
        real = EdgeProgram.run

        def counted(prog, x):
            runs.append(len(x))
            return real(prog, x)
        monkeypatch.setattr(EdgeProgram, "run", counted)
        return runs

    @pytest.mark.parametrize("n", [7, 64])
    def test_first_predict_runs_the_program_once(self, edge, n,
                                                 monkeypatch):
        runs = self._count_runs(monkeypatch)
        x = _rows(edge, n, "float32")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = edge.predict(x)
        assert runs == [n]
        assert got.tobytes() == edge.predict(x, compiled=False).tobytes()
        again = edge.predict(x)
        assert runs == [n, n]
        assert again.tobytes() == got.tobytes()

    def test_each_new_shape_in_one_predict(self, edge, monkeypatch):
        """A predict split into chunks builds a program per new chunk
        shape; each build's run answers its own chunk."""
        runs = self._count_runs(monkeypatch)
        x = _rows(edge, 40, "float32")
        got = edge.predict(x, batch_size=16)
        assert runs == [16, 16, 8]
        assert len(edge._programs) == 2
        assert got.tobytes() == edge.predict(x, compiled=False).tobytes()

    def test_corrupted_validation_still_falls_back(self, edge):
        x = _rows(edge, 64, "float32")
        inj = FaultInjector([FaultSpec("edge.plan.validate", "corrupt",
                                       rate=1.0)])
        with inject(inj), pytest.warns(RuntimeWarning,
                                       match="lowering failed"):
            got = edge.predict(x)
        assert inj.fired("edge.plan.validate") == 1
        assert list(edge._programs.values()) == [None]
        assert got.tobytes() == edge._eager_forward(x).tobytes()

    def test_fallback_model_answers_eagerly(self):
        """A shape pinned to the eager loop answers from the loop, on
        the first predict and every later one."""
        rng = np.random.default_rng(5)
        in_qp = _per_tensor(-1, 1, 0, 255)
        w = rng.integers(-127, 128, size=(4, 3, 3, 3)).astype(np.int64)
        conv = QConv2d(w, np.zeros(4, np.int64), in_qp,
                       QuantParams(np.float64(0.01), np.int64(0), -127, 127),
                       in_qp, padding=1)
        em = EdgeModel([QuantizeInput(in_qp), conv, Dequantize(in_qp)], 4)
        x = rng.random((3, 3, 6, 6))
        inj = FaultInjector([FaultSpec("edge.plan.build", "error",
                                       rate=1.0)])
        with inject(inj), pytest.warns(RuntimeWarning):
            first = em.predict(x)
        ref = em.predict(x, compiled=False)
        assert first.tobytes() == ref.tobytes()
        assert em.predict(x).tobytes() == ref.tobytes()
