"""Compiled edge programs: bit-exactness vs the eager integer op loop,
fusion rules, planned-buffer routing and fallback purity."""

import warnings

import numpy as np
import pytest

from repro.edge import (Dequantize, EdgeLoweringError, EdgeModel, EdgeOp,
                        EdgeProgram, QConv2d, QFlatten, QLinear, QMaxPool2d,
                        QReLU, QuantizeInput, compile_edge, load_edge_model,
                        save_edge_model)
from repro.edge.program import (_ConvStep, _DequantStep, _PoolStep,
                                _ReLUStep, _tile_rows)
from repro.models import build_model
from repro.quantization import calibrate, prepare_qat
from repro.quantization.affine import QuantParams, choose_qparams
from repro.serve.faults import FaultInjector, FaultSpec, inject


def _edge_from_model(name, x, **kwargs):
    """Calibration-only QAT -> frozen -> edge (fast; no training)."""
    model = build_model(name, **kwargs)
    model.eval()
    q = prepare_qat(model, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(q, x[: min(32, len(x))])
    q.freeze()
    return compile_edge(q, kwargs.get("num_classes",
                                      kwargs.get("num_identities")))


@pytest.fixture(scope="module")
def lenet_edge():
    rng = np.random.default_rng(0)
    x = rng.random((36, 1, 16, 16))
    return _edge_from_model("lenet", x, num_classes=10, in_channels=1,
                            image_size=16, seed=0), x


@pytest.fixture(scope="module")
def vggface_edge():
    rng = np.random.default_rng(1)
    x = rng.random((20, 3, 16, 16)).astype(np.float32)
    return _edge_from_model("vggface", x, num_identities=12, image_size=16,
                            width=4, seed=0), x


def _strict_predict(edge, x, **kw):
    """Compiled predict that fails the test on any fallback warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return edge.predict(x, **kw)


class TestBitExactness:
    def test_lenet_float64(self, lenet_edge):
        edge, x = lenet_edge
        got = _strict_predict(edge, x)
        np.testing.assert_array_equal(got, edge.predict(x, compiled=False))
        assert got.dtype == np.float64

    def test_vggface_float32_pixels(self, vggface_edge):
        edge, x = vggface_edge
        got = _strict_predict(edge, x)
        np.testing.assert_array_equal(got, edge.predict(x, compiled=False))

    def test_ragged_tail_batches(self, lenet_edge):
        """Full chunks and the ragged tail each get their own program."""
        edge, x = lenet_edge
        got = _strict_predict(edge, x, batch_size=16)   # 16 + 16 + 4
        np.testing.assert_array_equal(
            got, edge.predict(x, batch_size=16, compiled=False))
        shapes = {k[0][0] for k, p in edge._programs.items() if p is not None}
        assert {16, 4} <= shapes

    def test_serialization_roundtrip_into_compiled_path(
            self, vggface_edge, tmp_path):
        edge, x = vggface_edge
        path = str(tmp_path / "edge.npz")
        save_edge_model(edge, path)
        loaded = load_edge_model(path)
        got = _strict_predict(loaded, x)
        assert any(p is not None for p in loaded._programs.values())
        np.testing.assert_array_equal(got, edge.predict(x, compiled=False))


def _per_tensor(lo, hi, qmin, qmax):
    return choose_qparams(np.float64(lo), np.float64(hi), qmin, qmax)


def _rand_conv(rng, f, c, k, in_qp, out_qp, **kw):
    w = rng.integers(-127, 128, size=(f, c, k, k)).astype(np.int64)
    w_qp = QuantParams(scale=np.full(f, 0.01), zero_point=np.zeros(f),
                       qmin=-127, qmax=127, axis=0)
    bias = rng.integers(-400, 400, size=f).astype(np.int64)
    return QConv2d(w, bias, in_qp, w_qp, out_qp, **kw)


class TestHandBuiltOps:
    """Geometry coverage beyond what the QAT models exercise."""

    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2), (3, 0, 4),
    ])
    def test_conv_geometries(self, stride, padding, groups):
        rng = np.random.default_rng(stride * 7 + padding * 3 + groups)
        in_qp = _per_tensor(-1, 1, 0, 255)
        out_qp = _per_tensor(-2, 3, 0, 255)
        conv = _rand_conv(rng, 8, 4 // groups, 3, in_qp, out_qp,
                          stride=stride, padding=padding, groups=groups)
        em = EdgeModel([QuantizeInput(in_qp), conv, Dequantize(out_qp)], 8)
        x = rng.random((5, 4, 13, 13))
        np.testing.assert_array_equal(_strict_predict(em, x),
                                      em.predict(x, compiled=False))

    def test_per_tensor_weight_grid(self):
        rng = np.random.default_rng(9)
        in_qp = _per_tensor(-1, 1, 0, 255)
        out_qp = _per_tensor(-1, 1, 0, 255)
        w = rng.integers(-127, 128, size=(3, 2, 3, 3)).astype(np.int64)
        w_qp = _per_tensor(-1.27, 1.27, -127, 127)
        conv = QConv2d(w, np.zeros(3, dtype=np.int64), in_qp, w_qp, out_qp,
                       padding=1)
        em = EdgeModel([QuantizeInput(in_qp), conv, Dequantize(out_qp)], 3)
        x = rng.random((4, 2, 6, 6))
        np.testing.assert_array_equal(_strict_predict(em, x),
                                      em.predict(x, compiled=False))

    def test_padded_maxpool(self):
        rng = np.random.default_rng(11)
        in_qp = _per_tensor(-1, 1, -128, 127)
        ops = [QuantizeInput(in_qp), QMaxPool2d(3, stride=2, padding=1),
               Dequantize(in_qp)]
        em = EdgeModel(ops, 1)
        x = rng.random((6, 2, 9, 9)) * 2 - 1
        np.testing.assert_array_equal(_strict_predict(em, x),
                                      em.predict(x, compiled=False))

    def test_same_padded_shape_different_padding_no_alias(self):
        """Two padded convs whose *padded* images coincide but whose
        border widths differ must not share a plan-time-filled pad
        buffer (regression: stale borders after the second conv's
        interior writes)."""
        rng = np.random.default_rng(17)
        in_qp = QuantParams(scale=np.float64(0.01), zero_point=np.float64(128),
                            qmin=0, qmax=255)
        mid_qp = QuantParams(scale=np.float64(0.02), zero_point=np.float64(128),
                             qmin=0, qmax=255)
        out_qp = _per_tensor(-4, 4, 0, 255)
        conv_a = _rand_conv(rng, 4, 4, 3, in_qp, mid_qp, padding=2)   # 10->12
        conv_b = _rand_conv(rng, 4, 4, 3, mid_qp, out_qp, padding=1)  # 12->12
        em = EdgeModel([QuantizeInput(in_qp), conv_a, conv_b,
                        Dequantize(out_qp)], 4)
        x = rng.random((3, 4, 10, 10))
        ref = em.predict(x, compiled=False)
        for _ in range(2):   # second run hits the already-planned buffers
            np.testing.assert_array_equal(_strict_predict(em, x), ref)

    def test_multi_chunk_predict_without_dequantize(self):
        """Programs whose op list does not end in Dequantize must hand
        back owned arrays, or earlier chunks alias the pooled buffer the
        next chunk overwrites."""
        in_qp = _per_tensor(-1, 1, 0, 255)
        em = EdgeModel([QuantizeInput(in_qp), QFlatten()], 1)
        x = np.random.default_rng(19).random((8, 2, 3, 3))
        got = _strict_predict(em, x, batch_size=4)
        np.testing.assert_array_equal(
            got, em.predict(x, batch_size=4, compiled=False))

    def test_linear_chain(self):
        rng = np.random.default_rng(13)
        in_qp = _per_tensor(-1, 1, 0, 255)
        mid_qp = _per_tensor(-4, 4, 0, 255)
        out_qp = _per_tensor(-6, 6, 0, 255)
        w1 = rng.integers(-127, 128, size=(7, 12)).astype(np.int64)
        w2 = rng.integers(-127, 128, size=(4, 7)).astype(np.int64)
        w_qp = QuantParams(scale=np.full(7, 0.02), zero_point=np.zeros(7),
                           qmin=-127, qmax=127, axis=0)
        w_qp2 = _per_tensor(-1.27, 1.27, -127, 127)
        ops = [QuantizeInput(in_qp), QFlatten(),
               QLinear(w1, rng.integers(-100, 100, 7).astype(np.int64),
                       in_qp, w_qp, mid_qp),
               QReLU(mid_qp, _per_tensor(0, 4, 0, 255)),
               QLinear(w2, np.zeros(4, dtype=np.int64),
                       _per_tensor(0, 4, 0, 255), w_qp2, out_qp),
               Dequantize(out_qp)]
        em = EdgeModel(ops, 4)
        x = rng.random((10, 3, 2, 2))
        np.testing.assert_array_equal(_strict_predict(em, x),
                                      em.predict(x, compiled=False))

    @pytest.mark.parametrize("kernel,stride,padding", [
        (2, 2, 0), (3, 1, 0), (3, 2, 1), (2, 1, 0), (1, 1, 0),
    ])
    def test_maxpool_sweep_non_square(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 11 + stride * 5 + padding)
        in_qp = _per_tensor(-1, 1, -128, 127)
        ops = [QuantizeInput(in_qp),
               QMaxPool2d(kernel, stride=stride, padding=padding),
               Dequantize(in_qp)]
        em = EdgeModel(ops, 1)
        x = rng.random((4, 3, 9, 14)) * 2 - 1
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()

    def test_strided_padded_grouped_conv_non_square(self):
        rng = np.random.default_rng(29)
        in_qp = _per_tensor(-1, 1, 0, 255)
        out_qp = _per_tensor(-3, 3, 0, 255)
        conv = _rand_conv(rng, 6, 2, 3, in_qp, out_qp, stride=2, padding=1,
                          groups=3)
        em = EdgeModel([QuantizeInput(in_qp), conv, Dequantize(out_qp)], 6)
        x = rng.random((5, 6, 11, 16))
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()


def _bound_conv(excess, tail=()):
    """Two-filter conv whose per-filter accumulator bound is exactly
    ``2**24 + excess``, reached by an all-``qmax`` input (filter 0 at
    the positive extreme, filter 1 at the negative one); ``tail`` ops
    run between the conv and the dequantize."""
    in_qp = _per_tensor(0, 1, 0, 255)             # zero-point 0, qmax 255
    c = 57                                        # 57·9·127·255 < 2**24
    w = np.full((2, c, 3, 3), 127, dtype=np.int64)
    w[1] = -127
    rest = (1 << 24) + excess - c * 9 * 127 * 255
    bias = np.array([rest, -rest], dtype=np.int64)
    w_qp = QuantParams(scale=np.full(2, 1e-4), zero_point=np.zeros(2),
                       qmin=-127, qmax=127, axis=0)
    out_qp = _per_tensor(-8, 8, 0, 255)
    conv = QConv2d(w, bias, in_qp, w_qp, out_qp, padding=1)
    return EdgeModel([QuantizeInput(in_qp), conv, *tail,
                      Dequantize(out_qp)], 2), c


class TestGemmWidth:
    """The GEMM runs in float32 exactly when the per-filter bound
    ``Σ|w|·max|q| + |bias|`` is below 2**24, else in float64."""

    @pytest.mark.parametrize("excess,dtype", [(-1, np.float32),
                                              (1, np.float64)])
    def test_width_follows_the_bound(self, excess, dtype):
        em, c = _bound_conv(excess)
        rng = np.random.default_rng(31)
        x = rng.random((4, c, 5, 7))
        x[0] = 1.0                                # accumulator at the bound
        got = _strict_predict(em, x)
        prog = next(iter(em._programs.values()))
        step = next(s for s in prog.steps if isinstance(s, _ConvStep))
        assert step.gemm_dtype is dtype
        assert step.wf.dtype == dtype
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()


def _conv_relu_model(rng, conv_out, relu_out):
    in_qp = _per_tensor(-1, 1, 0, 255)
    conv = _rand_conv(rng, 6, 3, 3, in_qp, conv_out, padding=1)
    ops = [QuantizeInput(in_qp), conv, QReLU(conv_out, relu_out),
           QFlatten(), Dequantize(relu_out)]
    return EdgeModel(ops, 6)


class TestReLULowering:
    def test_fused_when_scales_match(self):
        """Shared-scale grids: the relu folds into the conv's clamp."""
        rng = np.random.default_rng(21)
        s = 0.0125
        conv_out = QuantParams(scale=np.float64(s), zero_point=np.float64(130),
                               qmin=0, qmax=255)
        relu_out = QuantParams(scale=np.float64(s), zero_point=np.float64(2),
                               qmin=0, qmax=255)
        em = _conv_relu_model(rng, conv_out, relu_out)
        x = rng.random((8, 3, 7, 7))
        got = _strict_predict(em, x)
        prog = next(iter(em._programs.values()))
        assert prog.fused_relus == 1
        assert not any(isinstance(s, _ReLUStep) for s in prog.steps)
        np.testing.assert_array_equal(got, em.predict(x, compiled=False))

    def test_standalone_lut_when_scales_differ(self):
        """Differing grids stay a standalone op (LUT), still bit-exact."""
        rng = np.random.default_rng(22)
        conv_out = _per_tensor(-2, 2, 0, 255)
        relu_out = _per_tensor(0, 1.7, 0, 255)
        em = _conv_relu_model(rng, conv_out, relu_out)
        x = rng.random((8, 3, 7, 7))
        got = _strict_predict(em, x)
        prog = next(iter(em._programs.values()))
        assert prog.fused_relus == 0
        assert any(isinstance(s, _ReLUStep) for s in prog.steps)
        np.testing.assert_array_equal(got, em.predict(x, compiled=False))

    def test_fused_and_standalone_agree_on_shared_grid(self):
        """The fused clamp and the standalone LUT are the same function
        when both lowerings are legal."""
        s = 0.02
        conv_out = QuantParams(scale=np.float64(s), zero_point=np.float64(100),
                               qmin=0, qmax=255)
        relu_out = QuantParams(scale=np.float64(s), zero_point=np.float64(0),
                               qmin=0, qmax=255)
        em_fused = _conv_relu_model(np.random.default_rng(23), conv_out,
                                    relu_out)
        x = np.random.default_rng(24).random((6, 3, 5, 5))
        fused = _strict_predict(em_fused, x)
        # force the standalone lowering by disabling fusion detection
        em_plain = _conv_relu_model(np.random.default_rng(23), conv_out,
                                    relu_out)
        import repro.edge.program as prog_mod
        orig = prog_mod._can_fuse_relu
        prog_mod._can_fuse_relu = lambda *a: False
        try:
            plain = _strict_predict(em_plain, x)
        finally:
            prog_mod._can_fuse_relu = orig
        np.testing.assert_array_equal(fused, plain)


def _steps(em):
    prog = next(iter(em._programs.values()))
    assert prog is not None
    return prog.steps


def _conv_pool_model(rng, relu, kernel, stride, groups=1, conv_stride=1):
    """quantize -> conv -> [relu] -> unpadded max pool -> dequantize."""
    in_qp = _per_tensor(-1, 1, 0, 255)
    if relu == "fused":        # shared scale: the relu folds into the clamp
        conv_out = QuantParams(scale=np.float64(0.0125),
                               zero_point=np.float64(130), qmin=0, qmax=255)
        relu_out = QuantParams(scale=np.float64(0.0125),
                               zero_point=np.float64(2), qmin=0, qmax=255)
    else:                      # differing grids: a standalone LUT relu
        conv_out = _per_tensor(-2, 2, 0, 255)
        relu_out = _per_tensor(0, 1.7, 0, 255)
    conv = _rand_conv(rng, 6, 4 // groups, 3, in_qp, conv_out, padding=1,
                      stride=conv_stride, groups=groups)
    ops = [QuantizeInput(in_qp), conv]
    if relu != "none":
        ops.append(QReLU(conv_out, relu_out))
    ops += [QMaxPool2d(kernel, stride=stride), QFlatten(),
            Dequantize(conv_out if relu == "none" else relu_out)]
    return EdgeModel(ops, 6)


class TestPoolBeforeRequantize:
    """An unpadded max pool after a conv runs on the conv's exact
    accumulator, before requantization, with the same bytes as the
    eager conv -> relu -> pool op loop."""

    @pytest.mark.parametrize("hw", [(8, 8), (11, 13)])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (2, 1)])
    @pytest.mark.parametrize("relu", ["standalone", "fused", "none"])
    def test_matches_eager(self, relu, kernel, stride, hw):
        rng = np.random.default_rng(kernel * 13 + stride * 5 + hw[1])
        em = _conv_pool_model(rng, relu, kernel, stride)
        x = rng.random((5, 4) + hw)
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()
        steps = _steps(em)
        assert not any(isinstance(s, _PoolStep) for s in steps)
        conv = next(s for s in steps if isinstance(s, _ConvStep))
        assert conv.pool_k == kernel
        assert (sum(isinstance(s, _ReLUStep) for s in steps)
                == (relu == "standalone"))

    def test_grouped_strided_conv(self):
        rng = np.random.default_rng(41)
        em = _conv_pool_model(rng, "standalone", 2, 2, groups=2,
                              conv_stride=2)
        x = rng.random((4, 4, 15, 10))
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()
        assert not any(isinstance(s, _PoolStep) for s in _steps(em))

    def test_float64_gemm(self):
        """Bound just over 2**24: the pooled accumulator is float64 and
        the all-``qmax`` batch row pools values at the bound."""
        em, c = _bound_conv(1, tail=[QMaxPool2d(2)])
        rng = np.random.default_rng(43)
        x = rng.random((4, c, 5, 7))
        x[0] = 1.0
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()
        conv = next(s for s in _steps(em) if isinstance(s, _ConvStep))
        assert conv.gemm_dtype is np.float64 and conv.pool_k == 2
        assert conv.accq.dtype == np.float64

    def test_every_window_negative(self):
        """Non-positive weights, a negative bias and non-negative
        inputs: every pooled accumulator is negative, so the max and
        the round-half-away-from-zero shift both work below zero."""
        rng = np.random.default_rng(47)
        in_qp = _per_tensor(0, 1, 0, 255)         # zero-point 0
        out_qp = _per_tensor(-1, 0.2, 0, 255)
        w = -rng.integers(0, 4, size=(5, 3, 3, 3)).astype(np.int64)
        w_qp = QuantParams(scale=np.full(5, 0.01), zero_point=np.zeros(5),
                           qmin=-127, qmax=127, axis=0)
        bias = -rng.integers(1, 300, size=5).astype(np.int64)
        conv = QConv2d(w, bias, in_qp, w_qp, out_qp)
        em = EdgeModel([QuantizeInput(in_qp), conv, QMaxPool2d(2, stride=2),
                        Dequantize(out_qp)], 5)
        x = 0.5 + 0.5 * rng.random((4, 3, 9, 9))
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()
        step = next(s for s in _steps(em) if isinstance(s, _ConvStep))
        assert step.pool_k == 2 and (step.accq < 0).all()
        assert len(np.unique(got)) > 1           # not all clamped away

    def test_padded_pool_stays_a_pool_step(self):
        rng = np.random.default_rng(53)
        in_qp = _per_tensor(-1, 1, 0, 255)
        out_qp = _per_tensor(-2, 2, 0, 255)
        conv = _rand_conv(rng, 4, 2, 3, in_qp, out_qp, padding=1)
        em = EdgeModel([QuantizeInput(in_qp), conv,
                        QMaxPool2d(3, stride=2, padding=1),
                        Dequantize(out_qp)], 4)
        x = rng.random((3, 2, 9, 9))
        got = _strict_predict(em, x)
        assert got.tobytes() == em.predict(x, compiled=False).tobytes()
        steps = _steps(em)
        assert any(isinstance(s, _PoolStep) for s in steps)
        conv_step = next(s for s in steps if isinstance(s, _ConvStep))
        assert conv_step.pool_k is None

    def test_vggface_plan_has_no_pool_step(self, vggface_edge):
        edge, x = vggface_edge
        em = EdgeModel(edge.ops, 12)
        _strict_predict(em, x)
        steps = _steps(em)
        assert not any(isinstance(s, _PoolStep) for s in steps)
        assert any(isinstance(s, _ConvStep) and s.pool_k is not None
                   for s in steps)


class TestFallback:
    def test_unknown_op_falls_back_loudly_and_purely(self, lenet_edge):
        class Identity(EdgeOp):
            def __call__(self, q):
                return q

        edge, x = lenet_edge
        em = EdgeModel(edge.ops[:-1] + [Identity(), edge.ops[-1]], 10)
        with pytest.warns(RuntimeWarning, match="lowering failed"):
            got = em.predict(x)
        assert list(em._programs.values()) == [None]
        np.testing.assert_array_equal(got, em.predict(x, compiled=False))

    def test_validation_mismatch_falls_back(self, lenet_edge, monkeypatch):
        edge, x = lenet_edge
        em = EdgeModel(edge.ops, 10)
        monkeypatch.setattr(_ConvStep, "run",
                            lambda self, q: (_ for _ in ()).throw(
                                ValueError("broken step")))
        with pytest.warns(RuntimeWarning, match="lowering failed"):
            got = em.predict(x)
        np.testing.assert_array_equal(got, edge.predict(x, compiled=False))

    def test_program_rejects_unknown_op_directly(self):
        class Weird(EdgeOp):
            def __call__(self, q):
                return q

        em = EdgeModel([Weird()], 2)
        with pytest.raises(EdgeLoweringError):
            EdgeProgram(em, np.zeros((2, 3)))


class TestProgramCache:
    def test_programs_keyed_by_shape_and_dtype(self, lenet_edge):
        edge, x = lenet_edge
        em = EdgeModel(edge.ops, 10)
        _strict_predict(em, x[:8])
        _strict_predict(em, x[:8].astype(np.float32))
        keys = set(em._programs)
        assert ((8, 1, 16, 16), "<f8") in keys
        assert ((8, 1, 16, 16), "<f4") in keys

    def test_compiled_flag_bypasses_programs(self, lenet_edge):
        edge, x = lenet_edge
        em = EdgeModel(edge.ops, 10)
        em.predict(x[:4], compiled=False)
        assert em._programs == {}


def _grouped_conv_model(rng):
    """quantize -> stride-2 padded grouped conv -> dequantize."""
    in_qp = _per_tensor(-1, 1, 0, 255)
    out_qp = _per_tensor(-3, 3, 0, 255)
    conv = _rand_conv(rng, 6, 2, 3, in_qp, out_qp, stride=2, padding=1,
                      groups=3)
    return EdgeModel([QuantizeInput(in_qp), conv, Dequantize(out_qp)], 6)


def _row_cases():
    """``(model, rows(n) -> batch)`` pairs for the tile-boundary sweep."""
    def vggface(fixture):
        edge, _ = fixture
        return edge, lambda n: np.random.default_rng(n).random(
            (n, 3, 16, 16)).astype(np.float32)

    def hoisted_pool(_):
        em = _conv_pool_model(np.random.default_rng(61), "standalone", 2, 2)
        return em, lambda n: np.random.default_rng(n).random((n, 4, 9, 11))

    def grouped(_):
        em = _grouped_conv_model(np.random.default_rng(62))
        return em, lambda n: np.random.default_rng(n).random((n, 6, 11, 16))

    def float64_gemm(_):
        em, c = _bound_conv(1)

        def rows(n):
            x = np.random.default_rng(n).random((n, c, 5, 7))
            x[-1] = 1.0                   # the last tile reaches the bound
            return x
        return em, rows

    return {"vggface": vggface, "hoisted-pool": hoisted_pool,
            "grouped-stride2-padded": grouped, "float64-gemm": float64_gemm}


class TestRowTiles:
    """A program plans its steps for a row tile of ``tile_rows`` rows
    and walks the batch tile by tile, with one extra plan for a ragged
    last tile; the bytes are the eager loop's at every batch size
    around the tile boundaries."""

    @pytest.mark.parametrize("case", sorted(_row_cases()))
    def test_bytes_across_tile_boundaries(self, case, vggface_edge):
        em, rows = _row_cases()[case](vggface_edge)
        em = EdgeModel(em.ops, em.num_classes)      # a fresh plan cache
        t = _tile_rows(em.ops, rows(1))
        for n in sorted({1, t - 1, t, t + 1, 2 * t + 3} - {0}):
            x = rows(n)
            got = _strict_predict(em, x, batch_size=n)
            ref = em.predict(x, batch_size=n, compiled=False)
            assert got.tobytes() == ref.tobytes(), n
            prog = em._programs[(x.shape, x.dtype.str)]
            assert prog.tile_rows == min(n, t)
            assert (prog.tail_steps is prog.steps) == (n % prog.tile_rows == 0)
        if case == "float64-gemm":
            conv = next(s for s in prog.steps if isinstance(s, _ConvStep))
            assert conv.gemm_dtype is np.float64

    def test_paper_scale_plan_crosses_tiles(self):
        """The 256-row, 32x32 VGGFaceNet plan (the edge benchmark's)
        runs in several tiles, so the sweep above is not vacuous."""
        x = np.random.default_rng(3).random((256, 3, 32, 32)).astype(
            np.float32)
        em = _edge_from_model("vggface", x, num_identities=50,
                              image_size=32, width=8, seed=0)
        assert _tile_rows(em.ops, x[:1]) < 256
        got = _strict_predict(em, x[:43])
        prog = next(iter(em._programs.values()))
        assert prog.tile_rows < 43 and prog.tail_steps is not prog.steps
        np.testing.assert_array_equal(got, em.predict(x[:43],
                                                      compiled=False))

    def test_scratch_does_not_scale_with_the_batch(self, vggface_edge):
        """Once a batch spans two tiles, the lanes' scratch is the tile's:
        a 1024-row plan leaves exactly the 128-row plan's slabs and
        pads."""
        edge, _ = vggface_edge
        rng = np.random.default_rng(5)
        x = rng.random((1024, 3, 16, 16)).astype(np.float32)
        assert _tile_rows(edge.ops, x[:1]) < 64
        pools = []
        for n in (128, 1024):
            em = EdgeModel(edge.ops, 12)
            _strict_predict(em, x[:n], batch_size=n)
            pools.append(sum(p._arena.nbytes + sum(
                b.nbytes for b in p._bufs.values()) for p in em._pools))
        assert pools[0] == pools[1]

    def test_validation_checks_every_tile(self, vggface_edge, monkeypatch):
        """A wrong logit in the ragged last tile fails validation
        loudly; the fallback serves the eager bytes."""
        edge, _ = vggface_edge
        em = EdgeModel(edge.ops, 12)
        t = _tile_rows(em.ops, np.zeros((1, 3, 16, 16), np.float32))
        x = np.random.default_rng(7).random((3 * t + 7, 3, 16, 16)).astype(
            np.float32)
        dequant = _DequantStep.run

        def run_flipping_the_tail(step, q):
            out = dequant(step, q)
            if len(q) == len(x) % t:            # the ragged last tile
                out[-1, 0] += 1.0
            return out
        monkeypatch.setattr(_DequantStep, "run", run_flipping_the_tail)
        with pytest.warns(RuntimeWarning, match="lowering failed"):
            got = em.predict(x, batch_size=len(x))
        assert list(em._programs.values()) == [None]
        np.testing.assert_array_equal(
            got, em.predict(x, batch_size=len(x), compiled=False))

    def test_faults_fire_once_per_build_and_run(self, vggface_edge):
        edge, x = vggface_edge
        em = EdgeModel(edge.ops, 12)
        big = np.concatenate([x] * 10)
        assert _tile_rows(em.ops, big[:1]) < len(big)
        points = ("edge.plan.build", "edge.plan.validate", "edge.dispatch")
        inj = FaultInjector([FaultSpec(p, "latency", rate=1.0)
                             for p in points])
        with inject(inj):
            for _ in range(3):
                _strict_predict(em, big, batch_size=len(big))
        assert inj.fired("edge.plan.build") == 1
        assert inj.fired("edge.plan.validate") == 1
        # one for the validation replay, which answers the first
        # predict, and one per later predict
        assert inj.fired("edge.dispatch") == 1 + 2

    @pytest.mark.parametrize("compiled", [True, False])
    def test_zero_rows(self, lenet_edge, compiled):
        edge, x = lenet_edge
        em = EdgeModel(edge.ops, 10)
        got = em.predict(x[:0], compiled=compiled)
        assert got.shape == (0, 10) and got.dtype == np.float64
        assert em._programs == {}
