"""Compiled forward executor: parity with the eager tape, fallback
behaviour, and the attack loop's model-pass accounting."""

import numpy as np
import pytest

from repro.attacks import DIVA, PGD
from repro.models import build_model
from repro.nn import Tensor, where
from repro.nn.graph import CompiledForward, GraphUnsupported, compile_forward
from repro.nn.module import Module


MODEL_CONFIGS = {
    "lenet": (dict(num_classes=6, in_channels=1, image_size=12, width=4),
              (5, 1, 12, 12)),
    "resnet": (dict(num_classes=6, width=4), (5, 3, 12, 12)),
    "mobilenet": (dict(num_classes=6, width=4), (5, 3, 12, 12)),
    "densenet": (dict(num_classes=6, width=4, growth=3), (5, 3, 12, 12)),
    "vggface": (dict(num_identities=8, image_size=16, width=4, embed_dim=8),
                (5, 3, 16, 16)),
}


def _build(name):
    kwargs, shape = MODEL_CONFIGS[name]
    model = build_model(name, **kwargs)
    model.eval()
    rng = np.random.default_rng(7)
    return model, rng.random(shape)


class TestReplayParity:
    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    def test_forward_matches_eager(self, name):
        model, x = _build(name)
        ex = compile_forward(model, x)
        ref = model(Tensor(x)).data
        got = ex.replay(x)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
    def test_input_grad_matches_eager(self, name):
        model, x = _build(name)
        ex = compile_forward(model, x)
        rng = np.random.default_rng(3)
        xt = Tensor(x, requires_grad=True)
        out = model(xt)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        got_out, got_gx = ex.value_and_input_grad(x, seed)
        np.testing.assert_allclose(got_out, out.data, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(got_gx, xt.grad, rtol=1e-6, atol=1e-6)

    def test_variable_batch_replay(self):
        model, x = _build("resnet")
        ex = compile_forward(model, x)
        ref = model(Tensor(x)).data
        # shrinking batches replay against the same buffers
        for n in (len(x), 3, 1):
            np.testing.assert_allclose(ex.replay(x[:n]), ref[:n],
                                       rtol=1e-6, atol=1e-6)
        # growing past the traced size reallocates
        x_big = np.concatenate([x, x], axis=0)
        ref_big = model(Tensor(x_big)).data
        np.testing.assert_allclose(ex.replay(x_big), ref_big,
                                   rtol=1e-6, atol=1e-6)

    def test_quantized_model_parity(self):
        from repro.quantization import calibrate, prepare_qat
        model, x = _build("resnet")
        qat = prepare_qat(model, weight_bits=4, per_channel=False)
        calibrate(qat, x)
        qat.freeze()
        qat.eval()
        ex = compile_forward(qat, x)
        ref = qat(Tensor(x)).data
        np.testing.assert_allclose(ex.replay(x), ref, rtol=1e-6, atol=1e-6)
        xt = Tensor(x, requires_grad=True)
        out = qat(xt)
        seed = np.ones_like(out.data)
        out.backward(seed)
        _, gx = ex.value_and_input_grad(x, seed)
        np.testing.assert_allclose(gx, xt.grad, rtol=1e-6, atol=1e-6)

    def test_quantized_const_fold_stays_session_dtype(self):
        """Folded fake_quant consts must be cast to the session dtype.

        ``fake_quantize_array`` detours through float64; leaving the
        folded weight const at float64 promotes the conv GEMM, drifting
        off the eager tape by ulps — which an activation fake_quant can
        amplify into a full quantization step for rows whose
        pre-activation lands on a rounding boundary."""
        from repro.nn.tensor import set_default_dtype
        from repro.quantization import calibrate, prepare_qat
        set_default_dtype("float32")
        model, x = _build("resnet")
        x = x.astype(np.float32)
        qat = prepare_qat(model, weight_bits=4, per_channel=False)
        calibrate(qat, x)
        qat.freeze()
        qat.eval()
        ex = compile_forward(qat, x)
        for op in ex._const_ops:
            val = ex._env[op.out]
            if val.dtype.kind == "f":
                assert val.dtype == np.float32, (
                    f"const {op.kind} folded at {val.dtype}")
        ref = qat(Tensor(x)).data
        assert np.array_equal(ex.replay(x), ref)

    def test_pruned_model_parity(self):
        """Pruning masks are part of the folded constant subgraph."""
        model, x = _build("lenet")
        rng = np.random.default_rng(0)
        mask = (rng.random(model.conv1.weight.shape) > 0.5).astype(np.float64)
        model.conv1.set_weight_mask(mask)
        ex = compile_forward(model, x)
        np.testing.assert_allclose(ex.replay(x), model(Tensor(x)).data,
                                   rtol=1e-6, atol=1e-6)

    def test_input_grad_is_freshly_owned(self):
        """The returned input gradient must not alias per-op scratch: a
        later replay on the same program may not mutate it (stride-1
        pad-0 convs used to hand back the col2im accumulator itself)."""
        model, x = _build("lenet")     # first conv: stride 1
        ex = compile_forward(model, x)
        seed = np.ones(model(Tensor(x)).shape)
        _, g1 = ex.value_and_input_grad(x, seed)
        snapshot = g1.copy()
        _, g2 = ex.value_and_input_grad(x * 0.5, seed)
        assert not np.shares_memory(g1, g2)
        np.testing.assert_array_equal(g1, snapshot)

    def test_refresh_picks_up_weight_mutation(self):
        model, x = _build("lenet")
        ex = compile_forward(model, x)
        # rebinding .data (what load_state_dict does) invalidates the fold
        model.fc3.weight.data = model.fc3.weight.data * 2.0
        stale = ex.replay(x)
        ex.refresh()
        fresh = ex.replay(x)
        ref = model(Tensor(x)).data
        assert not np.allclose(stale, ref)
        np.testing.assert_allclose(fresh, ref, rtol=1e-6, atol=1e-6)


class TestArena:
    """Per-program arena: each closure's no-fill transients laid out
    disjointly from one slab, fill buffers kept outside it."""

    @staticmethod
    def _qat(dtype):
        from repro.nn.tensor import set_default_dtype
        from repro.quantization import calibrate, prepare_qat
        set_default_dtype(dtype)
        model, x = _build("resnet")
        x = x.astype(dtype)
        qat = prepare_qat(model, weight_bits=4, per_channel=False)
        calibrate(qat, x)
        qat.freeze()
        qat.eval()
        return qat, x

    @staticmethod
    def _arena_bufs(prog):
        """{closure tag: [buffer, ...]} over the program's arena."""
        by_tag = {}
        for key, spec in prog._buf_shapes.items():
            tag = spec[4]
            if tag is not None:
                by_tag.setdefault(tag, []).append(prog._bufs[key])
        return by_tag

    def _assert_layout(self, prog):
        by_tag = self._arena_bufs(prog)
        assert by_tag
        for bufs in by_tag.values():
            for i, a in enumerate(bufs):
                assert np.shares_memory(a, prog._arena)
                for b in bufs[i + 1:]:
                    assert not np.shares_memory(a, b)
        # different closures reuse the same bytes
        firsts = [bufs[0] for bufs in by_tag.values()]
        assert any(np.shares_memory(firsts[0], b) for b in firsts[1:])
        return by_tag

    def test_closure_buffers_never_overlap(self):
        from repro.nn.optim import SGD
        from repro.nn.train_graph import compile_train_step
        from repro.nn import functional as F
        qat, x = self._qat("float64")
        ex = compile_forward(qat, x)
        ex.replay(x)
        self._assert_layout(ex)
        model, x = _build("resnet")
        model.train()
        y = np.arange(len(x)) % 6
        step = compile_train_step(model, F.cross_entropy, x, y,
                                  SGD(model.parameters(), lr=0.01))
        step.step(x, y)
        by_tag = self._assert_layout(step)
        # the conv weight-gradient product shares its closure with the
        # window-row scratch
        assert max(len(bufs) for bufs in by_tag.values()) >= 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_arena_row_bytes_is_the_largest_closure(self, dtype):
        from repro.nn.functional import _col2im_xpad
        from repro.nn.graph import _ARENA_ALIGN
        qat, x = self._qat(dtype)
        ex = compile_forward(qat, x[:2])
        item = np.dtype(dtype).itemsize
        line = lambda b: -(-b // _ARENA_ALIGN) * _ARENA_ALIGN  # noqa: E731
        want = 0
        for op in ex._var_ops:
            if op.kind == "conv2d":
                _, C, H, W = op.in_shapes[0]
                _, _, kh, kw = op.in_shapes[1]
                oh, ow = op.out_shape[2:]
                xp = _col2im_xpad(W, op.attrs["padding"][1],
                                  op.attrs["stride"][1])
                want = max(want, line(C * kh * kw * oh * ow * item),
                           line(C * kh * kw * oh * xp * item))
            elif op.kind == "fake_quant":
                want = max(want, line(int(np.prod(op.out_shape[1:])) * 8))
        assert want and ex._arena_row_bytes() == want
        grown = 2
        for n in (2, 9, 4):
            ex.value_and_input_grad(x[:1].repeat(n, axis=0),
                                    np.ones((n, 6)))
            grown = max(grown, n)
            assert ex._alloc_n == grown
            assert ex._arena.nbytes == grown * want

    def test_fill_buffers_keep_their_borders(self):
        from repro.nn import Sequential
        from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d
        rng = np.random.default_rng(5)
        model = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng),
                           MaxPool2d(3, stride=2, padding=1), Flatten(),
                           Linear(64, 5, rng=rng))
        model.eval()
        x = rng.random((7, 3, 8, 8))
        ex = compile_forward(model, x[:2])
        for n in (2, 7, 3):
            xt = Tensor(x[:n], requires_grad=True)
            out = model(xt)
            out.backward(np.ones(out.shape))
            got, gx = ex.value_and_input_grad(x[:n], np.ones(out.shape))
            np.testing.assert_allclose(got, out.data, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gx, xt.grad, rtol=1e-12, atol=1e-12)
            seen = set()
            for key, spec in ex._buf_shapes.items():
                if spec[2] is None:
                    continue
                seen.add(key[0])
                buf = ex._bufs[key]
                assert not np.shares_memory(buf, ex._arena)
                if key[0] == "conv_gpad":        # zero pitch columns
                    ow = 8
                    assert buf.shape[-1] > ow
                    assert not buf[..., ow:].any()
                    continue
                border = np.ones(buf.shape[2:], dtype=bool)
                border[1:-1, 1:-1] = False
                assert (buf[:, :, border] == spec[2]).all(), key
            assert seen == {"conv_pad", "conv_gpad", "pool_pad"}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_fused_fake_quant_from_arena_matches_eager(self, dtype):
        from repro.quantization.affine import fake_quantize_array
        qat, x = self._qat(dtype)
        rng = np.random.default_rng(11)
        xs = rng.random((7,) + x.shape[1:]).astype(dtype)
        ex = compile_forward(qat, xs[:4])
        fq_ops = [op for op in ex._var_ops if op.kind == "fake_quant"]
        assert fq_ops
        for n in (1, 7, 3, 5):
            got = ex.replay(xs[:n])
            for op in fq_ops:
                assert np.shares_memory(ex._bufs[("fq64", op.out)],
                                        ex._arena)
                want = fake_quantize_array(ex._env[op.inputs[0]],
                                           op.attrs["qp"]).astype(dtype)
                np.testing.assert_array_equal(ex._env[op.out], want)
            np.testing.assert_array_equal(got, qat(Tensor(xs[:n])).data)


class TestNewKernels:
    """pad2d / where / stack joined the traced-op registry (ROADMAP):
    models using them compile instead of falling back to the eager tape."""

    def _check(self, model, x):
        ex = compile_forward(model, x)
        xt = Tensor(x, requires_grad=True)
        out = model(xt)
        seed = np.random.default_rng(3).normal(size=out.shape)
        out.backward(seed)
        got, gx = ex.value_and_input_grad(x, seed)
        np.testing.assert_allclose(got, out.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, xt.grad, rtol=0, atol=1e-12)
        # variable batch replays against the same program
        np.testing.assert_allclose(ex.replay(x[:2]), model(Tensor(x[:2])).data,
                                   rtol=0, atol=1e-12)

    def test_pad2d_replays(self):
        class PadModel(Module):
            def forward(self, x):
                return x.pad2d((1, 2, 0, 1)).sum(axis=(2, 3), keepdims=False)

        self._check(PadModel(), np.random.default_rng(0).random((4, 3, 6, 6)))

    def test_where_with_constant_mask_replays(self):
        mask = np.random.default_rng(1).random((3, 6, 6)) > 0.5

        class Gated(Module):
            def forward(self, x):
                return where(mask, x * 2.0, x * 0.5).sum(axis=(1, 2, 3),
                                                         keepdims=True)

        self._check(Gated(), np.random.default_rng(0).random((4, 3, 6, 6)))

    def test_stack_replays(self):
        from repro.nn.tensor import stack

        class Stacked(Module):
            def forward(self, x):
                s = stack([x * 1.5, x - 0.25], axis=1)
                return s.sum(axis=(1, 2, 3, 4), keepdims=False)

        self._check(Stacked(), np.random.default_rng(0).random((4, 3, 6, 6)))

    def test_stack_on_batch_axis_refused(self):
        from repro.nn.tensor import stack

        class BadStack(Module):
            def forward(self, x):
                return stack([x, x], axis=0).sum(axis=(0, 2, 3, 4),
                                                 keepdims=False)

        with pytest.raises(GraphUnsupported):
            compile_forward(BadStack(), np.random.default_rng(0).random((2, 1, 4, 4)))


class TestFallback:
    def test_data_dependent_where_cond_refused(self):
        """A condition computed from the traced input (off-tape) must be
        refused loudly, not frozen into the program."""
        class WhereModel(Module):
            def forward(self, x):
                return where(x.data > 0.5, x, x * 0.5).sum(axis=(1, 2, 3),
                                                           keepdims=True)

        m = WhereModel()
        with pytest.raises(GraphUnsupported, match="batch-dependent"):
            compile_forward(m, np.random.default_rng(0).random((2, 1, 4, 4)))

    def test_unsupported_op_raises(self):
        class SliceModel(Module):
            def forward(self, x):
                # __getitem__ is not in the traced-op registry
                return (x[:, :1] * 2.0).sum(axis=(1, 2, 3), keepdims=True)

        m = SliceModel()
        with pytest.raises(GraphUnsupported):
            compile_forward(m, np.random.default_rng(0).random((2, 2, 4, 4)))

    def test_data_dependent_constant_caught_by_validation(self):
        """A forward that smuggles input data through an untraced numpy
        path must fail validation instead of silently freezing it."""
        class Leaky(Module):
            def forward(self, x):
                shift = Tensor(x.data.max())       # escapes the tape
                return (x - shift).sum(axis=(1, 2, 3), keepdims=True)

        m = Leaky()
        with pytest.raises(GraphUnsupported):
            compile_forward(m, np.random.default_rng(0).random((2, 1, 4, 4)))

    def test_non_module_model_falls_back_in_attacks(self):
        from repro.attacks.base import compile_model

        class NotATensorModel:
            def eval(self):
                return self

            def __call__(self, x):
                return "nonsense"

        assert compile_model(NotATensorModel(), np.zeros((2, 1, 4, 4))) is None


class SpyModel(Module):
    """Counts forward calls through a wrapped model."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.inner(x)


class _NeverSucceedsPGD(PGD):
    """PGD whose success criterion never fires: the loop runs all steps,
    so the model-pass count is exactly deterministic."""

    def success_from_logits(self, aux, y):
        if aux is None:
            return None
        return np.zeros(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.zeros(len(x_adv), dtype=bool)


class _NeverSucceedsDIVA(DIVA):
    def success_from_logits(self, aux, y):
        if aux is None:
            return None
        return np.zeros(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.zeros(len(x_adv), dtype=bool)


class TestAttackModelPasses:
    """Regression: ``generate`` with keep_best performs exactly the
    expected number of model forward passes."""

    def _setup(self):
        model, x = _build("resnet")
        rng = np.random.default_rng(5)
        y = rng.integers(0, 6, size=len(x))
        return model, x, y

    def test_pgd_eager_passes_exactly_steps(self):
        model, x, y = self._setup()
        steps = 7
        spy = SpyModel(model)
        atk = _NeverSucceedsPGD(spy, steps=steps, eps=0.1, alpha=0.01)
        atk.use_compiled = False
        atk.generate(x, y)
        # one gradient pass per step, nothing else: the scheduler
        # retires finished samples without the trailing success forward
        # older loops paid (it cannot change the returned iterate)
        assert spy.calls == steps

    def test_pgd_no_keep_best_passes_steps(self):
        model, x, y = self._setup()
        steps = 5
        spy = SpyModel(model)
        atk = PGD(spy, steps=steps, eps=0.1, alpha=0.01, keep_best=False)
        atk.use_compiled = False
        atk.generate(x, y)
        assert spy.calls == steps

    def test_diva_eager_passes_steps_per_model(self):
        model, x, y = self._setup()
        from repro.quantization import calibrate, prepare_qat
        qat = prepare_qat(model, weight_bits=4, per_channel=False)
        calibrate(qat, x)
        qat.freeze()
        qat.eval()
        steps = 6
        spy_o, spy_a = SpyModel(model), SpyModel(qat)
        atk = _NeverSucceedsDIVA(spy_o, spy_a, steps=steps, eps=0.1, alpha=0.01)
        atk.use_compiled = False
        atk.generate(x, y)
        # exactly one pass per model per step — the naive loop paid
        # 4/step and the pre-engine loop 2/step plus a trailing check
        assert spy_o.calls == steps
        assert spy_a.calls == steps

    def test_compiled_path_runs_no_per_step_forwards(self):
        model, x, y = self._setup()
        steps = 9
        spy = SpyModel(model)
        atk = PGD(spy, steps=steps, eps=0.1, alpha=0.01)
        atk.generate(x, y)
        # tracing + compile-time validation only; replays never call
        # the module again
        assert spy.calls <= 3

    def test_compiled_and_eager_generate_identically(self):
        model, x, y = self._setup()
        kw = dict(steps=6, eps=0.1, alpha=0.01)
        fast = PGD(model, **kw).generate(x, y)
        slow_atk = PGD(model, **kw)
        slow_atk.use_compiled = False
        slow = slow_atk.generate(x, y)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


class TestTensorSatellites:
    def test_item_on_scalar(self):
        assert Tensor(np.array([[3.5]])).item() == 3.5

    def test_item_on_non_scalar_raises_value_error(self):
        with pytest.raises(ValueError, match="size 4"):
            Tensor(np.ones((2, 2))).item()

    def test_var_builds_single_subtraction_node(self):
        t = Tensor(np.random.default_rng(0).random((3, 4)), requires_grad=True)
        v = t.var(axis=0)
        sq = v._parents[0]          # mean -> sum node over the square
        mul = sq._parents[0]
        assert mul._parents[0] is mul._parents[1]  # (d * d) shares one node

    def test_var_value_and_grad(self):
        rng = np.random.default_rng(1)
        data = rng.random((4, 5))
        t = Tensor(data, requires_grad=True)
        v = t.var(axis=0)
        np.testing.assert_allclose(v.data, data.var(axis=0), rtol=1e-12)
        v.sum().backward()
        n = data.shape[0]
        expected = 2.0 * (data - data.mean(axis=0)) / n
        np.testing.assert_allclose(t.grad, expected, rtol=1e-9, atol=1e-12)

    def test_accumulate_owned_adopts_array(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        t._accumulate(g, owned=True)
        assert t.grad is g          # adopted, not copied
        t2 = Tensor(np.zeros(3), requires_grad=True)
        t2._accumulate(g, owned=False)
        assert t2.grad is not g     # defensively copied

    def test_backward_values_unchanged_by_ownership(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.random((3, 3)), requires_grad=True)
        b = Tensor(rng.random((3, 3)), requires_grad=True)
        ((a * b + a).relu().sum()).backward()
        ga = (b.data + 1.0) * ((a.data * b.data + a.data) > 0)
        np.testing.assert_allclose(a.grad, ga, rtol=1e-12)
