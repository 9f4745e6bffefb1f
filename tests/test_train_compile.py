"""Compiled training steps: bit-parity with the eager tape, model-pass
accounting, fallback behaviour, and the tap-major grouped/strided conv
backward kernels both executors share."""

import contextlib

import numpy as np
import pytest

from repro.distillation import distill
from repro.distillation.losses import distillation_loss
from repro.models import build_model
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import _col2im
from repro.nn.graph import GraphUnsupported
from repro.nn.module import Module
from repro.nn import train_graph
from repro.nn.optim import SGD, Adam
from repro.nn.train_graph import (CompiledTrainStep, compile_train_step,
                                  compile_train_step_or_none)
from repro.quantization import calibrate, prepare_qat, qat_finetune
from repro.training import fit, predict_logits


def _batches(shape, steps, classes=6, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.random((steps,) + shape)
    ys = rng.integers(0, classes, size=(steps, shape[0]))
    return xs, ys


def _state_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sorted(sa) == sorted(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


class TestStepBitParity:
    """Compiled steps must produce bit-identical parameters *and*
    buffers (BN running statistics ride on the effect channel)."""

    def _run(self, name, kwargs, shape, opt_fn, loss="ce", steps=5):
        xs, ys = _batches(shape, steps)
        if loss == "kd":
            rng = np.random.default_rng(1)
            targets = rng.normal(size=(steps, shape[0], 6))

            def loss_fn(logits, t):
                return distillation_loss(logits, t, temperature=4.0, alpha=0.7)
        else:
            targets = ys
            loss_fn = F.cross_entropy

        eager = build_model(name, **kwargs)
        eager.train()
        opt_e = opt_fn(eager.parameters())
        for t in range(steps):
            l = loss_fn(eager(Tensor(xs[t])), targets[t])
            opt_e.zero_grad()
            l.backward()
            opt_e.step()

        comp = build_model(name, **kwargs)
        comp.train()
        opt_c = opt_fn(comp.parameters())
        prog = compile_train_step(comp, loss_fn, xs[0], targets[0], opt_c)
        for t in range(steps):
            prog.step(xs[t], targets[t])
        _state_equal(eager, comp)

    def test_resnet_sgd_momentum_weight_decay(self):
        self._run("resnet", dict(num_classes=6, width=4), (8, 3, 12, 12),
                  lambda p: SGD(p, lr=0.02, momentum=0.9, weight_decay=1e-4))

    def test_resnet_sgd_nesterov(self):
        self._run("resnet", dict(num_classes=6, width=4), (8, 3, 12, 12),
                  lambda p: SGD(p, lr=0.02, momentum=0.9, nesterov=True))

    def test_resnet_adam(self):
        self._run("resnet", dict(num_classes=6, width=4), (8, 3, 12, 12),
                  lambda p: Adam(p, lr=1e-3, weight_decay=1e-2))

    def test_mobilenet_grouped_and_strided_backward(self):
        """MobileNet exercises the depthwise (grouped) conv backward at
        strides 1 and 2 — the tap-major rewrite must keep the compiled
        and eager kernels bit-identical."""
        self._run("mobilenet", dict(num_classes=6, width=4), (8, 3, 12, 12),
                  lambda p: SGD(p, lr=0.02, momentum=0.9, weight_decay=1e-4))

    def test_distillation_loss_head(self):
        self._run("mobilenet", dict(num_classes=6, width=4), (8, 3, 12, 12),
                  lambda p: Adam(p, lr=1e-3), loss="kd")

    def test_qat_model_with_live_observers(self):
        """QAT training moves the quantization grid every step; compiled
        replays must re-read the grid and replay observer updates."""
        xs, ys = _batches((8, 3, 12, 12), 4)

        def make():
            q = prepare_qat(build_model("resnet", num_classes=6, width=4,
                                        seed=3), weight_bits=8)
            calibrate(q, xs[0])
            q.train()
            return q

        eager = make()
        opt_e = SGD(eager.parameters(), lr=0.01, momentum=0.9)
        for t in range(4):
            l = F.cross_entropy(eager(Tensor(xs[t])), ys[t])
            opt_e.zero_grad()
            l.backward()
            opt_e.step()

        comp = make()
        opt_c = SGD(comp.parameters(), lr=0.01, momentum=0.9)
        prog = compile_train_step(comp, F.cross_entropy, xs[0], ys[0], opt_c)
        for t in range(4):
            prog.step(xs[t], ys[t])
        _state_equal(eager, comp)
        for (_, fe), (_, fc) in zip(eager.fake_quant_modules(),
                                    comp.fake_quant_modules()):
            np.testing.assert_array_equal(fe.observer.min_val,
                                          fc.observer.min_val)
            np.testing.assert_array_equal(fe.observer.max_val,
                                          fc.observer.max_val)

    def test_stale_gradients_do_not_poison_validation(self):
        """A preceding training loop leaves its last batch's gradients
        on the parameters (and ``copy_structure`` deep-copies them into
        QAT clones); compile-time validation must not let them
        contaminate its eager reference pass and reject a perfectly
        good program."""
        xs, ys = _batches((8, 3, 12, 12), 2)
        m = build_model("resnet", num_classes=6, width=4, seed=2)
        m.train()
        loss = F.cross_entropy(m(Tensor(xs[0])), ys[0])
        loss.backward()             # stale grads left in place
        q = prepare_qat(m, weight_bits=8)
        calibrate(q, xs[0])
        q.train()
        prog = compile_train_step(q, F.cross_entropy, xs[1], ys[1],
                                  SGD(q.parameters(), lr=0.01))
        assert prog is not None     # would raise GraphUnsupported before

    def test_wrong_batch_size_refused(self):
        xs, ys = _batches((8, 3, 12, 12), 1)
        m = build_model("resnet", num_classes=6, width=4)
        m.train()
        prog = compile_train_step(m, F.cross_entropy, xs[0], ys[0],
                                  SGD(m.parameters(), lr=0.01))
        assert prog.batch_size == 8
        with pytest.raises(ValueError, match="pinned"):
            prog.step(xs[0][:4], ys[0][:4])

    def test_mode_change_refused(self):
        xs, ys = _batches((8, 3, 12, 12), 1)
        m = build_model("resnet", num_classes=6, width=4)
        m.train()
        prog = compile_train_step(m, F.cross_entropy, xs[0], ys[0],
                                  SGD(m.parameters(), lr=0.01))
        m.eval()
        with pytest.raises(RuntimeError, match="mode changed"):
            prog.step(xs[0], ys[0])


@pytest.fixture
def compiled_steps(monkeypatch):
    """Counts :meth:`CompiledTrainStep.step` calls, so a driver test can
    tell the compiled path engaged (a parity check alone cannot: two
    eager runs agree too)."""
    calls = []
    step = CompiledTrainStep.step

    def counting(self, x, target):
        calls.append(len(x))
        return step(self, x, target)

    monkeypatch.setattr(CompiledTrainStep, "step", counting)
    return calls


@contextlib.contextmanager
def eager_train_steps():
    """The training drivers' eager reference: every train-step compile
    falls back to the tape, as it does for an unsupported model."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_graph, "compile_train_step_or_none",
                   lambda *args, **kwargs: None)
        yield


class TestDriverParity:
    """fit / distill / qat_finetune give bit-identical results whether
    the compiled path engaged or not — including ragged tail batches,
    which always use the eager tape — and the compiled run takes one
    compiled step per full batch."""

    def _data(self, n=40, classes=6, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.random((n, 3, 12, 12)),
                rng.integers(0, classes, size=n))

    def test_fit_matches_eager_with_tail_batch(self, compiled_steps):
        x, y = self._data(40)          # batch 16 -> tail of 8
        kw = dict(epochs=2, batch_size=16, lr=0.02, seed=5)
        m_c = build_model("resnet", num_classes=6, width=4, seed=2)
        r_c = fit(m_c, x, y, **kw)
        assert compiled_steps == [16] * 4       # 2 full batches x 2 epochs
        m_e = build_model("resnet", num_classes=6, width=4, seed=2)
        with eager_train_steps():
            r_e = fit(m_e, x, y, **kw)
        _state_equal(m_c, m_e)
        assert r_c.train_loss == r_e.train_loss

    def test_distill_matches_eager(self, compiled_steps):
        x, _ = self._data(32, seed=3)
        teacher = build_model("resnet", num_classes=6, width=4, seed=1)
        teacher.eval()
        kw = dict(epochs=2, batch_size=16, lr=1e-3, seed=2)
        s_c = distill(teacher, build_model("mobilenet", num_classes=6,
                                           width=4, seed=4), x, **kw)
        assert compiled_steps == [16] * 4
        with eager_train_steps():
            s_e = distill(teacher, build_model("mobilenet", num_classes=6,
                                               width=4, seed=4), x, **kw)
        _state_equal(s_c, s_e)

    def test_shape_changing_augment_falls_back_per_batch(self):
        """An augment callable may change the trailing shape (crops);
        the compiled-step dispatch must route such batches to the eager
        tape instead of crashing on the pinned trace shape."""
        x, y = self._data(32)
        m = build_model("resnet", num_classes=6, width=4, seed=2)
        r = fit(m, x, y, epochs=1, batch_size=16, lr=0.02, seed=3,
                augment=lambda b, rng: b[:, :, :10, :10])
        assert len(r.train_loss) == 1

    def test_qat_finetune_matches_eager(self, compiled_steps):
        x, y = self._data(32, seed=7)

        def make():
            q = prepare_qat(build_model("resnet", num_classes=6, width=4,
                                        seed=0), weight_bits=8)
            calibrate(q, x[:16])
            return q

        kw = dict(epochs=2, batch_size=16, lr=0.005)
        q_c = qat_finetune(make(), x, y, **kw)
        assert compiled_steps == [16] * 4
        with eager_train_steps():
            q_e = qat_finetune(make(), x, y, **kw)
        _state_equal(q_c, q_e)


class SpyModel(Module):
    """Counts forward calls through a wrapped model."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.inner(x)


class TestModelPassAccounting:
    def test_compiled_steps_never_reenter_the_module(self):
        """Tracing + compile-time validation cost two forwards; after
        that, N training steps perform zero module calls."""
        xs, ys = _batches((8, 3, 12, 12), 6)
        spy = SpyModel(build_model("resnet", num_classes=6, width=4))
        spy.train()
        prog = compile_train_step(spy, F.cross_entropy, xs[0], ys[0],
                                  SGD(spy.parameters(), lr=0.01))
        compile_calls = spy.calls
        assert compile_calls <= 2       # trace + eager validation pass
        for t in range(6):
            prog.step(xs[t], ys[t])
        assert spy.calls == compile_calls

    def test_eager_step_costs_one_pass_per_batch(self):
        xs, ys = _batches((8, 3, 12, 12), 3)
        spy = SpyModel(build_model("resnet", num_classes=6, width=4))
        spy.train()
        opt = SGD(spy.parameters(), lr=0.01)
        for t in range(3):
            l = F.cross_entropy(spy(Tensor(xs[t])), ys[t])
            opt.zero_grad()
            l.backward()
            opt.step()
        assert spy.calls == 3


class TestFallback:
    class Slicey(Module):
        """Uses __getitem__, which is not in the traced-op registry."""

        def __init__(self):
            super().__init__()
            self.fc = __import__("repro.nn.layers", fromlist=["Linear"]
                                 ).Linear(8, 4)

        def forward(self, x):
            return self.fc(x[:, :8])

    def test_unsupported_op_raises_loudly(self):
        rng = np.random.default_rng(0)
        m = self.Slicey()
        m.train()
        with pytest.raises(GraphUnsupported):
            compile_train_step(m, F.cross_entropy, rng.random((4, 16)),
                               rng.integers(0, 4, size=4),
                               SGD(m.parameters(), lr=0.01))

    def test_untraced_op_on_the_input_path_is_refused_by_name(self):
        """The input-path check sees an untraced op (``__getitem__``)
        applied to the traced input of either compiler, and the compiled
        training backward still takes no input gradient."""
        from repro.nn.graph import compile_forward
        from repro.nn.layers import Conv2d, Linear

        class TwoBranch(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(8, 4)
                self.b = Linear(16, 4)

            def forward(self, x):
                return self.a(x[:, :8]) + self.b(x)

        rng = np.random.default_rng(0)
        m = TwoBranch()
        m.train()
        x = rng.random((4, 16))
        with pytest.raises(GraphUnsupported,
                           match="untraced operation on the input path"):
            compile_train_step(m, F.cross_entropy, x,
                               rng.integers(0, 4, size=4),
                               SGD(m.parameters(), lr=0.01))
        m.eval()
        with pytest.raises(GraphUnsupported,
                           match="untraced operation on the input path"):
            compile_forward(m, x)

        class Stem(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 4, 3, padding=1)

            def forward(self, x):
                return self.conv(x).sum(axis=(2, 3))

        m = Stem()
        m.train()
        x, y = rng.random((4, 3, 6, 6)), rng.integers(0, 4, size=4)
        prog = compile_train_step(m, F.cross_entropy, x, y,
                                  SGD(m.parameters(), lr=0.01))
        _, _, genv = prog._forward_backward(x, y)
        assert genv[prog._input_id] is None

    def test_or_none_swallows_and_fit_still_trains(self):
        rng = np.random.default_rng(0)
        x = rng.random((24, 16))
        y = rng.integers(0, 4, size=24)

        m = self.Slicey()
        m.train()
        assert compile_train_step_or_none(
            m, F.cross_entropy, x[:8], y[:8],
            SGD(m.parameters(), lr=0.01)) is None

        def run():
            np.random.seed(0)
            mm = self.Slicey()
            fit(mm, x, y, epochs=2, batch_size=8, lr=0.05, seed=1)
            return mm

        # the failed compile attempt must leave no state behind: the
        # fallback run is bitwise the run that never tried
        tried = run()
        with eager_train_steps():
            never = run()
        _state_equal(tried, never)

    def test_dropout_model_falls_back_not_corrupts(self):
        """Dropout redraws its mask per step; tracing would freeze one
        mask, so validation must reject the program AND restore the
        module RNG so the eager fallback stays deterministic."""
        from repro.nn.layers import Dropout, Linear

        class Dropy(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(16, 16)
                self.drop = Dropout(p=0.5, seed=3)
                self.fc2 = Linear(16, 4)

            def forward(self, x):
                return self.fc2(self.drop(self.fc1(x).relu()))

        rng = np.random.default_rng(0)
        x = rng.random((24, 16))
        y = rng.integers(0, 4, size=24)

        def run():
            m = Dropy()
            fit(m, x, y, epochs=2, batch_size=8, lr=0.05, seed=1)
            return m

        tried = run()
        with eager_train_steps():
            never = run()
        _state_equal(tried, never)


class TestTapMajorColim:
    """The generalized phase-major X-padded flat col2im must match the
    legacy strided col2im scatter for every stride/group/padding the
    models use (and then some)."""

    CONFIGS = [
        # (C, F, k, stride, padding, groups, H)
        (3, 5, 3, 1, 1, 1, 10),       # dense stride 1 (unchanged path)
        (3, 5, 3, 2, 1, 1, 12),       # dense stride 2 (stage entry)
        (4, 6, 3, 2, 0, 1, 9),        # dense stride 2, no padding
        (6, 6, 1, 2, 0, 1, 8),        # 1x1 projection shortcut
        (4, 4, 3, 1, 1, 4, 10),       # depthwise stride 1
        (4, 4, 3, 2, 1, 4, 12),       # depthwise stride 2 (MobileNet)
        (6, 9, 3, 3, 2, 3, 11),       # grouped Fg>1, stride 3
        (4, 6, 5, 2, 2, 2, 10),       # 5x5 grouped, stride 2
    ]

    @staticmethod
    def _legacy_dx(xd, wd, g, stride, padding, groups):
        N, C, H, W = xd.shape
        Fo, Cg, kh, kw = wd.shape
        sh = sw = stride
        ph = pw = padding
        oh = (H + 2 * ph - kh) // sh + 1
        ow = (W + 2 * pw - kw) // sw + 1
        if groups == 1:
            K = C * kh * kw
            w2T = np.ascontiguousarray(wd.reshape(Fo, K).T)
            dcols = np.matmul(
                w2T, np.ascontiguousarray(g).reshape(N, Fo, oh * ow)
            ).reshape(N, C, kh, kw, oh, ow)
            return _col2im(dcols, xd.shape, kh, kw, sh, sw, ph, pw)
        G, Fg = groups, Fo // groups
        gg = g.reshape(N, G, Fg, oh, ow)
        wmat = wd.reshape(G, Fg, Cg * kh * kw)
        dcols2 = np.einsum("ngfxy,gfk->ngxyk", gg, wmat, optimize=True)
        dcols = dcols2.reshape(N, G, oh, ow, Cg, kh, kw)
        dcols = dcols.transpose(0, 1, 4, 5, 6, 2, 3).reshape(
            N, C, kh, kw, oh, ow)
        return _col2im(dcols, xd.shape, kh, kw, sh, sw, ph, pw)

    @pytest.mark.parametrize("C,Fo,k,stride,padding,groups,H", CONFIGS)
    def test_eager_backward_matches_legacy(self, C, Fo, k, stride, padding,
                                           groups, H):
        rng = np.random.default_rng(0)
        xd = rng.normal(size=(2, C, H, H))
        wd = rng.normal(size=(Fo, C // groups, k, k))
        xt = Tensor(xd, requires_grad=True)
        wt = Tensor(wd, requires_grad=True)
        out = F.conv2d(xt, wt, None, stride=stride, padding=padding,
                       groups=groups)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref = self._legacy_dx(xd, wd, g, stride, padding, groups)
        # same additions per destination element in the same tap order,
        # plus interleaved exact zeros -> equal values (== treats -0.0
        # and 0.0 alike); grouped Fg>1 sums over filters inside the
        # einsum, so allow one-ulp slack there
        if Fo // groups == 1 or groups == 1:
            np.testing.assert_array_equal(xt.grad, ref)
        else:
            np.testing.assert_allclose(xt.grad, ref, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("C,Fo,k,stride,padding,groups,H", CONFIGS)
    def test_compiled_input_grad_matches_eager(self, C, Fo, k, stride,
                                               padding, groups, H):
        """The forward executor's conv backward shares the flat path."""
        from repro.nn.graph import compile_forward
        from repro.nn.layers import Conv2d

        class M(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(C, Fo, k, stride=stride, padding=padding,
                                   groups=groups, bias=False,
                                   rng=np.random.default_rng(1))

            def forward(self, x):
                return self.conv(x).sum(axis=(2, 3))

        m = M()
        m.eval()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, C, H, H))
        ex = compile_forward(m, x)
        xt = Tensor(x, requires_grad=True)
        out = m(xt)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        got, gx = ex.value_and_input_grad(x, seed)
        np.testing.assert_array_equal(got, out.data)
        np.testing.assert_array_equal(gx, xt.grad)


class TestFusedOptimizers:
    """The in-place updates must be bit-identical to the fresh-array
    arithmetic they replaced (copied here as the reference)."""

    @staticmethod
    def _fresh_step(opt, params, state):
        """One step of the fresh-array SGD/Adam update on ``p.grad``."""
        if isinstance(opt, SGD):
            for p in params:
                g = p.grad
                if opt.weight_decay:
                    g = g + opt.weight_decay * p.data
                if opt.momentum:
                    v = state.get(id(p))
                    v = opt.momentum * v + g if v is not None else g.copy()
                    state[id(p)] = v
                    g = g + opt.momentum * v if opt.nesterov else v
                p.data -= opt.lr * g
            return
        t = state["t"] = state.get("t", 0) + 1
        b1t = 1.0 - opt.b1 ** t
        b2t = 1.0 - opt.b2 ** t
        for p in params:
            g = p.grad
            if opt.weight_decay and not opt.decoupled:
                g = g + opt.weight_decay * p.data
            m, v = state.get(("m", id(p))), state.get(("v", id(p)))
            m = (opt.b1 * m + (1 - opt.b1) * g if m is not None
                 else (1 - opt.b1) * g)
            v = (opt.b2 * v + (1 - opt.b2) * g * g if v is not None
                 else (1 - opt.b2) * g * g)
            state[("m", id(p))], state[("v", id(p))] = m, v
            update = (m / b1t) / (np.sqrt(v / b2t) + opt.eps)
            if opt.weight_decay and opt.decoupled:
                update = update + opt.weight_decay * p.data
            p.data -= opt.lr * update

    @pytest.mark.parametrize("opt_fn", [
        lambda p: SGD(p, lr=0.05),
        lambda p: SGD(p, lr=0.05, momentum=0.9, weight_decay=1e-3),
        lambda p: SGD(p, lr=0.05, momentum=0.9, nesterov=True),
        lambda p: Adam(p, lr=1e-2),
        lambda p: Adam(p, lr=1e-2, weight_decay=1e-2),
        lambda p: Adam(p, lr=1e-2, weight_decay=1e-2, decoupled=False),
    ])
    def test_matches_step(self, opt_fn):
        from repro.nn.module import Parameter
        rng = np.random.default_rng(0)
        shapes = [(4, 3), (7,), (2, 3, 3, 3)]
        pa = [Parameter(rng.normal(size=s)) for s in shapes]
        pb = [Parameter(p.data.copy()) for p in pa]
        ref, state = opt_fn(pa), {}
        ob = opt_fn(pb)
        for _ in range(4):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(pa, grads):
                p.grad = g.copy()
            self._fresh_step(ref, pa, state)
            ob.apply_gradients([(p, g.copy()) for p, g in zip(pb, grads)])
            for p, q in zip(pa, pb):
                np.testing.assert_array_equal(p.data, q.data)


class TestPredictLogitsCompiled:
    def test_large_input_uses_replay_and_matches_eager(self):
        model = build_model("resnet", num_classes=6, width=4)
        model.eval()
        rng = np.random.default_rng(0)
        x = rng.random((100, 3, 12, 12))
        got = predict_logits(model, x, batch_size=8)    # > 12 batches
        ref = np.concatenate([model(Tensor(x[i:i + 8])).data
                              for i in range(0, 100, 8)])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_spy_shows_compiled_path_taken(self):
        spy = SpyModel(build_model("resnet", num_classes=6, width=4))
        spy.eval()
        rng = np.random.default_rng(0)
        x = rng.random((104, 3, 12, 12))
        predict_logits(spy, x, batch_size=8)    # 13 batches of work
        # trace + validation only, not one call per batch
        assert spy.calls <= 3

    def test_small_input_stays_eager(self):
        spy = SpyModel(build_model("resnet", num_classes=6, width=4))
        spy.eval()
        rng = np.random.default_rng(0)
        x = rng.random((24, 3, 12, 12))
        predict_logits(spy, x, batch_size=8)    # 3 batches: below break-even
        assert spy.calls == 3                   # one eager pass per batch
