"""Tape-free eager forwards: ``no_grad`` changes bookkeeping, never bytes.

Inside :func:`repro.nn.no_grad` op outputs build no autograd node, so
calibration, eager prediction and loss evaluation free each
intermediate as soon as the next op has consumed it.  These tests pin
the contract: identical values, no tape, a per-thread flag that is
restored on every exit, and graph compilers that keep the tape on for
their own trace and validation.
"""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import (Tensor, concat, enable_grad, is_grad_enabled, no_grad,
                      set_default_dtype, stack, where)
from repro.nn import functional as F
from repro.nn.graph import compile_forward, compile_forward_or_none
from repro.nn.optim import SGD
from repro.nn.train_graph import compile_train_step, compile_train_step_or_none
from repro.quantization import (FakeQuantize, calibrate, fake_quant_ste,
                                post_training_quantize, prepare_qat)
from repro.serve import PlanCache
from repro.training import evaluate_loss, predict_logits

MODELS = {
    "lenet": (dict(num_classes=6, in_channels=1, image_size=12, width=4),
              (10, 1, 12, 12)),
    "resnet": (dict(num_classes=6, width=4), (10, 3, 12, 12)),
    "mobilenet": (dict(num_classes=6, width=4), (10, 3, 12, 12)),
    "vggface": (dict(num_identities=8, image_size=16, width=4, embed_dim=8),
                (10, 3, 16, 16)),
}


def _model(name, dtype="float64"):
    set_default_dtype(dtype)
    kwargs, shape = MODELS[name]
    model = build_model(name, **kwargs)
    model.eval()
    x = np.random.default_rng(3).random(shape).astype(dtype)
    return model, x


def _frozen_qat(dtype="float64"):
    model, x = _model("resnet", dtype)
    qat = prepare_qat(model, weight_bits=4, per_channel=False)
    calibrate(qat, x)
    qat.freeze()
    qat.eval()
    return qat, x


def _taped_forward(model, x):
    """The reference: an eager forward that records the full tape."""
    assert is_grad_enabled()
    out = model(Tensor(x))
    assert out.requires_grad and out._parents
    return out.data.copy()


def _observer_state(qat):
    return [(name, {k: None if v is None else np.asarray(v).tobytes()
                    for k, v in mod.observer.state().items()})
            for name, mod in qat.named_modules()
            if isinstance(mod, FakeQuantize)]


class TestValuesUnchanged:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_predict_logits_bytes(self, name, dtype):
        model, x = _model(name, dtype)
        ref = _taped_forward(model, x)
        got = predict_logits(model, x)
        with no_grad():
            inside = predict_logits(model, x)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        assert inside.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predict_logits_bytes_frozen_qat(self, dtype):
        qat, x = _frozen_qat(dtype)
        ref = _taped_forward(qat, x)
        assert predict_logits(qat, x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_calibrated_observers_bytes(self, dtype):
        model, x = _model("resnet", dtype)
        got = prepare_qat(model, weight_bits=8)
        calibrate(got, x, batch_size=4)
        # the pre-no_grad calibration loop, tape and all
        ref = prepare_qat(model, weight_bits=8)
        ref.train()
        for start in range(0, len(x), 4):
            assert ref(Tensor(x[start:start + 4])).requires_grad
        ref.eval()
        assert _observer_state(got) == _observer_state(ref)
        assert {k: v.tobytes() for k, v in got.state_dict().items()} == \
            {k: v.tobytes() for k, v in ref.state_dict().items()}

    def test_evaluate_loss_matches_taped_loss(self):
        model, x = _model("lenet")
        y = np.arange(len(x)) % 6
        loss = F.cross_entropy(model(Tensor(x)), y, reduction="sum")
        assert loss.requires_grad
        assert evaluate_loss(model, x, y, batch_size=len(x)) == \
            float(loss.data) / len(x)


class TestNoTape:
    def _ops(self):
        """One output per tape-building site, from grad-requiring inputs."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.random((4, 3, 3, 3)), requires_grad=True)
        qat, _ = _frozen_qat()
        qp = next(m for m in qat.modules()
                  if isinstance(m, FakeQuantize)).qparams()
        return {
            "make": (x * 2.0).relu(),
            "concat": concat([x, x], axis=1),
            "stack": stack([x, x]),
            "where": where(x.data > 0.5, x, 0.0),
            "conv2d": F.conv2d(x, w, padding=1),
            "max_pool2d": F.max_pool2d(x, 2),
            "avg_pool2d": F.avg_pool2d(x, 2),
            "fake_quant": fake_quant_ste(x, qp),
        }

    def test_every_site_builds_no_node(self):
        with no_grad():
            outs = self._ops()
        for name, out in outs.items():
            assert out.requires_grad is False, name
            assert out._parents == (), name
            assert out._backward is None, name

    def test_every_site_builds_a_node_outside(self):
        for name, out in self._ops().items():
            assert out.requires_grad and out._parents, name
            assert out._backward is not None, name

    def test_model_output_has_no_tape(self):
        model, x = _model("resnet")
        with no_grad():
            out = model(Tensor(x, requires_grad=True))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


class TestCallersSkipTheTape:
    """The eager forwards that never backpropagate build no tape."""

    @staticmethod
    def _spy(model):
        """Record ``requires_grad`` of every output ``model`` returns."""
        seen = []
        forward = model.forward

        def spy(x):
            out = forward(x)
            seen.append(out.requires_grad)
            return out
        model.forward = spy
        return seen

    def test_calibrate(self):
        model, x = _model("resnet")
        qat = prepare_qat(model, weight_bits=8)
        seen = self._spy(qat)
        calibrate(qat, x, batch_size=4)
        assert seen == [False] * 3

    def test_predict_logits_and_evaluate_loss(self):
        model, x = _model("lenet")
        seen = self._spy(model)
        predict_logits(model, x, batch_size=4)
        evaluate_loss(model, x, np.arange(len(x)) % 6, batch_size=4)
        assert seen == [False] * 6
        model(Tensor(x))
        assert seen[-1] is True        # the spy does see a taped forward


class TestMode:
    def test_restored_after_exception(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_restored_after_nesting(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_per_thread(self):
        """A ``no_grad`` region held open on one thread leaves another
        thread's eager backward intact (the lane thread's case)."""
        model, x = _model("lenet")
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                inside.set()
                release.wait(timeout=30)
                out = model(Tensor(x, requires_grad=True))
                seen["lane_out_requires_grad"] = out.requires_grad

        lane = threading.Thread(target=hold_no_grad)
        lane.start()
        try:
            assert inside.wait(timeout=30)
            assert is_grad_enabled()
            xt = Tensor(x, requires_grad=True)
            model.zero_grad()
            model(xt).sum().backward()
            assert xt.grad is not None and np.any(xt.grad)
            assert all(p.grad is not None for p in model.parameters())
        finally:
            release.set()
            lane.join(timeout=30)
        assert not lane.is_alive()
        assert seen == {"lane_out_requires_grad": False}
        model.zero_grad()


class TestCompilersForceGrad:
    @pytest.mark.parametrize("name", ["resnet", "mobilenet"])
    def test_compile_forward_inside_no_grad(self, name):
        model, x = _model(name)
        with no_grad():
            prog = compile_forward(model, x)      # validates, or raises
            assert compile_forward_or_none(model, x) is not None
            assert not is_grad_enabled()
        assert prog.replay(x).tobytes() == \
            compile_forward(model, x).replay(x).tobytes()

    def test_compile_train_step_inside_no_grad(self):
        model, x = _model("lenet")
        model.train()
        y = np.arange(len(x)) % 6
        opt = SGD(model.parameters(), lr=0.01)
        with no_grad():
            compile_train_step(model, F.cross_entropy, x, y, opt)
            assert compile_train_step_or_none(
                model, F.cross_entropy, x, y, opt) is not None
            assert not is_grad_enabled()


class TestEmptyInputs:
    def test_evaluate_loss_rejects_empty(self):
        model, x = _model("lenet")
        with pytest.raises(ValueError, match="empty"):
            evaluate_loss(model, x[:0], np.zeros(0, dtype=int))

    def test_calibrate_rejects_empty(self):
        model, x = _model("resnet")
        qat = prepare_qat(model, weight_bits=8)
        with pytest.raises(ValueError, match="empty"):
            calibrate(qat, x[:0])
        with pytest.raises(ValueError, match="empty"):
            post_training_quantize(model, x[:0])


class TestPlanCacheMemorySplit:
    def test_split_sums_resident_programs(self):
        model, x = _model("resnet", "float32")
        qat, _ = _frozen_qat("float32")
        cache = PlanCache()
        solo = cache.get("solo", (model,), lambda: compile_forward(model, x))
        twin = cache.get("twin", (qat,), lambda: compile_forward(qat, x))
        cache.get("failed", (model,), lambda: None)
        solo.replay(np.concatenate([x, x]))       # grow one program
        progs = [solo, twin]
        stats = cache.stats
        assert stats["entries"] == 3
        assert stats["arena_bytes"] == sum(p.arena_bytes()[0] for p in progs)
        assert stats["fill_bytes"] == sum(p.fill_bytes() for p in progs)
        for prog in progs:
            fills = {id(b): b for b in prog._bufs.values()
                     if not np.shares_memory(b, prog._arena)}
            assert prog.fill_bytes() == sum(b.nbytes for b in fills.values())
            assert prog.fill_bytes() > 0      # padded convs keep borders
        assert stats["resident_bytes"] > stats["arena_bytes"] + \
            stats["fill_bytes"]

    def test_plans_without_programs_count_zero(self):
        cache = PlanCache()
        cache.get("failed", (object(),), lambda: None)
        cache.get("other", (object(),), lambda: [np.zeros(8)])
        assert cache.stats["arena_bytes"] == 0
        assert cache.stats["fill_bytes"] == 0
