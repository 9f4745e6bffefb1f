"""Lifetime-planned program buffers: every buffer of a compiled program
sits in one per-program arena at a planned offset, and two buffers share
bytes only when their live intervals over the replay schedule do not
overlap.

The poisoned-lifetime replays below check the plan's intervals from the
outside: right after each buffer's planned last use, its bytes are
filled with NaN by closures spliced into copies of the program's step
lists.  A buffer read after its planned end would carry the NaN into
the logits, the input gradient or the parameters.
"""

import copy

import numpy as np
import pytest

from repro.attacks import PairedExecutor
from repro.models import build_model
from repro.nn import Tensor, set_default_dtype
from repro.nn import functional as F
from repro.nn.graph import (_ARENA_ALIGN, _BWD_FACTORY, _BWD_READS,
                            _FWD_FACTORY, _READS, compile_forward)
from repro.nn.optim import SGD, Adam
from repro.nn.train_graph import compile_train_step
from repro.quantization import calibrate, prepare_qat

MODELS = {
    "lenet": (dict(num_classes=6, in_channels=1, image_size=12, width=4),
              (8, 1, 12, 12)),
    "resnet": (dict(num_classes=6, width=4), (8, 3, 12, 12)),
    "mobilenet": (dict(num_classes=6, width=4), (8, 3, 12, 12)),
    "vggface": (dict(num_identities=8, image_size=16, width=4, embed_dim=8),
                (8, 3, 16, 16)),
}


def _model(name, dtype="float64"):
    set_default_dtype(dtype)
    kwargs, shape = MODELS[name]
    model = build_model(name, **kwargs)
    model.eval()
    x = np.random.default_rng(7).random(shape).astype(dtype)
    return model, x


def _frozen_qat(dtype):
    model, x = _model("resnet", dtype)
    qat = prepare_qat(model, weight_bits=4, per_channel=False)
    calibrate(qat, x)
    qat.freeze()
    qat.eval()
    return model, qat, x


def _rows(x, n, seed=0):
    """``n`` rows: ``x`` tiled, with seeded jitter on the repeats."""
    reps = -(-n // len(x))
    out = np.concatenate([x] * reps)[:n]
    noise = np.random.default_rng(seed).normal(0.0, 0.05, size=out.shape)
    return (out + noise * (np.arange(n) >= len(x)).reshape(
        (-1,) + (1,) * (x.ndim - 1))).astype(x.dtype)


def _poison(prog):
    """Splice NaN fills into copies of ``prog``'s step lists.

    Before each step runs, every planned buffer whose interval ended
    before that step is filled with NaN (backward steps whose gradient
    never arrives are skipped by the replay, so the fill happens before
    the next step that does run).
    """
    dead = {}
    for key, (_, stop) in prog._live.items():
        dead.setdefault(stop, []).append(key)
    done = [-1]

    def through(step):
        for s in range(done[0] + 1, step + 1):
            for key in dead.get(s, ()):
                prog._bufs[key].fill(np.nan)
        done[0] = step

    def fwd(k, run):
        def step(n):
            if k == 0:
                done[0] = -1
            through(k - 1)
            run(n)
        return step

    def bwd(k, run):
        def step(g, genv, gowned, n):
            through(k - 1)
            run(g, genv, gowned, n)
        return step

    nf = len(prog._fwd_prog)
    prog._fwd_prog = [fwd(k, run) for k, run in enumerate(prog._fwd_prog)]
    prog._bwd_prog = [(bwd(nf + k, run), nid)
                      for k, (run, nid) in enumerate(prog._bwd_prog)]
    assert any(stop < nf + len(prog._bwd_prog) for stop in dead)
    return prog


def _grads(prog, x, seed):
    z, g = prog.value_and_input_grad(x, seed)
    return z.copy(), g


def _assert_same_replays(ref, poisoned, x, classes):
    seed = np.random.default_rng(3).normal(size=(len(x), classes))
    for n in (len(x), 3, len(x)):
        z0, g0 = _grads(ref, x[:n], seed[:n])
        z1, g1 = _grads(poisoned, x[:n], seed[:n])
        np.testing.assert_array_equal(z1, z0)
        np.testing.assert_array_equal(g1, g0)
        np.testing.assert_array_equal(poisoned.replay(x[:n]), z0)


class TestPoisonedLifetimes:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_forward_and_input_grad(self, name, dtype):
        model, x = _model(name, dtype)
        ref = compile_forward(model, x)
        poisoned = _poison(compile_forward(model, x))
        _assert_same_replays(ref, poisoned, x, ref.replay(x[:1]).shape[1])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_frozen_qat(self, dtype):
        _, qat, x = _frozen_qat(dtype)
        ref = compile_forward(qat, x)
        poisoned = _poison(compile_forward(qat, x))
        assert any(op.kind == "fake_quant" for op in poisoned._var_ops)
        _assert_same_replays(ref, poisoned, x, 6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_diva_pair_on_lanes(self, dtype):
        orig, qat, x = _frozen_qat(dtype)
        ref = PairedExecutor([compile_forward(m, x) for m in (orig, qat)])
        pe = PairedExecutor([compile_forward(m, x) for m in (orig, qat)])
        for prog in pe.programs:
            _poison(prog)

        def seeds(zs):
            return [np.tanh(z) for z in zs]

        for n in (len(x), 3, 16):
            xs = _rows(x, n)
            (zo, za), g = pe.value_and_input_grad(xs, seeds)
            (ro, ra), gr = ref.value_and_input_grad(xs, seeds)
            np.testing.assert_array_equal(zo, ro)
            np.testing.assert_array_equal(za, ra)
            np.testing.assert_array_equal(g, gr)
        assert pe.lane_steps == 3

    @pytest.mark.parametrize("name,make_opt", [
        ("resnet", lambda p: SGD(p, lr=0.02, momentum=0.9)),
        ("mobilenet", lambda p: Adam(p, lr=1e-3)),
    ])
    def test_train_step(self, name, make_opt):
        model, x = _model(name)
        model.train()
        twin = copy.deepcopy(model)
        y = np.arange(len(x)) % 6
        ref = compile_train_step(model, F.cross_entropy, x, y,
                                 make_opt(model.parameters()))
        poisoned = _poison(compile_train_step(
            twin, F.cross_entropy, x, y, make_opt(twin.parameters())))
        rng = np.random.default_rng(5)
        for _ in range(3):
            xb = rng.random(x.shape)
            assert poisoned.step(xb, y) == ref.step(xb, y)
        for (k, a), (_, b) in zip(sorted(model.state_dict().items()),
                                  sorted(twin.state_dict().items())):
            np.testing.assert_array_equal(b, a, err_msg=k)


class TestGrowth:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", sorted(MODELS) + ["qat"])
    def test_replays_equal_eager_across_growth(self, name, dtype):
        if name == "qat":
            _, model, x = _frozen_qat(dtype)
        else:
            model, x = _model(name, dtype)
        prog = compile_forward(model, x[:8])
        for n in (64, 5, 64):
            xs = _rows(x, n, seed=n)
            xt = Tensor(xs, requires_grad=True)
            out = model(xt)
            seed = np.random.default_rng(n).normal(size=out.shape).astype(
                dtype)
            out.backward(seed)
            z, g = prog.value_and_input_grad(xs, seed)
            np.testing.assert_array_equal(z, out.data)
            np.testing.assert_array_equal(g, xt.grad)
            assert prog.alloc_rows == 64
            assert prog._arena.nbytes == 64 * prog._row_bytes


class TestPlan:
    def test_every_backward_declares_its_reads(self):
        assert set(_BWD_READS) == set(_BWD_FACTORY) == set(_FWD_FACTORY)
        assert set(_BWD_READS.values()) <= set(_READS)

    @staticmethod
    def _programs(dtype="float64"):
        _, qat, x = _frozen_qat(dtype)
        fwd = compile_forward(qat, x)
        fwd.value_and_input_grad(_rows(x, 11), np.ones((11, 6), dtype))
        model, x = _model("resnet", dtype)
        model.train()
        y = np.arange(len(x)) % 6
        step = compile_train_step(model, F.cross_entropy, x, y,
                                  SGD(model.parameters(), lr=0.01))
        step.step(x, y)
        return fwd, step

    def test_live_buffers_never_overlap(self):
        for prog in self._programs():
            keys = list(prog._live)
            shared = 0
            for i, a in enumerate(keys):
                buf = prog._bufs[a]
                assert np.shares_memory(buf, prog._arena)
                for b in keys[i + 1:]:
                    (s0, e0), (s1, e1) = prog._live[a], prog._live[b]
                    overlap = np.shares_memory(buf, prog._bufs[b])
                    if s0 <= e1 and s1 <= e0:
                        assert not overlap, (a, b)
                    shared += overlap
            # dead buffers do hand their bytes on
            assert shared

    def test_fill_buffers_stay_outside_the_arena(self):
        for prog in self._programs():
            for key, (_, _, fill, _) in prog._buf_shapes.items():
                assert (fill is None) == (key in prog._live)
                if fill is not None:
                    assert not np.shares_memory(prog._bufs[key],
                                                prog._arena)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_arena_row_bytes_is_the_packed_extent(self, dtype):
        line = lambda b: -(-b // _ARENA_ALIGN) * _ARENA_ALIGN  # noqa: E731
        for prog in self._programs(dtype):
            ends = []
            for key in prog._live:
                shape, dtype = prog._buf_shapes[key][:2]
                off = prog._offsets[key]
                assert off % _ARENA_ALIGN == 0
                ends.append(off + line(int(np.prod(shape)) * dtype.itemsize))
            assert prog._row_bytes == max(ends)
            planned, unplanned = prog.arena_bytes()
            assert planned == prog.alloc_rows * prog._row_bytes
            assert planned == prog._arena.nbytes
            assert planned < unplanned / 2

    def test_output_and_input_gradient_live_to_the_end(self):
        fwd, step = self._programs()
        for prog in (fwd, step):
            end = len(prog._fwd_prog) + len(prog._bwd_prog)
            assert prog._live[prog._out_id][1] == end
        # the stem conv's input gradient is handed to the caller
        model, x = _model("resnet")
        prog = compile_forward(model, x)
        stem = next(op for op in prog._var_ops if op.kind == "conv2d")
        assert stem.inputs[0] == prog._input_id
        key = ("conv_dx" if stem.attrs["stride"] == (1, 1) else "conv_dxi",
               stem.out)
        assert prog._live[key][1] == len(prog._fwd_prog) + len(
            prog._bwd_prog)


class TestPlanCacheGrowth:
    """A compiled program grows its buffers with the largest batch it
    replays; the cache re-charges the entry and re-enforces its budget."""

    @staticmethod
    def _entry(cache, key, model, x):
        return cache.get(key, (model,), lambda: compile_forward(model, x[:8]))

    def test_resident_bytes_follow_a_growing_replay(self):
        from repro.serve import PlanCache, plan_nbytes
        model, x = _model("resnet")
        cache = PlanCache()
        plan = self._entry(cache, "a", model, x)
        small = cache.stats["resident_bytes"]
        assert small == plan_nbytes(plan) + plan_nbytes(model)
        plan.replay(_rows(x, 64))
        assert cache.stats["resident_bytes"] == (plan_nbytes(plan)
                                                 + plan_nbytes(model))
        assert cache.stats["resident_bytes"] > small

    def test_hits_walk_no_plan_until_it_grows(self, monkeypatch):
        from repro.serve import PlanCache, cache as cache_mod
        model, x = _model("lenet")
        cache = PlanCache(budget_bytes=1 << 30)
        plan = self._entry(cache, "a", model, x)
        walks = []
        real = cache_mod.plan_nbytes
        monkeypatch.setattr(cache_mod, "plan_nbytes",
                            lambda p: walks.append(p) or real(p))
        for _ in range(5):
            assert self._entry(cache, "a", model, x) is plan
            plan.replay(x[:4])
        assert walks == []
        plan.replay(_rows(x, 32))
        assert self._entry(cache, "a", model, x) is plan
        assert walks == [plan]

    def test_growth_past_the_budget_evicts(self):
        from repro.attacks import PairedExecutor
        from repro.serve import PlanCache, plan_nbytes
        model, x = _model("resnet")
        other, _ = _model("resnet")
        a = PairedExecutor([compile_forward(m, x[:8]) for m in (model, other)])
        b = compile_forward(model, x[:8])
        budget = (plan_nbytes(a) + plan_nbytes(b) + plan_nbytes(model)
                  + plan_nbytes((model, other)) + (1 << 20))
        cache = PlanCache(budget_bytes=budget)
        assert cache.get("a", (model, other), lambda: a) is a
        assert cache.get("b", (model,), lambda: b) is b
        assert cache.stats["evictions"] == 0
        a.value_and_input_grad(_rows(x, 64),
                               lambda zs: [np.ones_like(z) for z in zs])
        assert a.alloc_rows == 64
        assert cache.get("b", (model,), lambda: b) is b     # a hit
        assert "a" not in cache and cache.stats["evictions"] == 1
        assert cache.stats["resident_bytes"] <= budget
