"""Int8 edge programs on two lanes: the row tiles split between the
calling thread and the lane thread, byte-equal to the eager op loop;
one lock per edge model; the lane runner's re-entrancy; and sessions
that hand their models back when they close."""

import copy
import gc
import pickle
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from repro.edge import (Dequantize, EdgeModel, QFlatten, QMaxPool2d,
                        QuantizeInput, compile_edge, load_edge_model,
                        save_edge_model)
from repro.edge.program import _DequantStep, _tile_rows
from repro.models import build_model
from repro.nn import lanes
from repro.nn.graph import cached_programs
from repro.quantization import calibrate, prepare_qat
from repro.serve import (FaultInjector, FaultSpec, ServeSession,
                         build_workload, chaos_replay, inject,
                         mixed_workload_spec, replay_serve)

from .test_edge_program import _per_tensor, _rand_conv


def _edge(name, per_channel, image_size, **kw):
    rng = np.random.default_rng(0)
    chans = kw.get("in_channels", 3)
    x = rng.random((32, chans, image_size, image_size)).astype(np.float32)
    model = build_model(name, image_size=image_size, seed=0, **kw)
    model.eval()
    q = prepare_qat(model, weight_bits=8, act_bits=8,
                    per_channel=per_channel)
    calibrate(q, x)
    q.freeze()
    return compile_edge(q, kw.get("num_classes", kw.get("num_identities")))


@pytest.fixture(scope="module")
def vgg32():
    """The edge benchmark's model shape: per-channel, 10-row tiles."""
    return _edge("vggface", True, 32, num_identities=50, width=8)


@pytest.fixture(scope="module")
def lenet16():
    """A per-tensor lenet."""
    return _edge("lenet", False, 16, num_classes=10, in_channels=1)


def _rows(edge, n, dtype):
    shape = {50: (3, 32, 32), 10: (1, 16, 16)}[edge.num_classes]
    return np.random.default_rng(n).random((n,) + shape).astype(dtype)


def _strict(edge, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return edge.predict(x, batch_size=len(x))


def _widths(monkeypatch):
    widths = []
    real = lanes._on_lanes

    def spy(calls):
        widths.append(len(calls))
        return real(calls)
    monkeypatch.setattr(lanes, "_on_lanes", spy)
    return widths


class TestSplitBytes:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", ["vgg32", "lenet16"])
    def test_predict_equals_eager_around_the_tiles(self, name, dtype,
                                                   request, monkeypatch):
        """Every batch size around the tile boundaries returns the eager
        loop's bytes; those with two full tiles ran on both lanes, in the
        build's validation run, which answers the first predict."""
        edge = EdgeModel(request.getfixturevalue(name).ops,
                         request.getfixturevalue(name).num_classes)
        widths = _widths(monkeypatch)
        t = _tile_rows(edge.ops, _rows(edge, 1, dtype))
        for n in sorted({1, t - 1, t, t + 1, 2 * t + 1, 256} - {0}):
            x = _rows(edge, n, dtype)
            widths.clear()
            got = _strict(edge, x)
            ref = edge._eager_forward(x)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            prog = edge._programs[(x.shape, x.dtype.str)]
            split = n >= 2 * prog.tile_rows
            assert (prog.lane_steps is not None) == split
            assert widths == ([2] if split else [])

    def test_paper_model_splits_256_rows(self, vgg32):
        x = _rows(vgg32, 256, "float32")
        assert 256 >= 2 * _tile_rows(vgg32.ops, x[:1])

    def test_lane_slabs_hold_two_lanes_in_one_step_each(self, vgg32):
        """Each lane's slab is its largest step (a step's buffers plus
        its running input and output), not a buffer per key."""
        from repro.edge.program import _plan, _slab_bytes
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 256, "float32")
        _strict(edge, x)
        t = _tile_rows(edge.ops, x[:1])
        row = _plan(edge.ops, 1, x[:1])
        nbytes = _slab_bytes(row.sizes, t)
        assert [p._arena.nbytes for p in edge._pools] == [nbytes, nbytes]
        assert nbytes <= row.peak * t + 64 * max(map(len, row.sizes))


class TestPads:
    def test_chained_same_geometry_pads(self):
        """Two padded convs, then two stride-1 padded pools, on one
        geometry: each step writes the next step's pad while it reads
        its own, and the bytes are the eager loop's on both lanes."""
        rng = np.random.default_rng(71)
        qp = _per_tensor(-2, 2, 0, 255)
        em = EdgeModel([QuantizeInput(qp),
                        _rand_conv(rng, 3, 3, 3, qp, qp, padding=1),
                        _rand_conv(rng, 3, 3, 3, qp, qp, padding=1),
                        QMaxPool2d(3, stride=1, padding=1),
                        QMaxPool2d(3, stride=1, padding=1),
                        QFlatten(), Dequantize(qp)], 3 * 7 * 7)
        x = rng.random((1, 3, 7, 7))
        n = 2 * _tile_rows(em.ops, x) + 1
        x = rng.random((n, 3, 7, 7))
        got = _strict(em, x)
        assert got.tobytes() == em._eager_forward(x).tobytes()
        prog = em._programs[(x.shape, x.dtype.str)]
        assert prog.lane_steps is not None
        pads = [s.pad for s in prog.steps[1:5]]
        assert [s.copy_in for s in prog.steps[1:5]] == [False] * 4
        assert len({id(p.base) for p in pads}) == 4


class TestDegradation:
    def test_corrupt_lane_half_fails_validation(self, vgg32, monkeypatch):
        """Build-time validation runs the split: a wrong logit written
        only on the lane fails it loudly, and the eager loop serves."""
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 64, "float32")
        dequant = _DequantStep.run

        def flip_on_lane(step, q):
            out = dequant(step, q)
            if threading.current_thread() is not threading.main_thread():
                out[0, 0] += 1.0
            return out
        monkeypatch.setattr(_DequantStep, "run", flip_on_lane)
        with pytest.warns(RuntimeWarning, match="lowering failed"):
            got = edge.predict(x)
        assert list(edge._programs.values()) == [None]
        assert got.tobytes() == edge._eager_forward(x).tobytes()

    def test_validate_error_fault_pins_eager(self, vgg32):
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 64, "float32")
        inj = FaultInjector([FaultSpec("edge.plan.validate", "error",
                                       rate=1.0)])
        with inject(inj), pytest.warns(RuntimeWarning,
                                       match="lowering failed"):
            got = edge.predict(x)
        assert list(edge._programs.values()) == [None]
        assert got.tobytes() == edge._eager_forward(x).tobytes()

    def test_dispatch_error_fault_degrades_to_eager(self, vgg32):
        """A kernel failing at dispatch of a built, split program: the
        serving ladder re-runs the job on the eager loop."""
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 64, "float32")
        session = ServeSession(capacity=16)
        ref = session.submit_predict(edge, x).result()    # build + validate
        inj = FaultInjector([FaultSpec("edge.dispatch", "error", rate=1.0,
                                       max_fires=1)])
        with inject(inj):
            fut = session.submit_predict(edge, x)
            got = fut.result()
        assert inj.fired("edge.dispatch") == 1
        assert fut.outcome == "ok"
        assert session.stats["retry_dispatches"] == 1
        assert got.tobytes() == ref.tobytes() == \
            edge._eager_forward(x).tobytes()


class TestModelLock:
    def test_threads_sharing_a_model_get_solo_bytes(self, vgg32):
        """Three threads (more than the cores, 10 us switch interval)
        each run 15 predicts of 64 rows on one model; each result is
        the solo predict's bytes."""
        edge = EdgeModel(vgg32.ops, 50)
        xs = [[_rows(edge, 64, "float32") + 0.01 * i * j
               for j in range(15)] for i in range(3)]
        xs = [[np.clip(x, 0, 1).astype(np.float32) for x in row]
              for row in xs]
        refs = [[edge._eager_forward(x) for x in row] for row in xs]
        edge.predict(xs[0][0])                # one build for every thread
        bad = []

        def work(i):
            for x, ref in zip(xs[i], refs[i]):
                if edge.predict(x).tobytes() != ref.tobytes():
                    bad.append(i)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert bad == []

    def test_copy_and_serialization_keep_working(self, vgg32, tmp_path):
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 32, "float32")
        ref = _strict(edge, x)
        clone = copy.deepcopy(edge)
        assert clone._lock is not edge._lock and clone._pools is None
        assert _strict(clone, x).tobytes() == ref.tobytes()
        path = str(tmp_path / "edge.npz")
        save_edge_model(edge, path)
        assert _strict(load_edge_model(path), x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("fixture", ["vgg32", "lenet16"])
class TestOwnStore:
    """An edge model's programs live in a store of its own that pins
    nothing: the model frees by refcount, copies keep their programs to
    themselves, and the model pickles."""

    def _fresh(self, request, fixture):
        base = request.getfixturevalue(fixture)
        edge = EdgeModel(base.ops, base.num_classes)
        return edge, _rows(edge, 32, "float32")

    def test_freed_by_refcount_after_predict(self, request, fixture):
        edge, x = self._fresh(request, fixture)
        _strict(edge, x)
        assert len(edge._programs) == 1
        ref = weakref.ref(edge)
        gc.disable()
        try:
            del edge
            assert ref() is None
        finally:
            gc.enable()

    def test_deepcopy_builds_into_its_own_store(self, request, fixture):
        edge, x = self._fresh(request, fixture)
        _strict(edge, x)
        clone = copy.deepcopy(edge)
        assert _strict(clone, x[:16]).tobytes() == \
            edge._eager_forward(x[:16]).tobytes()
        assert len(clone._programs) == len(edge._programs) == 1
        ref = weakref.ref(clone)
        gc.disable()
        try:
            del clone
            assert ref() is None
        finally:
            gc.enable()
        from repro.serve.cache import _program_store
        store, _ = _program_store(edge, create=False)
        assert len(store) == 1        # the original's one program only

    def test_pickles_after_predict(self, request, fixture):
        edge, x = self._fresh(request, fixture)
        ref = _strict(edge, x)
        loaded = pickle.loads(pickle.dumps(edge))
        assert loaded._programs == {}
        assert _strict(loaded, x).tobytes() == ref.tobytes()
        assert len(loaded._programs) == 1


class TestLaneRunner:
    def test_call_from_the_lane_runs_inline(self):
        """A runner call made on the lane thread runs its calls there,
        in order, instead of waiting on itself."""
        box = []

        def reenter():
            return lanes._on_lanes([threading.current_thread,
                                    threading.current_thread])

        def outer():
            box.append(lanes._on_lanes([threading.current_thread, reenter]))
        th = threading.Thread(target=outer, daemon=True)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive(), "a call re-entering from the lane hung"
        caller, (a, b) = box[0]
        assert a is b and a is not caller
        assert a.name.startswith("repro-lane")


def _spec():
    spec = mixed_workload_spec(scale=1)
    spec["steps"] = 2
    return spec


class TestSessionRelease:
    def test_replay_serve_hands_models_back(self):
        w = build_workload(_spec())
        replay_serve(w)
        for model in (w.original, w.adapted, w.edge):
            assert getattr(model, "plan_cache", None) is None
        for model in (w.original, w.adapted):
            assert cached_programs(model) == []
        assert w.edge._programs == {}
        # the released edge model still serves, from its own store
        x = next(j.x for j in w.jobs if j.kind == "predict")
        assert _strict(w.edge, x).tobytes() == \
            w.edge._eager_forward(x).tobytes()
        assert len(w.edge._programs) == 1

    def test_chaos_replay_hands_models_back(self):
        w = build_workload(_spec())
        chaos_replay(w)
        assert getattr(w.adapted, "plan_cache", None) is None
        assert getattr(w.edge, "plan_cache", None) is None
        assert w.edge._programs == {}

    def test_session_exit_closes(self, vgg32):
        edge = EdgeModel(vgg32.ops, 50)
        x = _rows(edge, 8, "float32")
        with ServeSession(capacity=8) as session:
            fut = session.submit_predict(edge, x)
            assert edge.plan_cache is session.plan_cache
        assert fut.outcome == "ok"
        assert getattr(edge, "plan_cache", None) is None
        assert edge._programs == {}
        session.close()                        # idempotent
        assert _strict(edge, x).tobytes() == fut.result().tobytes()

    @pytest.mark.parametrize("kind", ["edge", "float"])
    def test_copy_of_an_adopted_model_builds_its_own(self, lenet16, kind):
        """A deep copy of an adopted model is not adopted: it builds into
        a store of its own, so once the session closes nothing keeps the
        session cache, or the model that cache pins, alive."""
        if kind == "edge":
            model = EdgeModel(lenet16.ops, 10)
        else:
            model = build_model("lenet", num_classes=10, in_channels=1,
                                image_size=16, seed=0)
            model.eval()
        x = _rows(lenet16, 8, "float32")
        session = ServeSession()
        ref = session.submit_predict(model, x).result()
        clone = copy.deepcopy(model)
        assert getattr(clone, "plan_cache", None) is None
        session.close()
        got = ServeSession().submit_predict(clone, x).result()
        assert got.tobytes() == ref.tobytes()
        alive = weakref.ref(model)
        del model, session
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("kind", ["edge", "float"])
    def test_adopted_model_pickles_without_its_store(self, lenet16, kind):
        """An adopted model pickles while its session is open: the store
        (locks, compiled programs) pickles to None, and the unpickled
        copy builds its own programs and predicts the same bytes."""
        if kind == "edge":
            model = EdgeModel(lenet16.ops, 10)
        else:
            model = build_model("lenet", num_classes=10, in_channels=1,
                                image_size=16, seed=0)
            model.eval()
        x = _rows(lenet16, 8, "float32")
        session = ServeSession()
        ref = session.submit_predict(model, x).result()
        clone = pickle.loads(pickle.dumps(model))
        assert model.plan_cache is session.plan_cache
        assert clone.plan_cache is None
        session.close()
        got = ServeSession().submit_predict(clone, x).result()
        assert got.tobytes() == ref.tobytes()

    def test_close_leaves_models_another_session_adopted(self, vgg32):
        edge = EdgeModel(vgg32.ops, 50)
        first, second = ServeSession(), ServeSession()
        first._adopt(edge)
        second._adopt(edge)
        first.close()
        assert edge.plan_cache is second.plan_cache
        second.close()
        assert getattr(edge, "plan_cache", None) is None
