"""Paired-program attack engine: sweep-vs-sequential parity, cross-batch
work-stealing equivalence, paired-vs-separate executor bit-parity, the
executor-cache keying fix, pass counts, argument checks, and the
experiment dtype policy."""

import dataclasses
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.attacks import (DIVA, MomentumPGD, PGD, PairedExecutor,
                           TargetedDIVA, generate_grid)
from repro.attacks.base import softmax_np, softmax_vjp
from repro.models import build_model
from repro.nn.graph import ScratchPool, compile_forward
from repro.nn.module import Module
from repro.quantization import calibrate, prepare_qat
from repro.training import predict_labels


@pytest.fixture(scope="module")
def pair_setup(request):
    """(original, adapted, attack set) trained pair from the shared
    session fixtures."""
    model = request.getfixturevalue("tiny_model")
    quant = request.getfixturevalue("tiny_quantized")
    train, val = request.getfixturevalue("tiny_dataset")
    from repro.data import select_attack_set
    atk = select_attack_set(val, [model, quant], per_class=4)
    return model, quant, atk


EPS = 32.0 / 255.0
ALPHA = 4.0 / 255.0


def _paired(models, example):
    """A paired executor over freshly compiled programs of ``models``."""
    return PairedExecutor([compile_forward(m, example) for m in models])


class TestPairedExecutor:
    def test_paired_matches_separate_bitwise(self, pair_setup):
        """One fused paired step must reproduce the two separate
        value_and_input_grad calls bit for bit (DIVA's Eq. 5 economics
        rely on the fusion being value-neutral)."""
        orig, quant, atk = pair_setup
        x, y = atk.x[:6], atk.y[:6]
        c = 1.0
        pe = _paired((orig, quant), x)
        assert pe is not None
        atk_obj = DIVA(orig, quant, c=c)
        (zo, za), g = pe.value_and_input_grad(
            x, lambda zs: atk_obj._seeds(zs, y, {"c": c}))

        exo = compile_forward(orig, x)
        exa = compile_forward(quant, x)

        def seed(z, coeff):
            p = softmax_np(z)
            v = np.zeros_like(p)
            v[np.arange(len(y)), y] = coeff
            return softmax_vjp(p, v)

        zo_ref, go = exo.value_and_input_grad(x, lambda z: seed(z, 1.0))
        za_ref, ga = exa.value_and_input_grad(x, lambda z: seed(z, -c))
        np.testing.assert_array_equal(zo, zo_ref)
        np.testing.assert_array_equal(za, za_ref)
        np.testing.assert_array_equal(g, go + ga)

    def test_paired_lanes_own_their_scratch(self, pair_setup):
        """The programs of one paired step replay at the same time, so
        each holds its own pool, and a conv's transients are views of
        that program's arena."""
        orig, quant, atk = pair_setup
        pe = _paired((orig, quant), atk.x[:4])
        pools = {id(prog._pool) for prog in pe.programs}
        assert len(pools) == len(pe.programs) == 2
        pe.replay(atk.x[:4])
        for prog in pe.programs:
            cols = [buf for key, buf in prog._bufs.items()
                    if isinstance(key, tuple) and key[0] == "conv_cols"]
            assert cols
            assert all(np.shares_memory(buf, prog._arena) for buf in cols)
        a0, a1 = (prog._arena for prog in pe.programs)
        assert not np.shares_memory(a0, a1)

    def test_compile_fallback_is_none(self):
        class Opaque:
            def eval(self):
                return self

            def __call__(self, x):
                return "nope"

        with pytest.warns(RuntimeWarning, match="Opaque"):
            assert PGD(Opaque())._executor(np.zeros((2, 1, 4, 4))) is None

    @pytest.mark.parametrize("cls", [DIVA, TargetedDIVA])
    def test_paired_generate_matches_eager(self, pair_setup, cls):
        orig, quant, atk = pair_setup
        kwargs = dict(eps=EPS, alpha=ALPHA, steps=6)
        if cls is TargetedDIVA:
            kwargs["target_class"] = 1
        fast = cls(orig, quant, **kwargs).generate(atk.x, atk.y)
        slow_atk = cls(orig, quant, **kwargs)
        slow_atk.use_compiled = False
        slow = slow_atk.generate(atk.x, atk.y)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def _tile_rows(atk, n):
    """``n`` attack rows: the set tiled, with seeded jitter on repeats."""
    reps = -(-n // len(atk.x))
    x = np.concatenate([atk.x] * reps)[:n]
    rng = np.random.default_rng(n)
    x = np.clip(x + rng.normal(0.0, 0.02, size=x.shape) * (
        np.arange(n) >= len(atk.x)).reshape(-1, 1, 1, 1), 0.0, 1.0)
    return x.astype(atk.x.dtype), np.concatenate([atk.y] * reps)[:n]


class TestLanes:
    """The two-lane paired step: program 0 on the caller, the rest on
    the lane thread, with identical bytes and no escape mid-replay."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("kind", ["diva", "targeted", "c_sweep"])
    def test_two_lane_step_matches_separate_programs(self, pair_setup,
                                                     dtype, kind):
        from repro.nn import set_default_dtype
        set_default_dtype(dtype)
        orig, quant, atk = pair_setup
        attack = (TargetedDIVA(orig, quant, target_class=1)
                  if kind == "targeted" else DIVA(orig, quant))
        x4 = atk.x[:4].astype(dtype)
        pe = _paired((orig, quant), x4)
        exo, exa = compile_forward(orig, x4), compile_forward(quant, x4)
        for n in (1, 3, 64):                 # 64 regrows every arena
            x, y = _tile_rows(atk, n)
            x = x.astype(dtype)
            c = (np.linspace(0.1, 4.0, n) if kind == "c_sweep" else 1.0)
            (zo, za), g = pe.value_and_input_grad(
                x, lambda zs: attack._seeds(zs, y, {"c": c}))
            so, sa = attack._seeds(
                (exo.replay(x), exa.replay(x)), y, {"c": c})
            zo_ref, go = exo.value_and_input_grad(x, so)
            za_ref, ga = exa.value_and_input_grad(x, sa)
            go += ga
            assert zo.dtype == np.dtype(dtype) and g.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(zo, zo_ref)
            np.testing.assert_array_equal(za, za_ref)
            np.testing.assert_array_equal(g, go)
        assert pe.lane_steps == 3

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_generate_runs_on_two_lanes(self, pair_setup, dtype,
                                        monkeypatch):
        """Every pass of a compiled DIVA runs its two per-model programs
        on two lanes."""
        from repro.nn import lanes, set_default_dtype
        set_default_dtype(dtype)
        orig, quant, atk = pair_setup
        x, y = _tile_rows(atk, 64)
        x = x.astype(dtype)
        kw = dict(eps=EPS, alpha=ALPHA, steps=5)
        attack = DIVA(orig, quant, **kw)
        widths = []
        real = lanes._on_lanes

        def spy(calls):
            widths.append(len(calls))
            return real(calls)

        monkeypatch.setattr(lanes, "_on_lanes", spy)
        got = attack.generate(x, y)
        assert widths and set(widths) == {2}
        if dtype == "float64":
            eager = DIVA(orig, quant, **kw)
            eager.use_compiled = False
            np.testing.assert_array_equal(got, eager.generate(x, y))

    def test_single_program_submits_nothing(self, pair_setup, monkeypatch):
        orig, quant, atk = pair_setup
        from repro.nn import lanes

        def no_lane():
            raise AssertionError("a single program must not use the lane")

        monkeypatch.setattr(lanes, "_lane", no_lane)
        pe = _paired((quant,), atk.x[:4])
        ex = compile_forward(quant, atk.x[:4])
        seed = np.ones((6, 6))
        (z,), g = pe.value_and_input_grad(atk.x[:6], lambda zs: [seed])
        z_ref, g_ref = ex.value_and_input_grad(atk.x[:6], seed)
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(g, g_ref)
        assert pe.lane_steps == 0

    def _step(self, pe, attack, x, y):
        (zo, za), g = pe.value_and_input_grad(
            x, lambda zs: attack._seeds(zs, y, {"c": 1.0}))
        return zo.copy(), za.copy(), g

    @pytest.mark.parametrize("method", ["_forward", "_backward_from_seed"])
    def test_lane_failure_surfaces_after_caller_finished(self, pair_setup,
                                                         method):
        orig, quant, atk = pair_setup
        attack = DIVA(orig, quant)
        x, y = atk.x[:6], atk.y[:6]
        pe = _paired((orig, quant), atk.x[:4])
        ref = self._step(pe, attack, x, y)
        head, lane = pe.programs
        finished = []
        real = getattr(head, method)

        def slow_head(*args):
            time.sleep(0.05)
            out = real(*args)
            finished.append(threading.current_thread())
            return out

        def boom(*args):
            assert threading.current_thread() is not threading.main_thread()
            raise RuntimeError("lane failed")

        setattr(head, method, slow_head)
        setattr(lane, method, boom)
        with pytest.raises(RuntimeError, match="lane failed"):
            self._step(pe, attack, x, y)
        assert finished == [threading.main_thread()]
        delattr(head, method)
        delattr(lane, method)
        for got, want in zip(self._step(pe, attack, x, y), ref):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", ["_forward", "_backward_from_seed"])
    def test_caller_failure_joins_the_lane_first(self, pair_setup, method):
        orig, quant, atk = pair_setup
        attack = DIVA(orig, quant)
        x, y = atk.x[:6], atk.y[:6]
        pe = _paired((orig, quant), atk.x[:4])
        ref = self._step(pe, attack, x, y)
        head, lane = pe.programs
        finished = []
        real = getattr(lane, method)

        def slow_lane(*args):
            time.sleep(0.1)
            out = real(*args)
            finished.append(True)
            return out

        def boom(*args):
            raise RuntimeError("caller failed")

        setattr(head, method, boom)
        setattr(lane, method, slow_lane)
        with pytest.raises(RuntimeError, match="caller failed"):
            self._step(pe, attack, x, y)
        # no program may still be mid-replay when the caller sees it
        assert finished == [True]
        delattr(head, method)
        delattr(lane, method)
        for got, want in zip(self._step(pe, attack, x, y), ref):
            np.testing.assert_array_equal(got, want)

    def test_forked_child_gets_a_fresh_lane(self, pair_setup):
        import os
        import select
        import signal
        from repro.nn import lanes
        orig, quant, atk = pair_setup
        attack = DIVA(orig, quant)
        pe = _paired((orig, quant), atk.x[:4])
        ref = self._step(pe, attack, atk.x[:6], atk.y[:6])
        assert lanes._lane_pool is not None
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:                             # child
            ok = False
            try:
                fresh = lanes._lane_pool is None
                got = self._step(pe, attack, atk.x[:6], atk.y[:6])
                ok = fresh and all(np.array_equal(a, b)
                                   for a, b in zip(got, ref))
            finally:
                os.write(w, b"1" if ok else b"0")
                os._exit(0)
        os.close(w)
        ready, _, _ = select.select([r], [], [], 120.0)
        if not ready:                            # a hung child fails
            os.kill(pid, signal.SIGKILL)
        verdict = os.read(r, 1) if ready else b""
        os.close(r)
        os.waitpid(pid, 0)
        assert verdict == b"1"


class TestWorkStealing:
    """Scheduling must be value-neutral: per-sample trajectories do not
    depend on which other samples share the gradient batch."""

    def test_small_capacity_equals_full_batch(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        ref = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=64)
        stolen = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=3)
        np.testing.assert_array_equal(ref, stolen)

    def test_equals_per_sample_runs_under_uneven_success(self, pair_setup):
        """The trained pair produces genuinely uneven success steps, so
        slots retire and refill at different times; every sample must
        still match its own single-sample run."""
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        batch = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=5)
        atk_solo = DIVA(orig, quant, **kw)
        for i in range(len(atk.x)):
            solo = atk_solo.generate(atk.x[i:i + 1], atk.y[i:i + 1])
            np.testing.assert_array_equal(batch[i:i + 1], solo)

    def test_pgd_steals_too(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        ref = PGD(quant, **kw).generate(atk.x, atk.y)
        stolen = PGD(quant, **kw).generate(atk.x, atk.y, batch_size=4)
        np.testing.assert_array_equal(ref, stolen)


class TestGenerateSweep:
    def test_sweep_matches_sequential_per_variant(self, pair_setup):
        orig, quant, atk = pair_setup
        steps = 6
        variants = [{"c": 0.1}, {"c": 1.0}, {"eps": 16 / 255, "alpha": 2 / 255},
                    {"c": 5.0, "eps": 48 / 255}, {"keep_best": False}]
        sweep = DIVA(orig, quant, c=1.0, eps=EPS, alpha=ALPHA,
                     steps=steps).generate_sweep(atk.x, atk.y, variants)
        assert len(sweep) == len(variants)
        for v, got in zip(variants, sweep):
            ref_atk = DIVA(orig, quant, c=v.get("c", 1.0),
                           eps=v.get("eps", EPS), alpha=v.get("alpha", ALPHA),
                           steps=steps, keep_best=v.get("keep_best", True))
            np.testing.assert_array_equal(got, ref_atk.generate(atk.x, atk.y))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("cls", [DIVA, TargetedDIVA])
    def test_eager_c_sweep_matches_sequential_eager(self, pair_setup, dtype,
                                                    cls):
        """The eager tape takes ``c`` as a per-row vector too."""
        from repro.nn import set_default_dtype
        set_default_dtype(dtype)
        orig, quant, atk = pair_setup
        x = atk.x.astype(dtype)
        kw = dict(eps=EPS, alpha=ALPHA, steps=4)
        if cls is TargetedDIVA:
            kw["target_class"] = 1

        def eager(**extra):
            attack = cls(orig, quant, **kw, **extra)
            attack.use_compiled = False
            return attack

        variants = [{"c": 0.5}, {"c": 2.0}]
        sweep = eager().generate_sweep(x, atk.y, variants)
        for v, got in zip(variants, sweep):
            np.testing.assert_array_equal(got, eager(**v).generate(x, atk.y))

    def test_sweep_rejects_unknown_params(self, pair_setup):
        orig, quant, atk = pair_setup
        with pytest.raises(ValueError, match="unsupported sweep parameter"):
            DIVA(orig, quant).generate_sweep(atk.x, atk.y, [{"steps": 3}])

    def test_pgd_eps_sweep(self, pair_setup):
        orig, quant, atk = pair_setup
        variants = [{"eps": e, "alpha": e / 8} for e in (8 / 255, 32 / 255)]
        sweep = PGD(quant, steps=6).generate_sweep(atk.x, atk.y, variants)
        for v, got in zip(variants, sweep):
            ref = PGD(quant, eps=v["eps"], alpha=v["alpha"], steps=6)
            np.testing.assert_array_equal(got, ref.generate(atk.x, atk.y))

    def test_momentum_pgd_falls_back_to_sequential(self, pair_setup):
        from repro.attacks import MomentumPGD
        orig, quant, atk = pair_setup
        variants = [{"eps": 16 / 255, "alpha": 2 / 255}, {}]
        sweep = MomentumPGD(quant, eps=EPS, alpha=ALPHA,
                            steps=4).generate_sweep(atk.x, atk.y, variants)
        for v, got in zip(variants, sweep):
            ref = MomentumPGD(quant, eps=v.get("eps", EPS),
                              alpha=v.get("alpha", ALPHA), steps=4)
            np.testing.assert_array_equal(got, ref.generate(atk.x, atk.y))

    def test_generate_grid_mixes_plain_and_sweeps(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=4)
        advs = generate_grid(
            {"pgd": PGD(quant, **kw), "diva": DIVA(orig, quant, **kw)},
            atk.x, atk.y, variants={"diva": [{"c": 0.5}, {"c": 2.0}]})
        np.testing.assert_array_equal(
            advs["pgd"], PGD(quant, **kw).generate(atk.x, atk.y))
        assert len(advs["diva"]) == 2
        np.testing.assert_array_equal(
            advs["diva"][1],
            DIVA(orig, quant, c=2.0, **kw).generate(atk.x, atk.y))


class TestExecutorCacheKeying:
    """Regression for the (id(model), shape) cache-key collision: a
    program is keyed by the model it was compiled from, and its store
    either dies with that model or pins it."""

    def _fresh(self, seed=3):
        from repro.models import build_model
        rng = np.random.default_rng(11)
        m = build_model("lenet", num_classes=6, in_channels=1, image_size=12,
                        width=4, seed=seed)
        m.eval()
        x = rng.random((4, 1, 12, 12))
        y = np.zeros(4, dtype=int)
        return m, x, y

    def test_cache_entry_pins_model(self):
        from repro.nn.graph import cached_programs
        from repro.serve import ServeSession
        model, x, y = self._fresh()
        atk = PGD(model, steps=2, eps=0.1, alpha=0.05)
        atk.generate(x, y)
        assert len(cached_programs(model)) == 1
        wr = weakref.ref(model)
        # rebind the attack's model: the old model's own store dies with
        # it, so no program outlives its model to be hit by a recycled id
        atk.model, model = self._fresh(seed=4)[0], None
        gc.collect()
        assert wr() is None
        # in a shared session store the entry itself pins the model —
        # exactly what keeps its id from being recycled for another model
        session = ServeSession()
        session.submit_attack(atk, x, y).result()
        wr = weakref.ref(atk.model)
        atk.model = self._fresh(seed=5)[0]
        gc.collect()
        assert wr() is not None
        assert any(entry.owners[0] is wr()
                   for _, entry in session.plan_cache.items())

    def test_rebound_model_gets_its_own_program(self):
        from repro.nn.graph import cached_programs
        model_a, x, y = self._fresh(seed=3)
        atk = PGD(model_a, steps=3, eps=0.1, alpha=0.05)
        first = atk.generate(x, y)
        model_b = self._fresh(seed=17)[0]
        atk.model = model_b
        rebound = atk.generate(x, y)
        ref = PGD(model_b, steps=3, eps=0.1, alpha=0.05).generate(x, y)
        np.testing.assert_allclose(rebound, ref, rtol=0, atol=1e-12)
        assert not np.array_equal(first, rebound)
        # both programs alive, each in its own model's store
        (prog_a,), (prog_b,) = (cached_programs(model_a),
                                cached_programs(model_b))
        assert prog_a is not prog_b


class TestDtypePolicy:
    def test_dtype_keys_artifact_cache(self):
        from repro.experiments import ExperimentConfig
        a = ExperimentConfig.smoke()
        b = dataclasses.replace(a, dtype="float32")
        assert a.cache_key("orig", "resnet") != b.cache_key("orig", "resnet")

    def test_pipeline_applies_dtype_to_attack_set(self, tmp_path, request):
        from repro.experiments import ArtifactStore, ExperimentConfig, Pipeline
        from repro.nn import get_default_dtype
        cfg = dataclasses.replace(ExperimentConfig.smoke(), dtype="float32",
                                  train_epochs=1, num_classes=4,
                                  train_per_class=8, val_per_class=6,
                                  attack_per_class=2)
        pipe = Pipeline(cfg, store=ArtifactStore(str(tmp_path)))
        assert get_default_dtype() == np.float32
        orig = pipe.original("resnet")
        atk = pipe.attack_set([orig], "dtype-test")
        assert atk.x.dtype == np.float32

    def test_coexisting_pipelines_keep_their_own_dtype(self, tmp_path):
        """Constructing a second pipeline must not poison what the first
        one builds afterwards: accessors re-pin their own policy."""
        from repro.experiments import ArtifactStore, ExperimentConfig, Pipeline
        cfg = dataclasses.replace(ExperimentConfig.smoke(), train_epochs=1,
                                  num_classes=4, train_per_class=8,
                                  val_per_class=6, attack_per_class=2)
        pipe64 = Pipeline(cfg, store=ArtifactStore(str(tmp_path / "a")))
        Pipeline(dataclasses.replace(cfg, dtype="float32"),
                 store=ArtifactStore(str(tmp_path / "b")))   # moves the global
        model = pipe64.original("resnet")
        params = list(model.parameters())
        assert params[0].data.dtype == np.float64

    def test_run_dtype_delta_records_deltas(self, tmp_path, monkeypatch):
        from repro.experiments import ArtifactStore, ExperimentConfig
        from repro.experiments import exp_fig6
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
        cfg = dataclasses.replace(
            ExperimentConfig.smoke(), train_epochs=1, qat_epochs=1,
            num_classes=4, train_per_class=8, val_per_class=6,
            surrogate_per_class=4, attack_per_class=2, steps=3, width=4)
        res = exp_fig6.run_dtype_delta(
            cfg, verbose=False, store=ArtifactStore(str(tmp_path / "store")))
        assert set(res["per_dtype"]) == {"float64", "float32"}
        for name in ("pgd", "diva"):
            assert name in res["dtype_deltas"]
            assert -1.0 <= res["dtype_deltas"][name] <= 1.0


@pytest.fixture(scope="module")
def pair():
    """Untrained resnet + frozen 8-bit adaptation with self-labels."""
    rng = np.random.default_rng(0)
    x = rng.random((16, 3, 12, 12), dtype=np.float32)
    orig = build_model("resnet", num_classes=6, width=4, seed=0)
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    y = predict_labels(orig, x, batch_size=len(x))
    return orig, quant, x, y


class _SpyModel(Module):
    """Counts forward calls through a wrapped model."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.inner(x)


class _NeverSucceedsPGD(PGD):
    def success_from_logits(self, aux, y):
        return None if aux is None else np.zeros(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.zeros(len(x_adv), dtype=bool)


class _NeverSucceedsMomentumPGD(MomentumPGD):
    def success_from_logits(self, aux, y):
        return None if aux is None else np.zeros(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.zeros(len(x_adv), dtype=bool)


class _FullBatchPGD(PGD):
    """PGD forced onto the legacy per-batch keep-best loop."""

    shrink_done = False


class TestEarlyExit:
    def test_successful_rows_hold_their_first_success(self, pair):
        """A keep-best row retires at its first success: stepping it
        further (keep_best=False) changes bytes, proving the mask (not
        luck) held the iterate."""
        orig, quant, x, y = pair
        a = PGD(quant, eps=0.1, alpha=0.02, steps=10)
        got = a.generate(x, y)
        c = PGD(quant, eps=0.1, alpha=0.02, steps=10, keep_best=False)
        free = c.generate(x, y)
        ok = a.is_success(got, y)
        assert ok.any()
        # every successful row is genuinely adversarial and in-budget
        assert np.abs(got - x).max() <= 0.1 + 1e-6
        # at least one early-retired row differs from the free-running one
        assert any(not np.array_equal(got[i], free[i])
                   for i in np.flatnonzero(ok))

    def test_engine_pays_exactly_steps_gradient_passes(self, pair):
        """Warm compiled program, never-succeeding rows: one generate
        replays the program exactly ``steps`` times — no trailing
        success forward, no hidden extra passes."""
        orig, quant, x, y = pair
        steps = 7
        a = _NeverSucceedsPGD(quant, eps=0.5, alpha=0.01, steps=steps)
        a.generate(x[:8], y[:8])                      # warm the program
        ex = a._executor(x[:8])
        assert ex is not None
        before = ex.programs[0].replays
        a.generate(x[:8], y[:8])
        assert ex.programs[0].replays - before == steps


class TestPassCountRegression:
    """Satellite bugfix: generate and run_scheduled share done-mask
    semantics; single-step keep-best runs cost exactly one pass on
    *both* loops (the legacy per-batch keep-best loop historically paid
    a trailing success forward)."""

    def test_legacy_keep_best_loop_passes_exactly_steps(self, pair):
        orig, quant, x, y = pair
        steps = 5
        spy = _SpyModel(quant)
        atk = _NeverSucceedsMomentumPGD(spy, steps=steps, eps=0.1,
                                        alpha=0.01)
        atk.use_compiled = False
        atk.generate(x[:8], y[:8])
        assert spy.calls == steps

    @pytest.mark.parametrize("keep_best", [True, False])
    def test_expired_full_batch_rows_pay_no_pass(self, pair, keep_best):
        """Every row's deadline passed before step 0: the full-batch loop
        returns the initial iterates without a gradient pass, whatever
        ``keep_best`` says."""
        from repro.serve.resilience import DeadlineToken, ManualClock
        orig, quant, x, y = pair
        spy = _SpyModel(quant)
        atk = MomentumPGD(spy, steps=10, eps=0.1, alpha=0.01,
                          keep_best=keep_best)
        atk.use_compiled = False
        token = DeadlineToken.for_rows([0.0] * 8, ManualClock(1.0))
        got = atk.generate(x[:8], y[:8], deadline=token)
        assert spy.calls == 0
        np.testing.assert_array_equal(got, x[:8])
        assert token.expired.all() and not token.steps_done.any()

    def test_fgsm_as_single_step_pgd_costs_one_pass_both_loops(self, pair):
        orig, quant, x, y = pair
        # float32-exact eps/alpha: the scheduled engine carries them as
        # per-row float32 vectors, the legacy loop as python scalars
        spy_sched = _SpyModel(quant)
        sched = PGD(spy_sched, eps=0.125, alpha=0.125, steps=1)
        sched.use_compiled = False
        got_sched = sched.generate(x[:8], y[:8])
        spy_legacy = _SpyModel(quant)
        legacy = _FullBatchPGD(spy_legacy, eps=0.125, alpha=0.125, steps=1)
        legacy.use_compiled = False
        got_legacy = legacy.generate(x[:8], y[:8])
        # identical done-mask semantics for rows succeeding on step 0:
        # same bytes, and exactly one gradient pass on either loop
        assert np.array_equal(got_sched, got_legacy)
        assert spy_sched.calls == 1
        assert spy_legacy.calls == 1


class TestBatchSizeCheck:
    """A slot capacity below one used to spin the scheduler forever."""

    @pytest.mark.parametrize("batch_size", [0, -1])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_pgd_generate(self, pair, batch_size, compiled):
        orig, quant, x, y = pair
        atk = PGD(quant, steps=3)
        atk.use_compiled = compiled
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            atk.generate(x[:4], y[:4], batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_diva_generate_sweep(self, pair, batch_size):
        orig, quant, x, y = pair
        atk = DIVA(orig, quant, steps=3)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            atk.generate_sweep(x[:4], y[:4], [{"c": 0.5}, {"c": 2.0}],
                               batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_momentum_pgd_generate(self, pair, batch_size):
        orig, quant, x, y = pair
        atk = MomentumPGD(quant, steps=3)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            atk.generate(x[:4], y[:4], batch_size=batch_size)
