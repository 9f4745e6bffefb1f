"""One compiled program per (model, trailing shape, dtype) per store.

Attacks, served float predicts and ``predict_logits`` look a model's
programs up in the model's store (the session cache it was adopted into,
else a store that dies with the model), so they replay one program; a
program shared across threads is serialized by its lock.
"""

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.attacks import DIVA, PGD
from repro.models import build_model
from repro.nn import graph, set_default_dtype
from repro.nn.graph import cached_programs, compile_forward_cached
from repro.quantization import calibrate, prepare_qat
from repro.serve import ServeSession, build_workload, mixed_workload_spec, \
    replay_serve
from repro.training import predict_labels
from repro.training.evaluate import predict_logits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def pair():
    """Fresh untrained resnet + frozen 8-bit adaptation, self-labels.
    Function-scoped: sessions adopt these models, and each test starts
    from models whose programs live in their own stores."""
    x = np.random.default_rng(0).random((24, 3, 12, 12)).astype(np.float32)
    orig = build_model("resnet", num_classes=6, width=4, seed=0)
    orig.eval()
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    return orig, quant, x, predict_labels(orig, x)


def _bytes(a):
    return a.dtype.str, a.shape, a.tobytes()


class TestOneProgramPerModel:
    def test_diva_and_pgd_replay_the_same_program(self, pair):
        orig, quant, x, y = pair
        diva, pgd = DIVA(orig, quant, steps=2), PGD(quant, steps=2)
        diva.generate(x[:8], y[:8])
        pgd.generate(x[:8], y[:8])
        d_orig, d_quant = diva._executor(x).programs
        (p_quant,) = pgd._executor(x).programs
        assert d_quant is p_quant and d_orig is not p_quant
        assert cached_programs(quant) == [p_quant]
        # predict_logits on the adapted model replays that program too
        before = p_quant.replays
        predict_logits(quant, x[:12], batch_size=1)
        assert p_quant.replays == before + 12

    def test_step_logits_survive_another_attacks_replay(self, pair):
        """A step's logits are its own: PGD replaying the shared adapted
        program afterwards cannot rewrite the logits DIVA returned."""
        orig, quant, x, y = pair
        diva, pgd = DIVA(orig, quant), PGD(quant)
        _, zs = diva.gradient_with_logits(x[:4], y[:4])
        kept = [z.copy() for z in zs]
        pgd.gradient(x[4:8], y[4:8])
        for z, k in zip(zs, kept):
            np.testing.assert_array_equal(z, k)

    def test_generate_refolds_a_program_another_attack_built(self):
        """A hit is not refreshed, so ``generate`` re-folds its models'
        programs once per run: weights mutated after another attack
        compiled the program reach the replay (compiled == eager, bit
        for bit in float64)."""
        set_default_dtype(np.float64)
        model = build_model("resnet", num_classes=6, width=4, seed=4)
        model.eval()
        x = np.random.default_rng(5).random((6, 3, 12, 12))
        y = predict_labels(model, x)
        PGD(model, steps=2).generate(x, y)
        for p in model.parameters():
            p.data += 0.01
        got = PGD(model, steps=3).generate(x, y)
        eager = PGD(model, steps=3)
        eager.use_compiled = False
        np.testing.assert_array_equal(got, eager.generate(x, y))

    def test_whitebox_diva_setup_compiles_two_programs(self, monkeypatch):
        if ROOT not in sys.path:
            sys.path.insert(0, ROOT)
        from perfbench import workloads
        set_default_dtype(np.float32)
        calls = []
        real = graph.compile_forward

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(graph, "compile_forward", counting)
        w = workloads.WORKLOADS["whitebox_diva"](1)
        w.setup()
        assert len(calls) == 2
        assert [len(cached_programs(m)) for m in (w.orig, w.adapted)] == \
            [1, 1]

    def test_serve_session_holds_one_adapted_program(self):
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        w = build_workload(spec)
        session = ServeSession(capacity=64)
        replay_serve(w, session=session)
        keys = [k for k, _ in session.plan_cache.items()
                if k[:2] == ("nn-forward", id(w.adapted))]
        assert len(keys) == 1

    def test_duplicate_model_steps_on_two_programs(self):
        """``DIVA(m, m)`` names one model twice: each occurrence replays
        its own program, so two lanes never share an arena, and the
        attack equals the eager tape bit for bit in float64."""
        set_default_dtype(np.float64)
        model = build_model("resnet", num_classes=6, width=4, seed=2)
        model.eval()
        x = np.random.default_rng(3).random((6, 3, 12, 12))
        y = predict_labels(model, x)
        atk = DIVA(model, model, c=0.5, eps=16 / 255, alpha=2 / 255, steps=4)
        first, second = atk._executor(x).programs
        assert first is not second
        assert len(cached_programs(model)) == 2
        got = atk.generate(x, y)
        eager = DIVA(model, model, c=0.5, eps=16 / 255, alpha=2 / 255,
                     steps=4)
        eager.use_compiled = False
        ref = eager.generate(x, y)
        assert not np.array_equal(got, x)
        np.testing.assert_array_equal(got, ref)

    def test_budgeted_session_evicts_and_rebuilds_a_model_program(self,
                                                                  pair):
        """A session budget that fits one program: a float predict and a
        PGD job on different models evict each other's program, every
        rebuild revalidates, and neither job's bytes move."""
        orig, quant, x, y = pair
        ref_pred = predict_logits(orig, x[:8])
        ref_adv = PGD(quant, steps=2).generate(x[:8], y[:8])
        probe = ServeSession()
        probe.submit_predict(orig, x[:8]).result()
        one = probe.plan_cache.total_bytes()
        tight = ServeSession(budget_bytes=int(one * 1.2))
        for _ in range(2):
            pred = tight.submit_predict(orig, x[:8])
            adv = tight.submit_attack(PGD(quant, steps=2), x[:8], y[:8])
            assert _bytes(pred.result()) == _bytes(ref_pred)
            assert _bytes(adv.result()) == _bytes(ref_adv)
        stats = tight.plan_cache.stats
        assert stats["evictions"] >= 2 and stats["rebuilds"] >= 1


class TestThreads:
    def test_threads_share_programs_bit_identically(self, pair):
        """Three threads (more than the cores) each run DIVA and PGD five
        times over the same models, with a short switch interval, so
        steps contend for the shared programs; every result equals its
        solo run byte for byte."""
        orig, quant, x, y = pair
        parts = [(x[i:i + 8], y[i:i + 8]) for i in (0, 8, 16)]

        def run(xp, yp):
            return (DIVA(orig, quant, steps=3).generate(xp, yp),
                    PGD(quant, steps=3).generate(xp, yp))

        solo = [run(*p) for p in parts]
        results = [[] for _ in parts]
        errors = []
        start = threading.Barrier(len(parts))

        def worker(i):
            try:
                start.wait()
                for _ in range(5):
                    results[i].append(run(*parts[i]))
            except BaseException as exc:       # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(parts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for ref, runs in zip(solo, results):
            assert len(runs) == 5
            for got in runs:
                assert [_bytes(a) for a in got] == [_bytes(a) for a in ref]
        assert [len(cached_programs(m)) for m in (orig, quant)] == [1, 1]


class TestLifetime:
    def test_predict_logits_does_not_keep_its_model_alive(self):
        """A large evaluation compiles into the model's own store, which
        dies with the model instead of pinning it in a process-wide
        cache until a byte budget evicts it."""
        model = build_model("lenet", num_classes=4, in_channels=1,
                            image_size=12, width=4, seed=0)
        model.eval()
        x = np.random.default_rng(0).random((12 * 128, 1, 12, 12))
        predict_logits(model, x)
        assert len(cached_programs(model)) == 1      # compiled path taken
        wr = weakref.ref(model)
        del model
        gc.collect()
        assert wr() is None

    def test_copy_of_an_adopted_model_builds_its_own_store(self, pair):
        """Deep-copying an adopted model (``prepare_qat`` does) neither
        copies the session store nor shares it: the copy is not adopted
        and builds into a store of its own, and it computes what its
        original does."""
        orig, quant, x, y = pair
        session = ServeSession()
        session.submit_predict(orig, x[:4]).result()
        clone = orig.copy_structure()
        assert clone.plan_cache is None
        assert _bytes(session.submit_predict(clone, x[:4]).result()) == \
            _bytes(predict_logits(orig, x[:4]))
        prepare_qat(orig, weight_bits=8)

    def test_adopted_model_is_pinned_by_its_session(self, pair):
        orig, quant, x, y = pair
        session = ServeSession()
        session.submit_predict(orig, x[:4]).result()
        assert orig.plan_cache is session.plan_cache
        prog = compile_forward_cached(orig, x[:4])
        assert cached_programs(orig) == [prog]
        assert any(e.owners == (orig,) and e.plan is prog
                   for _, e in session.plan_cache.items())
