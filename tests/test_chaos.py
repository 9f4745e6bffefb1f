"""Chaos suite: the serving control plane under deterministic fault
injection.

Every test drives a :class:`~repro.serve.resilience.ManualClock` — time
moves only when the injector's latency faults advance it — so a given
``(workload, specs, seed)`` triple replays bit-for-bit.  The seed comes
from ``$REPRO_FAULT_SEED`` (default 0, the ``make chaos`` pin) so CI can
sweep seeds without touching the tests.

The invariants, shared with ``repro-exp serve --faults``:

- no hangs, no silent drops — every future resolves with an outcome;
- no silent corruption — every ``ok`` job is bit-identical to its solo
  fault-free run, and every degraded rung change is value-neutral;
- structured failures — refusals and dead jobs raise ServeError
  subclasses, chained to their root cause;
- flagged degradation — deadline-expired jobs return best-so-far
  batches marked ``deadline-degraded``, never partial silence.
"""

import os

import numpy as np
import pytest

from repro.attacks import DIVA, PGD
from repro.edge import compile_edge
from repro.models import build_model
from repro.quantization import calibrate, prepare_qat
from repro.serve import (AdmissionError, FaultInjector, FaultSpec,
                         ManualClock, QuotaError, ServeSession, ShedError,
                         build_workload, chaos_replay, inject,
                         mixed_workload_spec)
from repro.training import predict_labels

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture(scope="module")
def pair():
    """Untrained resnet + frozen 8-bit adaptation with self-labels."""
    rng = np.random.default_rng(0)
    x = rng.random((16, 3, 12, 12)).astype(np.float32)
    orig = build_model("resnet", num_classes=6, width=4, seed=0)
    orig.eval()
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    y = predict_labels(orig, x)
    return orig, quant, x, y


def _fresh_edge():
    rng = np.random.default_rng(1)
    x = rng.random((16, 1, 12, 12)).astype(np.float32)
    lenet = build_model("lenet", num_classes=6, in_channels=1,
                        image_size=12, width=4, seed=3)
    lenet.eval()
    q = prepare_qat(lenet, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(q, x)
    q.freeze()
    return compile_edge(q, 6), x


class TestChaosReplay:
    def test_mixed_workload_survives_default_chaos(self):
        """The acceptance run: the full default fault menu (plan-build
        errors, validation corruption, dispatch errors, queue/step
        latency) over the mixed workload.  chaos_replay raises if any
        invariant breaks; here we pin the accounting."""
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 3
        out = chaos_replay(build_workload(spec), capacity=32,
                           seed=FAULT_SEED, deadline_s=0.4)
        assert sum(out["outcome_counts"].values()) == out["jobs"] == 15
        assert out["faults_fired"]                  # chaos actually ran
        assert out["clock_s"] > 0                   # latency faults ticked
        # at least one dispatch fault forced a walk down the ladder
        assert out["retry_dispatches"] + out["quarantine"]["trips"] >= 1

    def test_replay_is_deterministic(self):
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        a = chaos_replay(build_workload(spec), capacity=32, seed=FAULT_SEED)
        b = chaos_replay(build_workload(spec), capacity=32, seed=FAULT_SEED)
        assert a["outcome_counts"] == b["outcome_counts"]
        assert a["faults_fired"] == b["faults_fired"]
        assert a["clock_s"] == b["clock_s"]


class TestDegradationLadder:
    def test_dispatch_fault_degrades_then_heals(self, pair):
        """One injected dispatch error: the job retries solo-compiled
        (bit-identical), the key is quarantined, and a cool-down later
        the probe walks it back to coalesced-compiled."""
        orig, quant, x, y = pair
        clock = ManualClock()
        inj = FaultInjector([FaultSpec("dispatch.attack", "error",
                                       rate=1.0, max_fires=1)],
                            seed=FAULT_SEED, clock=clock)
        session = ServeSession(capacity=16, clock=clock,
                               quarantine_cooldown_s=1.0)
        ref = PGD(quant, steps=2).generate(x[:4], y[:4])
        with inject(inj):
            got = session.submit_attack(PGD(quant, steps=2),
                                        x[:4], y[:4]).result()
        np.testing.assert_array_equal(got, ref)
        assert [(r.level, r.retry) for r in session.dispatch_log] == \
            [(0, False), (1, True)]
        assert session.breaker.stats["trips"] == 1
        assert session.breaker.stats["quarantined_keys"] == 1

        # still quarantined: the next dispatch starts at solo-compiled
        got = session.submit_attack(PGD(quant, steps=2),
                                    x[:4], y[:4]).result()
        np.testing.assert_array_equal(got, ref)
        assert session.dispatch_log[-1].level == 1

        clock.advance(1.5)            # cool-down elapsed: probe one rung up
        got = session.submit_attack(PGD(quant, steps=2),
                                    x[:4], y[:4]).result()
        np.testing.assert_array_equal(got, ref)
        assert session.dispatch_log[-1].level == 0
        assert session.breaker.stats["heals"] == 1
        assert session.breaker.stats["quarantined_keys"] == 0
        assert session.scheduler.outcomes["ok"] == 3

    def test_float_coalesced_key_degrades_then_heals(self, pair):
        """The float-predict ladder is byte-neutral under faults: one
        injected ``dispatch.predict_float`` error quarantines the
        coalesced float key, every member completes solo-compiled with
        bits identical to its row-reproducible solo run, and the key
        walks back to coalesced after the cool-down."""
        from repro.training import predict_logits
        orig, quant, x, y = pair
        clock = ManualClock()
        inj = FaultInjector([FaultSpec("dispatch.predict_float", "error",
                                       rate=1.0, max_fires=1)],
                            seed=FAULT_SEED, clock=clock)
        session = ServeSession(capacity=16, clock=clock,
                               quarantine_cooldown_s=1.0)
        refs = []
        for lo, hi in ((0, 5), (5, 16)):
            refs.append(predict_logits(quant, x[lo:hi]))

        def submit_both():
            futs = [session.submit_predict(quant, x[:5]),
                    session.submit_predict(quant, x[5:16])]
            return [f.result() for f in futs]

        with inject(inj):
            got = submit_both()
        for ref, out in zip(refs, got):
            np.testing.assert_array_equal(out, ref)
        # coalesced rung failed, both members retried solo-compiled
        assert [(r.level, r.retry, r.coalesced)
                for r in session.dispatch_log] == \
            [(0, False, True), (1, True, False), (1, True, False)]
        assert session.breaker.stats["trips"] == 1
        assert session.breaker.stats["quarantined_keys"] == 1

        # still quarantined: next round starts solo-compiled, same bytes
        for ref, out in zip(refs, submit_both()):
            np.testing.assert_array_equal(out, ref)
        assert all(r.level == 1 for r in session.dispatch_log[-2:])

        clock.advance(1.5)            # cool-down elapsed: healed
        for ref, out in zip(refs, submit_both()):
            np.testing.assert_array_equal(out, ref)
        assert session.dispatch_log[-1].level == 0
        assert session.dispatch_log[-1].coalesced
        assert session.breaker.stats["heals"] == 1
        assert session.breaker.stats["quarantined_keys"] == 0

    def test_ladder_failure_chains_every_rung(self, pair):
        """A job broken at every rung fails with the whole descent
        attributable from ``__cause__`` links, and each rung left a
        DispatchRecord."""
        orig, quant, x, y = pair

        class Broken(PGD):
            def serve_signature(self):       # coalesces with plain PGD
                return ("PGD", id(self.model), self.steps)

            def gradient_with_logits(self, *a, **k):
                raise RuntimeError("bad tenant payload")

        from repro.serve import JobError
        session = ServeSession(capacity=16)
        bad = session.submit_attack(Broken(quant, steps=2), x[:4], y[:4])
        good = session.submit_attack(PGD(quant, steps=2), x[4:8], y[4:8])
        ref = PGD(quant, steps=2).generate(x[4:8], y[4:8])
        np.testing.assert_array_equal(good.result(), ref)
        with pytest.raises(JobError, match="bad tenant payload") as ei:
            bad.result()
        # coalesced level 0, bad solo at 1 then eager at 2, good solo at 1
        assert [(r.level, r.retry) for r in session.dispatch_log] == \
            [(0, False), (1, True), (2, True), (1, True)]
        # the terminal error chains eager <- solo <- coalesced failures
        chain = []
        exc = ei.value.__cause__
        while exc is not None:
            chain.append(exc)
            exc = exc.__cause__
        assert len(chain) == 3
        assert all("bad tenant payload" in str(e) for e in chain)
        assert session.scheduler.outcomes["failed"] == 1


class TestDeadlines:
    def test_deadline_job_returns_flagged_best_so_far(self, pair):
        """Step-latency faults burn the budget: the job's rows retire
        between compiled steps and the future resolves
        ``deadline-degraded`` with a real partial batch."""
        orig, quant, x, y = pair
        clock = ManualClock()
        inj = FaultInjector([FaultSpec("attack.step", "latency",
                                       rate=1.0, delay_s=0.2)],
                            seed=FAULT_SEED, clock=clock)
        session = ServeSession(capacity=16, clock=clock)
        fut = session.submit_attack(PGD(quant, steps=8), x[:4], y[:4],
                                    deadline_s=0.5)
        with inject(inj):
            out = fut.result()           # resolves, does not raise
        assert fut.outcome == "deadline-degraded"
        assert out.shape == x[:4].shape and out.dtype == x.dtype
        assert fut.info["expired_rows"] == 4
        assert (fut.info["steps_done"] < 8).all()
        assert session.scheduler.outcomes["deadline-degraded"] == 1

    def test_jobs_without_deadline_are_untouched(self, pair):
        """A deadline tenant coalesced with an unbounded one must not
        change the unbounded tenant's bytes."""
        orig, quant, x, y = pair
        clock = ManualClock()
        inj = FaultInjector([FaultSpec("attack.step", "latency",
                                       rate=1.0, delay_s=0.2)],
                            seed=FAULT_SEED, clock=clock)
        session = ServeSession(capacity=16, clock=clock)
        ref = DIVA(orig, quant, steps=6).generate(x[4:8], y[4:8])
        bounded = session.submit_attack(DIVA(orig, quant, steps=6),
                                        x[:4], y[:4], deadline_s=0.3)
        free = session.submit_attack(DIVA(orig, quant, steps=6),
                                     x[4:8], y[4:8])
        with inject(inj):
            got = free.result()
        np.testing.assert_array_equal(got, ref)
        assert free.outcome == "ok"
        assert bounded.outcome == "deadline-degraded"
        assert session.dispatch_log[0].coalesced    # they shared the pass


class TestAdmission:
    def test_reject_policy_bounds_the_queue(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=16, max_pending_jobs=2)
        f1 = session.submit_attack(PGD(quant, steps=2), x[:4], y[:4])
        f2 = session.submit_attack(PGD(quant, steps=2), x[4:8], y[4:8])
        f3 = session.submit_attack(PGD(quant, steps=2), x[8:12], y[8:12])
        assert f3.outcome == "rejected"       # refused at submit, no drain
        with pytest.raises(AdmissionError):
            f3.result()
        ref = PGD(quant, steps=2).generate(x[:4], y[:4])
        np.testing.assert_array_equal(f1.result(), ref)
        assert f2.outcome == "ok"
        assert session.admission.stats["accepted"] == 2
        assert session.admission.stats["rejected"] == 1

    def test_shed_policy_drops_oldest_first(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=16, max_pending_jobs=2,
                               admission_policy="shed")
        f1 = session.submit_attack(PGD(quant, steps=2), x[:4], y[:4])
        f2 = session.submit_attack(PGD(quant, steps=2), x[4:8], y[4:8])
        f3 = session.submit_attack(PGD(quant, steps=2), x[8:12], y[8:12])
        assert f1.outcome == "rejected"       # oldest pending was shed
        with pytest.raises(ShedError):
            f1.result()
        ref3 = PGD(quant, steps=2).generate(x[8:12], y[8:12])
        np.testing.assert_array_equal(f3.result(), ref3)
        assert f2.outcome == "ok"
        assert session.admission.stats["shed"] == 1

    def test_tenant_quota_cannot_starve_others(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=16,
                               tenant_quota_rows={"A": 6})
        fa1 = session.submit_attack(PGD(quant, steps=2), x[:4], y[:4],
                                    tenant="A")
        fa2 = session.submit_attack(PGD(quant, steps=2), x[4:8], y[4:8],
                                    tenant="A")       # 8 pending rows > 6
        fb = session.submit_attack(PGD(quant, steps=2), x[8:12], y[8:12],
                                   tenant="B")        # no quota: admitted
        assert fa2.outcome == "rejected"
        with pytest.raises(QuotaError):
            fa2.result()
        ref = PGD(quant, steps=2).generate(x[8:12], y[8:12])
        np.testing.assert_array_equal(fb.result(), ref)
        assert fa1.outcome == "ok" and fb.outcome == "ok"
        assert session.admission.stats["quota_rejected"] == 1


class TestPlanFaults:
    def test_transient_build_fault_pins_eager_then_reprobes(self):
        """An injected compile fault pins the eager fallback (loudly),
        serves exact results meanwhile, and the pinned failure re-probes
        after the cool-down — the plan compiles and the fallback heals."""
        edge, x = _fresh_edge()
        clock = ManualClock()
        session = ServeSession(capacity=16, clock=clock,
                               failure_cooldown_s=1.0)
        ref = edge.predict(x[:8], compiled=False)
        inj = FaultInjector([FaultSpec("edge.plan.build", "error",
                                       rate=1.0, max_fires=1)],
                            seed=FAULT_SEED, clock=clock)
        with inject(inj):
            with pytest.warns(RuntimeWarning, match="injected fault"):
                got = session.submit_predict(edge, x[:8]).result()
            np.testing.assert_array_equal(got, ref)
            # within the cool-down: the pinned failure serves eager again
            got = session.submit_predict(edge, x[:8]).result()
            np.testing.assert_array_equal(got, ref)
            assert session.plan_cache.stats["reprobes"] == 0

            clock.advance(1.5)       # cool-down elapsed: builder retried
            got = session.submit_predict(edge, x[:8]).result()
        np.testing.assert_array_equal(got, ref)
        assert session.plan_cache.stats["reprobes"] == 1
        # healed: a real compiled program now serves this shape
        key = ("edge", id(edge), x[:8].shape, x[:8].dtype.str)
        assert session.plan_cache._entries[key].plan is not None

    def test_validation_corruption_is_caught_loudly(self):
        """A corrupted compiled output must never reach a tenant: the
        compile-time bit-validation catches the flip, pins the eager
        loop with a warning, and results stay exact."""
        edge, x = _fresh_edge()
        session = ServeSession(capacity=16)
        ref = edge.predict(x[:8], compiled=False)
        inj = FaultInjector([FaultSpec("edge.plan.validate", "corrupt",
                                       rate=1.0, max_fires=1)],
                            seed=FAULT_SEED)
        with inject(inj):
            with pytest.warns(RuntimeWarning, match="lowering failed"):
                got = session.submit_predict(edge, x[:8]).result()
        np.testing.assert_array_equal(got, ref)
        assert inj.fired("edge.plan.validate", "corrupt")
