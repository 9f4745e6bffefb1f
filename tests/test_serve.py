"""Serving layer: PlanCache eviction, scheduler fairness, bit-parity."""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.attacks import CWLinf, DIVA, PGD, TargetedDIVA
from repro.edge import compile_edge
from repro.models import build_model
from repro.quantization import calibrate, prepare_qat
from repro.serve import (AdmissionError, FaultInjector, FaultSpec, JobError,
                         ManualClock, PlanCache, Scheduler, ServeSession,
                         build_workload, inject, mixed_workload_spec,
                         plan_nbytes, replay_sequential, replay_serve,
                         verify_parity)
from repro.serve.scheduler import _group_key
from repro.serve.workload import check_replay
from repro.training import predict_labels
from repro.training.evaluate import predict_logits

from .conftest import mixed_job_menus, submit_job_menu

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture(scope="module")
def pair():
    """Untrained resnet + frozen 8-bit adaptation with self-labels."""
    rng = np.random.default_rng(0)
    x = rng.random((24, 3, 12, 12)).astype(np.float32)
    orig = build_model("resnet", num_classes=6, width=4, seed=0)
    orig.eval()
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    y = predict_labels(orig, x)
    return orig, quant, x, y


@pytest.fixture(scope="module")
def edge_model():
    rng = np.random.default_rng(1)
    x = rng.random((32, 1, 12, 12)).astype(np.float32)
    lenet = build_model("lenet", num_classes=6, in_channels=1,
                        image_size=12, width=4, seed=3)
    lenet.eval()
    q = prepare_qat(lenet, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(q, x)
    q.freeze()
    return compile_edge(q, 6), x


class TestPlanCache:
    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        owner = object()
        built = []
        plan = cache.get("k", (owner,), lambda: built.append(1) or object())
        again = cache.get("k", (owner,), lambda: built.append(1) or object())
        assert plan is again and built == [1]
        assert cache.stats["hits"] == 1

    def test_owner_mismatch_rebuilds(self):
        """A recycled/rebound key must never serve a stale plan."""
        cache = PlanCache()
        a, b = object(), object()
        plan_a = cache.get("k", (a,), lambda: "plan-a")
        assert cache.get("k", (b,), lambda: "plan-b") == "plan-b"
        assert cache.get("k", (b,), lambda: "never") == "plan-b"
        assert plan_a == "plan-a"

    def test_failure_pinned(self):
        cache = PlanCache()
        calls = []
        owner = object()
        assert cache.get("k", (owner,), lambda: calls.append(1)) is None
        assert cache.get("k", (owner,), lambda: calls.append(1)) is None
        assert calls == [1]

    def test_plan_nbytes_dedupes_views(self):
        class P:
            def __init__(self):
                self.base = np.zeros((8, 128), dtype=np.float64)
                self.view = self.base[:2]
        assert plan_nbytes(P()) == 8 * 128 * 8

    def test_owner_held_cache_never_compounds_entry_charges(self):
        """An owner that holds the cache itself (an adopted model's
        plan_cache) must not have previously resident plans walked into
        every new entry's byte charge — that would compound
        quadratically and thrash eviction."""
        cache = PlanCache()

        class Model:
            def __init__(self):
                self.w = np.zeros(128, dtype=np.float64)     # 1 KiB
                self.plan_cache = cache

        class Plan:
            def __init__(self):
                self.buf = np.zeros(1024, dtype=np.float64)  # 8 KiB

        m = Model()
        cache.get("a", (m,), Plan)
        cache.get("b", (m,), Plan)
        cache.get("c", (m,), Plan)
        sizes = [e.nbytes for _, e in cache.items()]
        assert sizes == [8 * 1024 + 1024] * 3    # plan + owner, flat

    def test_lru_eviction_under_budget(self):
        class Plan:
            def __init__(self):
                self.buf = np.zeros(256, dtype=np.float64)   # 2 KiB
        cache = PlanCache(budget_bytes=5000)
        owner = object()
        for k in "abc":
            cache.get(k, (owner,), Plan)
        assert "a" not in cache and {"b", "c"} <= set(
            k for k, _ in cache.items())
        assert cache.stats["evictions"] == 1
        # touching "b" promotes it: inserting "d" now evicts "c"
        cache.get("b", (owner,), lambda: pytest.fail("must hit"))
        cache.get("d", (owner,), Plan)
        assert "b" in cache and "c" not in cache


class TestEvictionRebuildsValidate:
    def test_edge_programs_evict_and_rebuild_bit_identical(self, edge_model):
        """A tight budget cycles per-shape programs; every rebuild re-runs
        the compile-time bit-validation and still matches the eager op
        loop exactly."""
        edge, x = edge_model
        ref16 = edge.predict(x[:16], compiled=False)
        ref8 = edge.predict(x[16:24], compiled=False)
        edge.plan_cache = PlanCache()
        edge._program_for(x[:16])
        assert edge.plan_cache.stats["entries"] == 1
        # budget fits one entry (program + pinned owner): alternating
        # shapes forces eviction
        one_entry = next(iter(edge.plan_cache.items()))[1].nbytes
        edge.plan_cache = PlanCache(budget_bytes=int(one_entry * 1.5))
        for _ in range(3):
            np.testing.assert_array_equal(edge.predict(x[:16]), ref16)
            np.testing.assert_array_equal(edge.predict(x[16:24]), ref8)
        stats = edge.plan_cache.stats
        assert stats["evictions"] >= 4 and stats["rebuilds"] >= 4
        assert stats["entries"] == 1
        assert stats["resident_bytes"] <= int(one_entry * 1.5)

    def test_evicted_rebuild_under_corruption_falls_back_loudly(
            self, edge_model):
        """Eviction forces a rebuild; a rebuild whose validation pass is
        corrupted (injected fault) must pin the eager loop with a
        warning — never serve the corrupted program, never a stale one."""
        from repro.serve import FaultInjector, FaultSpec, inject
        edge, x = edge_model
        ref16 = edge.predict(x[:16], compiled=False)
        ref8 = edge.predict(x[16:24], compiled=False)
        edge.plan_cache = PlanCache()
        edge._program_for(x[:16])
        one_entry = next(iter(edge.plan_cache.items()))[1].nbytes
        # budget fits one entry: the 8-row shape evicts the 16-row plan
        edge.plan_cache = PlanCache(budget_bytes=int(one_entry * 1.5))
        np.testing.assert_array_equal(edge.predict(x[:16]), ref16)
        np.testing.assert_array_equal(edge.predict(x[16:24]), ref8)
        assert edge.plan_cache.stats["evictions"] >= 1
        inj = FaultInjector([FaultSpec("edge.plan.validate", "corrupt",
                                       rate=1.0, max_fires=1)])
        with inject(inj):
            with pytest.warns(RuntimeWarning, match="lowering failed"):
                got = edge.predict(x[:16])      # rebuild catches the flip
        np.testing.assert_array_equal(got, ref16)
        assert inj.fired("edge.plan.validate", "corrupt")
        # the corrupted rebuild is pinned as a failure, not served
        entry = next(e for k, e in edge.plan_cache.items()
                     if k[2] == x[:16].shape)
        assert entry.plan is None

    def test_attack_programs_evict_and_rebuild_bit_identical(self, pair):
        """A session budget that fits about one model pair cycles the
        per-model programs of two input shapes; every rebuild re-runs
        validation and the attack's bytes never move."""
        orig, quant, x, y = pair
        small = x[:8, :, :8, :8].copy()
        # references from the models' own stores, before any session
        ref = DIVA(orig, quant, steps=3).generate(x[:8], y[:8])
        ref_small = DIVA(orig, quant, steps=3).generate(small, y[:8])
        atk = DIVA(orig, quant, steps=3)
        roomy = ServeSession()
        roomy._adopt(atk)
        atk.generate(x[:8], y[:8])
        pair_bytes = roomy.plan_cache.total_bytes()
        tight = ServeSession(budget_bytes=int(pair_bytes * 1.2))
        tight._adopt(atk)
        # distinct trailing shapes alternate through the tight cache
        for _ in range(2):
            np.testing.assert_array_equal(atk.generate(x[:8], y[:8]), ref)
            np.testing.assert_array_equal(atk.generate(small, y[:8]),
                                          ref_small)
        assert tight.plan_cache.stats["evictions"] >= 2
        assert tight.plan_cache.stats["rebuilds"] >= 1


class TestScheduler:
    def _submit_attacks(self, session, attacks, x, y, rows=4):
        futs = []
        for i, atk in enumerate(attacks):
            sl = slice((i * rows) % (len(x) - rows), None)
            futs.append(session.submit_attack(
                atk, x[sl][:rows], y[sl][:rows]))
        return futs

    def test_compatible_jobs_coalesce(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=64)
        attacks = [DIVA(orig, quant, c=c, steps=3) for c in (0.5, 1.0, 2.0)]
        futs = self._submit_attacks(session, attacks, x, y)
        for f in futs:
            f.result()
        assert len(session.dispatch_log) == 1
        assert session.dispatch_log[0].coalesced

    def test_incompatible_signatures_stay_apart(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=64)
        jobs = [DIVA(orig, quant, steps=3),
                TargetedDIVA(orig, quant, target_class=1, steps=3),
                PGD(quant, steps=3), PGD(quant, steps=4),
                CWLinf(quant, steps=3, kappa=0.0),
                CWLinf(quant, steps=3, kappa=1.0)]
        futs = self._submit_attacks(session, jobs, x, y)
        for f in futs:
            f.result()
        assert len(session.dispatch_log) == 6   # nothing merged

    def test_arrival_order_fairness(self, pair):
        """Job i is dispatched no later than round i: a stream of
        mutually compatible jobs cannot starve the incompatible job
        sitting between them."""
        orig, quant, x, y = pair
        session = ServeSession(capacity=16)
        futs = []
        for i in range(6):
            futs.append(session.submit_attack(
                DIVA(orig, quant, c=1.0 + i, steps=2), x[:4], y[:4]))
            if i == 1:       # the lone PGD arrives early...
                lone = session.submit_attack(PGD(quant, steps=2),
                                             x[:4], y[:4])
        for f in futs:
            f.result()
        lone.result()
        log = session.dispatch_log
        # ...and is served in round 2 (0-indexed round 1), right after
        # the first DIVA batch, despite 4 more DIVAs queued behind it
        rounds_by_seq = {s: i for i, r in enumerate(log) for s in r.seqs}
        for seq, rnd in rounds_by_seq.items():
            assert rnd <= seq, (seq, rnd, log)
        assert rounds_by_seq[2] == 1    # the PGD was job seq=2

    def test_max_batch_rows_caps_coalescing(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=64, max_batch_rows=8)
        attacks = [DIVA(orig, quant, c=c, steps=2) for c in (0.5, 1.0, 2.0)]
        futs = self._submit_attacks(session, attacks, x, y, rows=4)
        for f in futs:
            f.result()
        assert len(session.dispatch_log) == 2
        assert all(r.rows <= 8 for r in session.dispatch_log)

    def test_shared_cache_refreshes_across_instances(self, pair):
        """A hit on a plan some *other* attack compiled must still see
        current weights: refresh is store-wide, not per-builder."""
        orig, quant, x, y = pair
        model = build_model("resnet", num_classes=6, width=4, seed=9)
        model.eval()
        session = ServeSession(capacity=16)
        session.submit_attack(PGD(model, steps=3), x[:6], y[:6]).result()
        for p in model.parameters():        # operator rotates the model
            p.data += 0.01
        served = session.submit_attack(PGD(model, steps=3),
                                       x[:6], y[:6]).result()
        ref = PGD(model, steps=3).generate(x[:6], y[:6])
        np.testing.assert_array_equal(served, ref)

    def test_full_batch_state_job_matches_generate_defaults(self, pair):
        """NES-style jobs (batch partition is part of the result) must
        reproduce `attack.generate(x, y)` regardless of capacity."""
        from repro.attacks import NESDiva
        orig, quant, x, y = pair
        ref = NESDiva(orig, quant, n_samples=2, steps=2,
                      seed=5).generate(x[:12], y[:12])
        session = ServeSession(capacity=8)     # != generate's default 64
        got = session.submit_attack(
            NESDiva(orig, quant, n_samples=2, steps=2, seed=5),
            x[:12], y[:12]).result()
        np.testing.assert_array_equal(got, ref)

    def test_mixed_dtype_tenants_keep_their_precision(self, pair):
        """Plan keys include dtype: a float64 tenant must never hit a
        float32 plan (replays silently cast their input)."""
        orig, quant, x, y = pair
        x64 = x.astype(np.float64)
        ref32 = DIVA(orig, quant, steps=3).generate(x[:6], y[:6])
        ref64 = DIVA(orig, quant, steps=3).generate(x64[:6], y[:6])
        session = ServeSession(capacity=16)
        f32 = session.submit_attack(DIVA(orig, quant, steps=3),
                                    x[:6], y[:6])
        f64 = session.submit_attack(DIVA(orig, quant, steps=3),
                                    x64[:6], y[:6])
        np.testing.assert_array_equal(f32.result(), ref32)
        np.testing.assert_array_equal(f64.result(), ref64)
        assert f64.result().dtype == np.float64

    def test_poisoned_coalesced_batch_retries_members_solo(self, pair):
        """One tenant's broken request must not fail compatible jobs it
        was merged with."""
        orig, quant, x, y = pair

        class Poisoned(PGD):
            def serve_signature(self):       # coalesces with plain PGD
                return ("PGD", id(self.model), self.steps)

            def gradient_with_logits(self, *a, **k):
                raise RuntimeError("tenant bug")

        session = ServeSession(capacity=16)
        bad = session.submit_attack(Poisoned(quant, steps=2), x[:4], y[:4])
        good = session.submit_attack(PGD(quant, steps=2), x[4:8], y[4:8])
        ref = PGD(quant, steps=2).generate(x[4:8], y[4:8])
        np.testing.assert_array_equal(good.result(), ref)
        with pytest.raises(JobError, match="tenant bug"):
            bad.result()
        assert session.dispatch_log[0].coalesced    # they did merge

    def test_mismatched_labels_rejected_at_submit(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=16)
        with pytest.raises(ValueError, match="labels have"):
            session.submit_attack(PGD(quant, steps=2), x[:4], y[:3])

    def test_failed_job_is_isolated(self, pair):
        orig, quant, x, y = pair

        class Broken(PGD):
            def serve_signature(self):
                return None

            def gradient_with_logits(self, *a, **k):
                raise RuntimeError("boom")

        session = ServeSession(capacity=16)
        bad = session.submit_attack(Broken(quant, steps=2), x[:4], y[:4])
        good = session.submit_attack(PGD(quant, steps=2), x[:4], y[:4])
        with pytest.raises(JobError, match="boom"):
            bad.result()
        ref = PGD(quant, steps=2).generate(x[:4], y[:4])
        np.testing.assert_array_equal(good.result(), ref)

    def test_group_key_respects_shape_and_dtype(self, pair):
        orig, quant, x, y = pair
        from repro.serve.scheduler import Job, JobFuture
        atk = DIVA(orig, quant, steps=2)

        def key_for(arr):
            return _group_key(Job(kind="attack", seq=0, x=arr,
                                  future=JobFuture(lambda: None),
                                  y=y[:4], attack=atk))
        assert key_for(x[:4]) == key_for(x[4:8])
        assert key_for(x[:4]) != key_for(x[:4].astype(np.float64))
        assert key_for(x[:4]) != key_for(x[:4, :, :8, :8])


_ORACLE_REF = np.arange(6, dtype=np.float32).reshape(2, 3)


class TestServeParity:
    def test_coalesced_attacks_bit_identical_to_solo(self, pair):
        orig, quant, x, y = pair
        configs = [dict(c=0.5, eps=8 / 255), dict(c=1.0, eps=16 / 255),
                   dict(c=2.0, alpha=2 / 255)]
        refs = [DIVA(orig, quant, steps=4, **cfg).generate(x[i * 6:(i + 1) * 6],
                                                           y[i * 6:(i + 1) * 6])
                for i, cfg in enumerate(configs)]
        session = ServeSession(capacity=32)
        futs = [session.submit_attack(DIVA(orig, quant, steps=4, **cfg),
                                      x[i * 6:(i + 1) * 6],
                                      y[i * 6:(i + 1) * 6])
                for i, cfg in enumerate(configs)]
        for ref, fut in zip(refs, futs):
            np.testing.assert_array_equal(fut.result(), ref)
        assert session.dispatch_log[0].coalesced

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_eager_diva_jobs_with_different_c_coalesce(self, pair, dtype):
        """Two eager DIVA tenants with different ``c`` serve in one
        coalesced dispatch, with no retry, and each equals its solo
        eager run: the eager tape takes the per-row ``c`` vector."""
        from repro.nn import set_default_dtype
        set_default_dtype(dtype)
        orig, quant, x, y = pair
        x = x.astype(dtype)

        def eager(c):
            attack = DIVA(orig, quant, c=c, steps=3)
            attack.use_compiled = False
            return attack

        cs = (0.5, 2.0)
        refs = [eager(c).generate(x[i * 4:(i + 1) * 4], y[i * 4:(i + 1) * 4])
                for i, c in enumerate(cs)]
        session = ServeSession(capacity=16)
        futs = [session.submit_attack(eager(c), x[i * 4:(i + 1) * 4],
                                      y[i * 4:(i + 1) * 4])
                for i, c in enumerate(cs)]
        for ref, fut in zip(refs, futs):
            np.testing.assert_array_equal(fut.result(), ref)
        stats = session.stats
        assert stats["dispatches"] == 1
        assert stats["coalesced_dispatches"] == 1
        assert stats["retry_dispatches"] == 0

    def test_coalesced_predict_bit_identical_to_solo(self, edge_model):
        edge, x = edge_model
        refs = [edge.predict(x[:12]), edge.predict(x[12:20]),
                edge.predict(x[20:32])]
        session = ServeSession(capacity=16, predict_batch=64)
        futs = [session.submit_predict(edge, x[:12]),
                session.submit_predict(edge, x[12:20]),
                session.submit_predict(edge, x[20:32])]
        for ref, fut in zip(refs, futs):
            got = fut.result()
            np.testing.assert_array_equal(got, ref)
            assert got.base is None      # owned, not a merged-batch view
        assert len(session.dispatch_log) == 1

    def test_mixed_workload_parity_and_stats(self):
        """The acceptance workload: interleaved attack + inference jobs
        served bit-identically to sequential replay."""
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 3            # keep the test fast
        out = verify_parity(build_workload(spec), capacity=32)
        assert out["jobs"] == 15
        assert out["coalesced_dispatches"] >= 2
        assert out["dispatches"] < out["jobs"]

    def test_replay_serve_records_per_job_outcomes(self):
        """Replay output carries a per-job outcome record (satellite of
        the fault-tolerance PR): a healthy replay is all-``ok`` and the
        counts agree with the job list."""
        from repro.serve import replay_serve
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        out = replay_serve(build_workload(spec))
        assert out["outcomes"] == ["ok"] * 15
        assert out["outcome_counts"] == {"ok": 15}
        assert out["errors"] == [None] * 15

    @pytest.mark.parametrize("outcome,result,error,match", [
        ("ok", _ORACLE_REF + 1, None, "diverged"),
        ("ok", _ORACLE_REF.astype(np.float64), None, "diverged"),
        ("deadline-degraded", None, None, "best-so-far"),
        ("failed", None, None, "structured ServeError"),
        ("failed", None, Exception("boom"), "structured ServeError"),
        (None, None, None, "never resolved"),
        ("ok", _ORACLE_REF.copy(), None, None),
    ], ids=["ok-bytes", "ok-dtype", "degraded-no-batch", "failed-no-error",
            "failed-plain-exception", "unresolved", "well-formed"])
    def test_check_replay_oracle(self, outcome, result, error, match):
        """The one replay oracle, on hand-built records: job 0 is the
        case under test, jobs 1-3 are well-formed degraded and refused
        outcomes that must never trip it."""
        workload = SimpleNamespace(jobs=[SimpleNamespace(kind="pgd")] * 4)
        replay = {
            "outcomes": [outcome, "deadline-degraded", "failed", "rejected"],
            "results": [result, np.zeros_like(_ORACLE_REF), None, None],
            "errors": [error, None, JobError("ladder exhausted"),
                       AdmissionError("queue full")],
        }
        reference = [_ORACLE_REF] * 4
        if match is None:
            check_replay(workload, reference, replay)
        else:
            with pytest.raises(AssertionError, match=match):
                check_replay(workload, reference, replay)

    @pytest.mark.parametrize("text,match", [
        ("[]", "JSON object"),
        ('"mixed"', "JSON object"),
        ('{"version": 1}', "'jobs' list"),
        ('{"version": 1, "jobs": {"kind": "pgd"}}', "'jobs' list"),
    ], ids=["list", "string", "no-jobs", "jobs-not-list"])
    def test_load_workload_rejects_malformed_specs(self, tmp_path, text,
                                                   match):
        from repro.serve import load_workload
        path = tmp_path / "w.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_workload(str(path))

    def test_workload_spec_roundtrips_tenant_and_deadline(self, tmp_path):
        """tenant / deadline_s ride through save/load/build and reach
        the session (a quota-bounded tenant's second job is rejected)."""
        from repro.serve import (ServeSession, QuotaError, load_workload,
                                 replay_serve, save_workload)
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        spec["jobs"] = [j for j in spec["jobs"]
                        if j["kind"] != "predict"][:3]
        for j in spec["jobs"]:
            j["tenant"] = "A"
            j["deadline_s"] = 30.0       # generous: must not expire
        path = str(tmp_path / "w.json")
        save_workload(spec, path)
        w = build_workload(load_workload(path))
        assert all(j.tenant == "A" and j.deadline_s == 30.0
                   for j in w.jobs)
        rows0 = len(w.jobs[0].x)
        session = ServeSession(capacity=32,
                               tenant_quota_rows={"A": rows0})
        out = replay_serve(w, session=session)
        assert out["outcomes"][0] == "ok"
        assert "rejected" in out["outcomes"]
        assert any(isinstance(e, QuotaError) for e in out["errors"])

    def test_session_shares_one_plan_cache(self, pair):
        orig, quant, x, y = pair
        session = ServeSession(capacity=16)
        a = DIVA(orig, quant, c=0.5, steps=2)
        b = DIVA(orig, quant, c=2.0, steps=2)
        session.submit_attack(a, x[:4], y[:4]).result()
        session.submit_attack(b, x[4:8], y[4:8]).result()
        assert orig.plan_cache is session.plan_cache
        assert quant.plan_cache is session.plan_cache
        # one program per model, compiled once and shared by both attacks
        keys = [k for k, _ in session.plan_cache.items()]
        assert sorted(k[1] for k in keys) == sorted([id(orig), id(quant)])
        assert session.plan_cache.stats["entries"] == len(keys) == 2


def _result_bytes(results):
    """Per-job results as raw bytes (None for refused/failed jobs)."""
    return [None if r is None else (r.dtype.str, r.shape, r.tobytes())
            for r in results]


class TestSequentialDispatch:
    def test_completion_wins_ties_at_the_deadline_boundary(self, pair):
        """An injected queue latency pushes the clock past the drain
        budget in the same tick the head group was popped.  That group
        still runs and its future resolves, while the job behind it
        stays cleanly pending for a later drain."""
        orig, _quant, x, _y = pair
        other = build_model("resnet", num_classes=6, width=4, seed=9)
        other.eval()
        clock = ManualClock()
        session = ServeSession(capacity=8, clock=clock)
        f1 = session.submit_predict(orig, x[:2])
        f2 = session.submit_predict(other, x[:2])
        injector = FaultInjector(
            [FaultSpec("queue.tick", "latency", rate=1.0, delay_s=1.0)],
            seed=FAULT_SEED, clock=clock)
        with inject(injector):
            value = f1.result(timeout=0.5)     # budget < first tick
        assert value is not None and f1.done and f1.outcome == "ok"
        assert not f2.done                     # never dispatched: pending
        assert len(session.scheduler.pending) == 1
        assert f2.result() is not None         # a later drain serves it
        assert f2.outcome == "ok"

    def test_starved_budget_evictions_rebuild_bit_identical(self):
        """A starved plan-cache budget forces mid-replay evictions;
        evicted plans rebuild and revalidate, and every job's bytes
        still match its solo run."""
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 3
        workload = build_workload(spec)
        ref = replay_sequential(workload)
        session = ServeSession(capacity=64, budget_bytes=20_000)
        out = replay_serve(workload, session=session)
        assert _result_bytes(out["results"]) == \
            _result_bytes(ref["results"])
        assert session.stats["plan_cache"]["evictions"] >= 1

    @given(menu=mixed_job_menus())
    @settings(max_examples=8, deadline=None)
    def test_mixed_menus_dispatch_once_and_match_solo(self, menu, pair,
                                                       edge_model):
        """Property: for any mixed job set, every job is dispatched
        exactly once, every solo dispatch names its reason, and every
        ok result is byte-equal to that job's solo run."""
        orig, quant, x, y = pair
        edge, x_edge = edge_model
        session = ServeSession(capacity=16)
        futs = submit_job_menu(session, menu, pair, edge, x_edge)
        session.drain()
        seqs = sorted(s for r in session.dispatch_log for s in r.seqs)
        assert seqs == list(range(len(menu)))
        assert all(r.reason for r in session.dispatch_log
                   if r.key[0] == "solo")
        for (kind, rows), fut in zip(menu, futs):
            if fut.outcome != "ok":
                continue
            if kind == "attack":
                ref = PGD(quant, steps=2).generate(x[:rows], y[:rows])
            elif kind == "predict":
                ref = edge.predict(x_edge[:rows])
            else:
                ref = predict_logits(orig, x[:rows])
            assert _result_bytes([fut.result()]) == _result_bytes([ref])

    def test_run_group_accepts_the_four_argument_wrapper(self, pair):
        """The traced benchmark replaces ``scheduler._run_group`` with an
        instance wrapper taking ``(kind, group, key, ctx)`` and forwarding
        all four arguments; a drain through it must serve every job."""
        orig, quant, x, y = pair
        session = ServeSession(capacity=8)
        sched = session.scheduler
        run_group = sched._run_group
        seen = []

        def stamped(kind, group, key, ctx):
            seen.extend(j.seq for j in group)
            return run_group(kind, group, key, ctx)
        sched._run_group = stamped
        f1 = session.submit_attack(PGD(quant, steps=2), x[:2], y[:2])
        f2 = session.submit_predict(orig, x[:2])
        session.drain()
        assert sorted(seen) == [0, 1]
        assert f1.outcome == "ok" and f2.outcome == "ok"


class TestBurstMemory:
    def test_repeated_bursts_release_programs(self):
        """Serving many workload bursts must not accumulate retired
        compiled programs: programs are self-referential (op closures
        capture them), so they are cyclic garbage the drain explicitly
        collects — steady-state object count stays flat across bursts."""
        import gc
        from repro.serve import mixed_workload_spec, build_workload, \
            replay_serve
        spec = mixed_workload_spec(scale=1)
        spec["steps"] = 2
        w = build_workload(spec)
        replay_serve(w)
        replay_serve(w)
        gc.collect()
        n0 = len(gc.get_objects())
        for _ in range(3):
            replay_serve(w)
        gc.collect()
        growth = len(gc.get_objects()) - n0
        assert growth < 500, f"{growth} objects leaked across bursts"


class TestCachedForwardCompile:
    def test_predict_logits_cache_refreshes_after_mutation(self):
        """The model's cached program must re-fold mutated parameters
        before ``predict_logits`` replays it — a cached executor can
        never serve stale weights."""
        from repro.nn import Tensor
        from repro.nn.graph import compile_forward_cached
        model = build_model("lenet", num_classes=4, in_channels=1,
                            image_size=12, width=4, seed=0)
        model.eval()
        x = np.random.default_rng(0).random((12, 1, 12, 12)).astype(np.float32)
        ex = compile_forward_cached(model, x[:4])
        assert ex is not None
        np.testing.assert_array_equal(ex.replay(x), model(Tensor(x)).data)
        for p in model.parameters():
            p.data += 0.05
        # 12 one-row batches: predict_logits replays the cached program
        got = predict_logits(model, x, batch_size=1)
        assert compile_forward_cached(model, x[:1]) is ex    # cache hit ...
        np.testing.assert_allclose(got, model(Tensor(x)).data,
                                   rtol=0, atol=0)   # ... with fresh folds
