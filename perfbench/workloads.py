"""The four workloads.  Each is a closed loop driven by one process.

A workload builds its system from fixed model seeds (the deployed
artifact does not change between runs) and its inputs from the run's
``--seed``.  It exposes:

- ``setup()`` — build everything a user needs before the first request
  (models, calibration, compiled plans); timed as ``setup_s``;
- ``prepare()`` — generate the seeded inputs (untimed);
- ``run_round(batch, record)`` — one closed-loop round on input set
  ``batch``; ops are recorded only when ``record`` is set;
- ``check()`` — output checks, run after the timed loop;
- ``guard()`` — a bytes guard computed on fixed inputs that no seed
  changes, so any move between runs of the same code is a bug;
- ``named()`` — the workload's own end-to-end figures.

Library calls go through module attributes (``quantization.calibrate``,
not a name imported into this module), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import (attacks, distillation, edge, models, nn, quantization,
                   training)
from repro.serve import resilience, workload as serve_workload
from repro.serve.session import ServeSession

from . import stats

#: seeds of the fixed system under test and of the guard inputs; the
#: run's ``--seed`` never reaches them
MODEL_SEED = 0
CALIB_SEED = 7
GUARD_SEED = 20220

clock = time.perf_counter


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _same(a: Any, b: Any) -> bool:
    return (a is not None and b is not None and a.shape == b.shape
            and a.dtype == b.dtype and np.array_equal(a, b))


def _frozen_qat(model, calib, **kw):
    q = quantization.prepare_qat(model, **kw)
    quantization.calibrate(q, calib)
    q.freeze()
    q.eval()
    return q


class Workload:
    name = ""
    why = ""
    #: distinct input sets a run cycles through
    batches = 4
    #: repetitions of every input set before the timed loop may stop
    min_reps = 3
    #: latencies one repetition of an input set yields (jobs per burst)
    latencies_per_set = 1
    #: set-ups per run (``setup_s`` is their median)
    setup_reps = 3
    #: the end-to-end figure each generic metric reports on this workload
    aliases: Dict[str, str] = {}
    #: collect the heap before every round, for workloads whose ops leave
    #: cyclic garbage (self-referential compiled programs): otherwise it
    #: is reclaimed whenever a collection happens to trigger, and the
    #: peak footprint depends on that timing
    collect_each_round = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        #: (input set, work units, seconds, latencies) per timed op
        self.samples: List[Tuple[int, float, float, List[float]]] = []
        self.failures: List[str] = []         # op-level failures
        #: factor mapping this round's seconds to the reference host
        #: (``hostspeed.Probe.scale``, set before every timed round)
        self.host_scale = 1.0

    def _op(self, fn, what: str):
        """Run one operation; a raise counts as a failed op."""
        try:
            return fn()
        except Exception as exc:    # noqa: BLE001 - counted, reported
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def record(self, batch: int, units: float, seconds: float,
               latencies: Optional[List[float]] = None) -> None:
        """Record one op; its seconds and latencies are rescaled by
        ``self.host_scale``."""
        k = self.host_scale
        self.samples.append((batch, units, k * seconds,
                             [k * seconds] if latencies is None
                             else [k * v for v in latencies]))

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def attempted(self) -> int:
        return self.ops

    def reps_done(self) -> int:
        """Repetitions completed by the least-repeated input set."""
        counts = [0] * self.batches
        for s in self.samples:
            counts[s[0]] += 1
        return min(counts)

    def tail_p(self) -> float:
        """The tail percentile this workload reports: the highest with
        ten samples beyond it at the latency count every run reaches
        (the median when that count is too small).  Fixed per workload,
        so runs of one workload always report the same percentile."""
        n = self.batches * self.min_reps * self.latencies_per_set
        return stats.tail_percentile(n) or 50.0

    def latency_metrics(self) -> Tuple[float, float]:
        """(median, tail) ms over every recorded latency."""
        ms = [v * 1e3 for s in self.samples for v in s[3]]
        return stats.percentile(ms, 50.0), stats.percentile(ms, self.tail_p())


# ---------------------------------------------------------------------- #
class WhiteboxDiva(Workload):
    name = "whitebox_diva"
    why = ("paper's core DIVA vs PGD on a resnet and its int8 QAT twin; "
           "nn.graph and attacks.loop do the work, serve/edge/train idle")
    rows, steps = 64, 20
    batches = 2
    setup_reps = 7
    aliases = {"work_per_s": "diva_adv_per_s", "p50_ms": "diva_p50_ms",
               "tail_ms": "diva_p50_ms", "guard_rate": "diva_evasive_rate"}

    def setup(self) -> None:
        calib = np.random.default_rng(CALIB_SEED).random(
            (16, 3, 16, 16)).astype(np.float32)
        orig = models.build_model("resnet", num_classes=10, width=8,
                                  seed=MODEL_SEED)
        orig.eval()
        adapted = _frozen_qat(orig, calib, weight_bits=8)
        diva = attacks.DIVA(orig, adapted, steps=self.steps)
        pgd = attacks.PGD(adapted, steps=self.steps)
        y = training.predict_labels(orig, calib[:8])
        diva.generate(calib[:8], y)         # compile paired + loop plans
        pgd.generate(calib[:8], y)
        self.orig, self.adapted, self.diva, self.pgd = orig, adapted, diva, pgd

    @property
    def attempted(self) -> int:
        return 2 * self.ops                 # a DIVA and a PGD per round

    def _batch(self, key) -> Tuple[np.ndarray, np.ndarray]:
        x = np.random.default_rng(key).random(
            (self.rows, 3, 16, 16)).astype(np.float32)
        # labels are the original model's own predictions, so every row
        # starts un-succeeded
        return x, training.predict_labels(self.orig, x)

    def prepare(self) -> None:
        self.inputs = [self._batch([self.seed, b])
                       for b in range(self.batches)]
        self.outputs: List[Tuple[int, str, Optional[np.ndarray]]] = []
        self.pgd_samples: List[Tuple[int, float, float]] = []

    def run_round(self, batch: int, record: bool) -> None:
        x, y = self.inputs[batch]
        t0 = clock()
        adv_d = self._op(lambda: self.diva.generate(x, y), "diva")
        t1 = clock()
        adv_p = self._op(lambda: self.pgd.generate(x, y), "pgd")
        t2 = clock()
        if record:
            self.record(batch, len(x), t1 - t0)
            self.pgd_samples.append((batch, len(x),
                                     self.host_scale * (t2 - t1)))
            self.outputs += [(batch, "diva", adv_d), (batch, "pgd", adv_p)]

    def check(self) -> Dict[str, int]:
        bad = {"eps_ball": 0, "repeat": 0, "eager_parity": 0}
        first: Dict[Tuple[int, str], np.ndarray] = {}
        for batch, kind, adv in self.outputs:
            x = self.inputs[batch][0]
            if adv is None:
                continue
            if (np.abs(adv - x).max() > self.diva.eps + 1e-6
                    or adv.min() < 0.0 or adv.max() > 1.0):
                bad["eps_ball"] += 1
            ref = first.setdefault((batch, kind), adv)
            if not _same(ref, adv):
                bad["repeat"] += 1
        bad["eager_parity"] = self._eager_parity(self.inputs[0][0][:16])
        return bad

    def _eager_parity(self, x: np.ndarray) -> int:
        """Attacks on the compiled path vs the eager tape, byte for byte,
        on a slice of the run's input: mismatching attacks.

        The comparison runs in float64, the dtype the library's
        compiled-equals-eager contract is stated and tested in.  In
        float32 the two paths' input gradients differ by rounding
        (~1e-8), which now and then flips a sign step of a row whose
        gradient component is near zero.
        """
        nn.set_default_dtype(np.float64)
        try:
            orig = models.build_model("resnet", num_classes=10, width=8,
                                      seed=MODEL_SEED)
            orig.eval()
            calib = np.random.default_rng(CALIB_SEED).random(
                (16, 3, 16, 16)).astype(np.float32).astype(np.float64)
            adapted = _frozen_qat(orig, calib, weight_bits=8)
            x = x.astype(np.float64)
            y = training.predict_labels(orig, x)
            bad = 0
            for make in (lambda: attacks.DIVA(orig, adapted,
                                              steps=self.steps),
                         lambda: attacks.PGD(adapted, steps=self.steps)):
                compiled, eager = make(), make()
                eager.use_compiled = False
                bad += not _same(compiled.generate(x, y), eager.generate(x, y))
            return bad
        finally:
            nn.set_default_dtype(np.float32)

    def guard(self) -> float:
        x, y = self._batch([GUARD_SEED])
        adv = self.diva.generate(x, y)
        return float(np.mean(self.diva.is_success(adv, y)))

    def named(self) -> Dict[str, float]:
        p50, _ = self.latency_metrics()
        return {"diva_adv_per_s": stats.batch_rate(self.samples),
                "pgd_adv_per_s": stats.batch_rate(self.pgd_samples),
                "diva_p50_ms": p50}


# ---------------------------------------------------------------------- #
class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("bursts of mixed DIVA/PGD/FGSM/CW/NES probes and int8/float "
           "predicts into one ServeSession; the only load on serve.*")
    scale = 2
    #: 2 bursts of 30 jobs, each served at least 4 times: 240 latencies,
    #: so p95 has ten samples beyond it
    batches = 2
    min_reps = 4
    latencies_per_set = 30
    setup_reps = 5
    aliases = {"work_per_s": "serve_jobs_per_s", "p50_ms": "serve_p50_ms",
               "tail_ms": "serve_p95_ms", "guard_rate": "serve_flip_rate"}

    def setup(self) -> None:
        spec = serve_workload.mixed_workload_spec(scale=self.scale,
                                                  seed=MODEL_SEED)
        self.spec = spec
        self.original, self.adapted, self.edge = \
            serve_workload.build_models(spec)
        self.session = ServeSession(capacity=64)
        sched = self.session.scheduler
        stamps: Dict[int, float] = {}
        settle = sched.settle

        def stamped_settle(job, **kw):
            settle(job, **kw)
            stamps[id(job.future)] = clock()

        # latency ends where the job settles; an instance attribute, so
        # the scheduler class (and every other session) is untouched
        sched.settle = stamped_settle
        self.stamps = stamps
        self.dispatch_t: Dict[int, float] = {}
        self._serve(self._burst([CALIB_SEED]))      # compile every plan

    @property
    def attempted(self) -> int:
        return sum(len(s[3]) for s in self.samples)

    def watch_dispatch(self) -> None:
        """Stamp each job's dispatch start (traced runs: queue wait)."""
        sched = self.session.scheduler
        run_group = sched._run_group
        starts = self.dispatch_t

        def stamped(kind, group, key, ctx):
            t = clock()
            for job in group:
                starts.setdefault(id(job.future), t)
            return run_group(kind, group, key, ctx)
        sched._run_group = stamped

    def _burst(self, key) -> serve_workload.Workload:
        """One burst: the spec's interleaved job list in its own order,
        every job's inputs drawn from one seeded stream."""
        spec = self.spec
        rng = np.random.default_rng(key)
        am, em = spec["attack_model"], spec["edge_model"]
        side, eside = am["image_size"], em["image_size"]
        jobs = []
        for i, rec in enumerate(spec["jobs"]):
            rec = dict(rec)
            kind, rows = rec["kind"], int(rec["rows"])
            if kind == "predict":
                x = rng.random((rows, em.get("in_channels", 1), eside,
                                eside)).astype(np.float32)
                jobs.append(serve_workload.MaterializedJob(
                    kind, x, None, None, model=self.edge, record=rec))
                continue
            x = rng.random((rows, 3, side, side)).astype(np.float32)
            if kind == "predict_float":
                jobs.append(serve_workload.MaterializedJob(
                    kind, x, None, None, model=self.adapted, record=rec))
                continue
            rec.setdefault("steps", spec["steps"])
            if kind == "nes":
                rec.setdefault("seed", i)
            make = serve_workload.attack_factory(
                self.original, self.adapted, rec, default_steps=spec["steps"])
            y = training.predict_labels(self.original, x)
            jobs.append(serve_workload.MaterializedJob(kind, x, y, make,
                                                       record=rec))
        return serve_workload.Workload(spec, self.original, self.adapted,
                                       self.edge, jobs)

    def _serve(self, burst) -> Tuple[float, list]:
        """Submit every job at once, wait for all; returns the burst's
        submit time and ``(future, result)`` per job."""
        session = self.session
        self.stamps.clear()
        t0 = clock()
        futures = []
        for job in burst.jobs:
            if job.kind in ("predict", "predict_float"):
                futures.append(session.submit_predict(job.model, job.x))
            else:
                futures.append(session.submit_attack(job.make_attack(),
                                                     job.x, job.y))
        out = []
        for f in futures:
            try:
                out.append((f, f.result()))
            except resilience.ServeError:
                out.append((f, None))
        return t0, out

    def prepare(self) -> None:
        self.inputs = [self._burst([self.seed, b])
                       for b in range(self.batches)]
        self.results: List[Tuple[int, List[Tuple[str, Any]]]] = []
        self.rows: List[Tuple[int, float, float]] = []
        self.queue_wait: List[float] = []

    def run_round(self, batch: int, record: bool) -> None:
        self.dispatch_t.clear()
        t0, out = self._serve(self.inputs[batch])
        t_end = clock()
        if not record:
            return
        self.record(batch, len(out), t_end - t0,
                    [self.stamps.get(id(f), t_end) - t0 for f, _ in out])
        rows = sum(len(j.x) for j in self.inputs[batch].jobs)
        self.rows.append((batch, rows, self.host_scale * (t_end - t0)))
        for f, _ in out:
            if id(f) in self.dispatch_t:
                self.queue_wait.append(self.dispatch_t[id(f)] - t0)
        self.results.append((batch, [(f.outcome, r) for f, r in out]))

    def check(self) -> Dict[str, int]:
        bad = {"not_ok": 0, "solo_parity": 0}
        refs = [serve_workload.replay_sequential(b)["results"]
                for b in self.inputs]
        for batch, jobs in self.results:
            for (outcome, got), ref in zip(jobs, refs[batch]):
                if outcome != "ok":
                    bad["not_ok"] += 1
                elif not _same(got, ref):
                    bad["solo_parity"] += 1
        return bad

    def guard(self) -> float:
        burst = self._burst([GUARD_SEED])
        _, out = self._serve(burst)
        flips = []
        for job, (_, adv) in zip(burst.jobs, out):
            if job.y is not None and adv is not None:
                pred = training.predict_labels(self.adapted, adv)
                flips.extend(pred != job.y)
        return float(np.mean(flips))

    def named(self) -> Dict[str, float]:
        p50, p95 = self.latency_metrics()
        return {"serve_jobs_per_s": stats.batch_rate(self.samples),
                "serve_rows_per_s": stats.batch_rate(self.rows),
                "serve_p50_ms": p50, "serve_p95_ms": p95}


# ---------------------------------------------------------------------- #
class EdgeInt8(Workload):
    name = "edge_int8"
    why = ("int8 per-channel VGGFaceNet predict on 256-row batches; almost "
           "all edge.program, so conv-backward/serve/train changes show none")
    rows = 256
    batches = 1             # the integer path's cost does not depend on data
    min_reps = 40           # 40 predicts: p75 has ten samples beyond it
    setup_reps = 5
    aliases = {"work_per_s": "edge_rows_per_s", "p50_ms": "edge_p50_ms",
               "tail_ms": "edge_p75_ms", "guard_rate": "edge_qat_agreement"}

    def setup(self) -> None:
        calib = np.random.default_rng(CALIB_SEED).random(
            (self.rows, 3, 32, 32)).astype(np.float32)
        vgg = models.build_model("vggface", num_identities=50, image_size=32,
                                 width=8, seed=MODEL_SEED)
        vgg.eval()
        self.qat = _frozen_qat(vgg, calib[:64], weight_bits=8, act_bits=8,
                               per_channel=True)
        self.model = edge.compile_edge(self.qat, 50)
        self.model.predict(calib)           # build + validate the program

    def _batch(self, key) -> np.ndarray:
        return np.random.default_rng(key).random(
            (self.rows, 3, 32, 32)).astype(np.float32)

    def prepare(self) -> None:
        self.inputs = [self._batch([self.seed, b])
                       for b in range(self.batches)]
        self.outputs: List[Tuple[int, Optional[np.ndarray]]] = []

    def run_round(self, batch: int, record: bool) -> None:
        x = self.inputs[batch]
        t0 = clock()
        out = self._op(lambda: self.model.predict(x), "predict")
        t1 = clock()
        if record:
            self.record(batch, len(x), t1 - t0)
            self.outputs.append((batch, out))

    def check(self) -> Dict[str, int]:
        bad = {"eager_parity": 0, "repeat": 0}
        eager = [self.model.predict(x, compiled=False) for x in self.inputs]
        first: Dict[int, np.ndarray] = {}
        for batch, out in self.outputs:
            if out is None:
                continue
            if batch not in first:
                first[batch] = out
                if not _same(out, eager[batch]):
                    bad["eager_parity"] += 1
            elif not _same(out, first[batch]):
                bad["repeat"] += 1
        return bad

    def guard(self) -> float:
        x = self._batch([GUARD_SEED])
        int8 = self.model.predict(x).argmax(axis=1)
        return float(np.mean(int8 == training.predict_labels(self.qat, x)))

    def named(self) -> Dict[str, float]:
        p50, p75 = self.latency_metrics()
        return {"edge_rows_per_s": stats.batch_rate(self.samples),
                "edge_p50_ms": p50, "edge_p75_ms": p75}


# ---------------------------------------------------------------------- #
class SurrogateDistill(Workload):
    name = "surrogate_distill"
    why = ("section 4.3 surrogate: distill the frozen QAT teacher into a "
           "seeded resnet; the only load on nn.train_graph and nn.optim")
    images, epochs, batch_size, lr = 288, 4, 64, 1e-2
    batches = 1             # training cost does not depend on the images
    setup_reps = 9
    collect_each_round = True   # every distill() compiles a train step
    aliases = {"work_per_s": "distill_images_per_s",
               "p50_ms": "distill_p50_ms", "tail_ms": "distill_p50_ms",
               "guard_rate": "distill_agreement"}

    def setup(self) -> None:
        calib = np.random.default_rng(CALIB_SEED).random(
            (16, 3, 16, 16)).astype(np.float32)
        orig = models.build_model("resnet", num_classes=10, width=8,
                                  seed=MODEL_SEED)
        orig.eval()
        self.teacher = _frozen_qat(orig, calib, weight_bits=8)

    def _student(self):
        return models.build_model("resnet", num_classes=10, width=8,
                                  seed=MODEL_SEED + 1)

    def _images(self, key) -> np.ndarray:
        return np.random.default_rng(key).random(
            (self.images, 3, 16, 16)).astype(np.float32)

    def _distill(self, student, images, seed: int):
        return distillation.distill(self.teacher, student, images,
                                    epochs=self.epochs,
                                    batch_size=self.batch_size, lr=self.lr,
                                    seed=seed)

    def prepare(self) -> None:
        self.inputs = [self._images([self.seed, b])
                       for b in range(self.batches)]
        self.digests: List[Tuple[int, Optional[str]]] = []

    def run_round(self, batch: int, record: bool) -> None:
        student = self._student()
        t0 = clock()
        done = self._op(lambda: self._distill(student, self.inputs[batch],
                                              batch), "distill")
        t1 = clock()
        if record:
            self.record(batch, self.images * self.epochs, t1 - t0)
            self.digests.append((batch, None if done is None else _digest(
                p.data for p in student.parameters())))

    def check(self) -> Dict[str, int]:
        bad = {"digest_repeat": 0}
        first: Dict[int, str] = {}
        for batch, digest in self.digests:
            if digest is None:
                continue
            if first.setdefault(batch, digest) != digest:
                bad["digest_repeat"] += 1
        return bad

    def guard(self) -> float:
        student = self._distill(self._student(), self._images([GUARD_SEED]),
                                0)
        evaluation = self._images([GUARD_SEED, 1])
        return distillation.agreement(student, self.teacher, evaluation)

    def named(self) -> Dict[str, float]:
        p50, _ = self.latency_metrics()
        return {"distill_images_per_s": stats.batch_rate(self.samples),
                "distill_p50_ms": p50}


WORKLOADS = {w.name: w for w in (WhiteboxDiva, ServeMixed, EdgeInt8,
                                 SurrogateDistill)}
