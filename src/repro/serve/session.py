"""ServeSession — the attack-serving layer's front door.

One session owns the shared resources of the serving story: a single
budgeted :class:`~repro.serve.cache.PlanCache` (every model a submitted
job runs — an attack's models, a float model, an edge model — is
adopted into it, so each model's compiled programs are shared across
requests and job kinds and bounded in memory), one
:class:`~repro.serve.scheduler.Scheduler` (arrival-order dispatch with
compatible-request coalescing), the
:class:`~repro.serve.resilience.CircuitBreaker` quarantining faulty
plan families, the :class:`~repro.serve.resilience.AdmissionController`
bounding the queue, and the futures that hand each caller its own
result back out of a merged pass.

Usage::

    session = ServeSession(capacity=64)
    f1 = session.submit_attack(diva_a, x_a, y_a)     # user A's probe
    f2 = session.submit_attack(diva_b, x_b, y_b)     # user B, same pair
    f3 = session.submit_predict(edge_model, pixels)  # plain inference
    adv_a = f1.result()          # drives the scheduler; bit-identical
    adv_b = f2.result()          # to diva_b.generate(x_b, y_b) alone

``result()`` on any future drains the whole queue (single-threaded,
synchronous); ``drain()`` does so explicitly.  Everything the scheduler
does is value-neutral — see :mod:`repro.serve.scheduler` for the
coalescing rules and the bit-identity argument — so a healthy session's
only observable effects are wall-time and cache warmth.  Under faults
or overload the session *degrades explicitly*: jobs are rejected or
shed at submit (:class:`~repro.serve.resilience.AdmissionError`
subclasses), retried down the degradation ladder, or resolved
``deadline-degraded`` with best-so-far results — never silently
dropped, never silently wrong.
"""

from __future__ import annotations

import gc
import weakref
from typing import Any, Dict, List, Optional

import numpy as np

from ..attacks.base import Attack
from .cache import PlanCache
from .resilience import (AdmissionController, AdmissionError, CircuitBreaker,
                         Clock, QuotaError, ShedError)
from .scheduler import DispatchRecord, Job, JobFuture, Scheduler

#: default shared-cache budget: generous for the bench/serve models in
#: this repo while still exercising eviction under adversarial churn
DEFAULT_BUDGET_BYTES = 512 << 20


class ServeSession:
    """Accept heterogeneous jobs, serve them over shared compiled state.

    Parameters
    ----------
    capacity:
        Slot capacity per scheduled attack pass (and the work-stealing
        width), as in ``Attack.generate``'s ``batch_size``.
    plan_cache:
        Shared compiled-program store; a budgeted one is built when not
        given.  The models of submitted jobs are adopted into it on
        first submit, so all requests draw from (and fill) one cache.
    max_batch_rows / predict_batch:
        Scheduler coalescing bounds (see
        :class:`~repro.serve.scheduler.Scheduler`).
    max_pending_jobs / max_pending_rows / admission_policy /
    tenant_quota_rows:
        Admission bounds over the pending queue (None = unbounded, the
        historic behaviour); see
        :class:`~repro.serve.resilience.AdmissionController`.
    default_deadline_s:
        Relative deadline applied to attack jobs submitted without one
        (None = attack jobs run to completion unless the submit says
        otherwise).
    quarantine_cooldown_s / failure_cooldown_s:
        Circuit-breaker and pinned-plan-failure cool-downs (transient
        faults heal after these elapse).
    clock:
        Shared time source for deadlines and every cool-down; pass a
        :class:`~repro.serve.resilience.ManualClock` for deterministic
        chaos tests.
    """

    def __init__(self, capacity: int = 64,
                 plan_cache: Optional[PlanCache] = None,
                 max_batch_rows: int = 512, predict_batch: int = 256,
                 budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES,
                 max_pending_jobs: Optional[int] = None,
                 max_pending_rows: Optional[int] = None,
                 admission_policy: str = "reject",
                 tenant_quota_rows=None,
                 default_deadline_s: Optional[float] = None,
                 quarantine_cooldown_s: float = 5.0,
                 failure_cooldown_s: Optional[float] = None,
                 clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else Clock()
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(budget_bytes=budget_bytes,
                           failure_cooldown_s=failure_cooldown_s,
                           clock=self.clock))
        self.breaker = CircuitBreaker(cooldown_s=quarantine_cooldown_s,
                                      clock=self.clock)
        self.scheduler = Scheduler(capacity=capacity,
                                   max_batch_rows=max_batch_rows,
                                   predict_batch=predict_batch,
                                   clock=self.clock,
                                   breaker=self.breaker)
        self.admission = AdmissionController(
            max_pending_jobs=max_pending_jobs,
            max_pending_rows=max_pending_rows,
            policy=admission_policy,
            tenant_quota_rows=tenant_quota_rows)
        self.default_deadline_s = default_deadline_s
        #: the models adopted into ``plan_cache``, handed back by close()
        self._adopted: "weakref.WeakSet" = weakref.WeakSet()

    # -- submission ------------------------------------------------------ #
    def _adopt(self, obj: Any) -> None:
        """Point ``obj``'s models at the shared cache: an attack's
        :meth:`~repro.attacks.base.Attack._models`, else ``obj`` itself
        (a float or edge model).

        A model's compiled programs live in its ``plan_cache`` (see
        :func:`~repro.serve.cache.model_program`), so after
        adoption every attack and predict on the model, in any job,
        replays that model's one program per trailing shape and dtype.
        Idempotent by identity check — no bookkeeping of seen objects
        (a raw ``id()`` registry would mistake a recycled address for
        an already-adopted object).  Programs compiled into a model's
        own store before adoption are dropped with it — they recompile
        into the shared store on first use, after which every
        compatible request hits.
        """
        models = obj._models() if isinstance(obj, Attack) else (obj,)
        for model in models:
            if getattr(model, "plan_cache", None) is not self.plan_cache:
                try:
                    self._adopted.add(model)
                except TypeError:   # not weak-referenceable: not handed back
                    pass
                model.plan_cache = self.plan_cache

    def _admit(self, job: Job) -> JobFuture:
        """Run admission control, then enqueue or reject/shed.

        Every path returns the job's future: a refused job's future is
        already resolved with the matching
        :class:`~repro.serve.resilience.AdmissionError` subclass and
        outcome ``rejected`` — refusal is explicit, never an exception
        at submit time (the tenant holds a future either way).
        """
        decision, victims = self.admission.decide(
            self.scheduler.pending, job.rows, job.tenant)
        if decision == "quota":
            self.admission.quota_rejected += 1
            self.scheduler.settle(
                job, error=QuotaError(
                    f"tenant {job.tenant!r} exceeded its pending-rows "
                    "quota"), outcome="rejected")
            return job.future
        if decision == "reject":
            self.admission.rejected += 1
            self.scheduler.settle(
                job, error=AdmissionError(
                    "queue full: job rejected at admission"),
                outcome="rejected")
            return job.future
        if decision == "shed":
            for victim in victims:
                self.scheduler.pending.remove(victim)
                self.admission.shed += 1
                self.scheduler.settle(
                    victim, error=ShedError(
                        "job shed from the queue to admit newer work"),
                    outcome="rejected")
        self.admission.accepted += 1
        self.scheduler.enqueue(job)
        return job.future

    def _absolute_deadline(self, deadline_s: Optional[float]
                           ) -> Optional[float]:
        rel = deadline_s if deadline_s is not None else self.default_deadline_s
        return None if rel is None else self.clock.now() + float(rel)

    def submit_attack(self, attack: Attack, x: np.ndarray,
                      y: np.ndarray, tenant: Any = None,
                      deadline_s: Optional[float] = None) -> JobFuture:
        """Queue one attack job (DIVA/PGD/CW/NES/...; any ``Attack``).

        The result future resolves to exactly what
        ``attack.generate(x, y)`` would return — coalescing with other
        compatible jobs changes scheduling, never bytes.  ``deadline_s``
        (relative; falls back to the session default) bounds the job:
        rows still iterating when it passes stop between compiled steps
        and the future resolves ``deadline-degraded`` with the
        best-so-far adversarial batch.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if len(x) == 0:
            raise ValueError("attack job needs at least one row")
        if len(y) != len(x):
            raise ValueError(f"labels have {len(y)} rows for {len(x)} "
                             "inputs — rejected at submit so one bad "
                             "request cannot poison a coalesced batch")
        self._adopt(attack)
        future = JobFuture(self.drain)
        return self._admit(Job(kind="attack", seq=-1, x=x, future=future,
                               y=y, attack=attack, tenant=tenant,
                               deadline=self._absolute_deadline(deadline_s)))

    def submit_predict(self, model, x: np.ndarray, tenant: Any = None
                       ) -> JobFuture:
        """Queue one inference job (edge or float model).

        ``model`` is either an :class:`~repro.edge.engine.EdgeModel`
        (anything with a ``predict`` method — exact integer path,
        coalesces freely) or a float :class:`~repro.nn.module.Module`
        scored by forward logits.  Float jobs resolve to exactly what
        ``predict_logits(model, x)`` returns — every float GEMM is
        fixed-order (:mod:`repro.nn.rowrep`), which makes their per-row
        bits independent of how the scheduler batches them.

        Inference takes no deadline: it is a single pass with no
        intermediate iterate, so there is no meaningful partial result
        to degrade to (admission control is the overload defense here).
        """
        x = np.asarray(x)
        if len(x) == 0:
            raise ValueError("predict job needs at least one row")
        self._adopt(model)
        kind = "predict" if hasattr(model, "predict") else "predict_float"
        future = JobFuture(self.drain)
        return self._admit(Job(kind=kind, seq=-1, x=x, future=future,
                               model=model, tenant=tenant))

    # -- execution ------------------------------------------------------- #
    def drain(self, timeout: Optional[float] = None) -> int:
        """Serve every pending job; returns the number of dispatches.

        ``timeout`` (relative seconds on the session clock) bounds the
        drain for :meth:`JobFuture.result(timeout=...)
        <repro.serve.scheduler.JobFuture.result>`: dispatch rounds stop
        once the budget elapses and the remaining queue stays pending.
        A completed drain ends with a cycle collection: compiled
        programs are self-referential (their op closures capture the
        program), so retired plans are *only* reclaimable by the cyclic
        GC — and the compiled replay path allocates so few Python
        objects (by design) that the generational thresholds may not
        trip for many bursts, accumulating dead programs' buffers.  One
        explicit collect (~15 ms) per drained burst bounds that;
        long-lived experiment processes never noticed because their
        programs live for the whole run.
        """
        if not self.scheduler.pending:
            return 0
        until = (None if timeout is None
                 else self.clock.now() + float(timeout))
        rounds = self.scheduler.run_pending(until=until)
        gc.collect()
        return rounds

    def close(self) -> None:
        """Hand every adopted model that still points at this session's
        cache back to a store of its own: the model drops ``plan_cache``,
        so its next program builds into the per-model store of
        :func:`~repro.serve.cache.model_program`, float and edge models
        alike.  A finished session's programs die with it instead of
        living on through the models it served.  Idempotent; pending
        jobs stay queued."""
        for model in list(self._adopted):
            if getattr(model, "plan_cache", None) is self.plan_cache:
                del model.plan_cache
        self._adopted.clear()

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.drain()
        finally:
            self.close()

    # -- introspection --------------------------------------------------- #
    @property
    def dispatch_log(self) -> List[DispatchRecord]:
        return self.scheduler.dispatch_log

    @property
    def stats(self) -> Dict[str, Any]:
        log = self.scheduler.dispatch_log
        return {
            "dispatches": len(log),
            "jobs_served": sum(len(r.seqs) for r in log),
            "rows_served": sum(r.rows for r in log),
            "coalesced_dispatches": sum(1 for r in log if r.coalesced),
            "retry_dispatches": sum(1 for r in log if r.retry),
            "degraded_dispatches": sum(1 for r in log if r.level > 0),
            "outcome_counts": dict(self.scheduler.outcomes),
            "admission": self.admission.stats,
            "quarantine": self.breaker.stats,
            "plan_cache": self.plan_cache.stats,
        }
