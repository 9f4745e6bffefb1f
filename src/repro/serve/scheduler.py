"""Request-coalescing scheduler: many jobs, one compiled pass at a time.

The multi-tenant serving problem: heterogeneous requests arrive over
time — DIVA/PGD/CW/FGSM attack jobs against a deployed (original,
adapted) pair, NES query streams, plain :meth:`EdgeModel.predict
<repro.edge.engine.EdgeModel.predict>` scoring — and most of them want
the *same* compiled resources.  Running each request alone wastes the
two things the compiled legs made cheap: program compilation (paid per
attack instance today) and pass occupancy (a 4-row request steps 4-row
gradient batches through machinery that is just as happy with 64).

:class:`Scheduler` fixes both without touching results:

- **compatibility keys** — every job maps to a group key.  Attack jobs
  coalesce when their attacks report equal
  :meth:`~repro.attacks.base.Attack.serve_signature` (same class, same
  model objects, same step count, same non-per-item parameters) over
  the same input shape/dtype; per-item parameters (``eps``, ``alpha``,
  ``keep_best`` and the attack's declared sweep params such as DIVA's
  ``c``) never block coalescing because
  :func:`~repro.attacks.engine.run_scheduled` already takes them as
  per-row vectors.  Edge-inference jobs coalesce per
  :class:`~repro.edge.engine.EdgeModel`.  Float-model inference jobs
  (``predict_float``) coalesce per (model, shape, dtype) under the
  row-reproducible GEMM mode, and also ride along with attack groups
  targeting the same models (mixed traffic shares the dispatch round).
  Everything else (NES and momentum attacks with full-batch
  RNG/velocity state, attacks with no signature, float predicts with
  coalescing disabled) runs solo — with the reason recorded on its
  :class:`DispatchRecord`, never silently serialized.
- **arrival-order dispatch (no starvation)** — the dispatch loop always
  takes the *oldest pending job* as the head of the next batch and then
  folds in every other pending compatible job up to ``max_batch_rows``.
  Group membership is frozen at dispatch, so a stream of compatible
  arrivals can never push an incompatible job back: job *i* is
  dispatched no later than the *i*-th round (asserted by the fairness
  tests).
- **value-neutral merging** — a merged attack batch is exactly the
  tiling :meth:`Attack.generate_sweep` already performs (per-row
  parameter vectors into one ``run_scheduled`` call, each job's own
  ``_init`` for its rows), and per-sample trajectories depend only on
  that sample's own gradients; merged edge batches ride the integer
  path, which is exact per row; merged float batches run under
  :func:`repro.nn.rowrep.row_reproducible`, whose fixed-order blocked
  accumulation makes each row's float bits independent of batch
  composition.  All are bit-identical to running each job alone — the
  scheduler may only change wall-time, never bytes.

Failure handling runs down the **degradation ladder**
(:data:`~repro.serve.resilience.LADDER`): a dispatch that raises at the
coalesced-compiled rung quarantines its group key in the
:class:`~repro.serve.resilience.CircuitBreaker` and retries every
member solo-compiled, then eager — the rung that *is* the bit-exact
reference implementation, so degradation can change latency but never
bytes.  Every retry emits its own :class:`DispatchRecord` (``level`` /
``retry``) and chains the prior rung's exception via ``__cause__``, so
a post-hoc reader can attribute exactly which rung failed and why.
Jobs with a deadline carry a
:class:`~repro.serve.resilience.DeadlineToken` into the step loop and
resolve ``deadline-degraded`` with their best-so-far iterates instead
of running long or failing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..attacks.base import Attack
from ..attacks.engine import run_scheduled
from ..nn import rowrep
from ..nn.tensor import Tensor
from . import faults
from .resilience import (EAGER_LEVEL, CircuitBreaker, Clock, DeadlineError,
                         DeadlineToken, JobError, ServeError)

#: every terminal state a job can land in (the workload-record taxonomy)
OUTCOMES = ("ok", "failed", "rejected", "deadline-degraded")


class JobFuture:
    """Handle to one submitted job's eventual result.

    ``result()`` drives the owning session until this job resolves (the
    scheduler is single-threaded and synchronous — there is no waiting,
    only work).  A failed job re-raises a :class:`ServeError`: admission
    and injected faults keep their own class, anything else is wrapped
    in :class:`JobError` with the root cause chained.  ``outcome`` holds
    the job's terminal state (one of :data:`OUTCOMES`) and ``info``
    outcome details (e.g. per-row ``steps_done`` for deadline-degraded
    attack jobs).
    """

    def __init__(self, drain: Callable[[], None]):
        self._drain = drain
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self.outcome: Optional[str] = None
        self.info: Dict[str, Any] = {}

    @property
    def done(self) -> bool:
        return self._done

    def _resolve(self, value: Any, outcome: str = "ok",
                 info: Optional[Dict[str, Any]] = None) -> None:
        self._value = value
        self.outcome = outcome
        if info:
            self.info.update(info)
        self._done = True

    def _fail(self, error: BaseException, outcome: str = "failed",
              info: Optional[Dict[str, Any]] = None) -> None:
        self._error = error
        self.outcome = outcome
        if info:
            self.info.update(info)
        self._done = True

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's value, driving the session until it resolves.

        ``timeout`` bounds the wait: the drain stops dispatching new
        rounds once ``timeout`` seconds of session-clock time have
        elapsed, and if this job is still pending a structured
        :class:`~repro.serve.resilience.DeadlineError` is raised — the
        job stays queued (a later unbounded ``result()`` can still
        serve it).  Under a :class:`~repro.serve.resilience.
        ManualClock` only injected latency moves time, so a bounded
        wait expiring is a deterministic, replayable event.
        """
        if not self._done:
            if timeout is None:
                self._drain()
            else:
                self._drain(timeout=timeout)
        if not self._done:
            if timeout is not None:
                raise DeadlineError(
                    f"job did not resolve within the {timeout}s drain "
                    "budget; it remains pending")
            raise JobError("job did not resolve after a full drain")
        if self._error is not None:
            if isinstance(self._error, ServeError):
                raise self._error
            raise JobError(f"{type(self._error).__name__}: {self._error}"
                           ) from self._error
        return self._value


@dataclass
class Job:
    """One queued request (attack or inference) plus its future."""

    kind: str                       # "attack" | "predict" | "predict_float"
    seq: int
    x: np.ndarray
    future: JobFuture
    y: Optional[np.ndarray] = None
    attack: Optional[Attack] = None
    model: Any = None               # EdgeModel / float Module for inference
    tenant: Any = None              # admission-quota identity
    deadline: Optional[float] = None   # absolute clock time, or None
    solo_reason: Optional[str] = None  # why the job could not coalesce

    @property
    def rows(self) -> int:
        return len(self.x)


@dataclass
class DispatchRecord:
    """One scheduling decision, kept for fairness tests, retry
    attribution and stats.  ``level`` is the degradation-ladder rung the
    dispatch ran at (index into :data:`~repro.serve.resilience.LADDER`);
    ``retry`` marks dispatches re-attempted after a failed rung."""

    key: Any
    seqs: Tuple[int, ...]
    rows: int
    level: int = 0
    retry: bool = False
    reason: Optional[str] = None    # solo attribution, never a silent path
    coalesced: bool = field(init=False)

    def __post_init__(self):
        self.coalesced = len(self.seqs) > 1


def _group_key(job: Job, float_coalesce: bool = True):
    """Compatibility key; a unique key (by ``seq``) means "runs solo".

    Solo keys always set ``job.solo_reason`` — a job that cannot
    coalesce dispatches solo *with attribution* (surfaced on its
    :class:`DispatchRecord`), never silently serializes.  Float-predict
    keys embed the row-reproducible mode (``("rr", ROW_BLOCK)``): only
    the fixed-order GEMM makes per-row float bits independent of batch
    composition, so only under that mode is coalescing value-neutral.
    """
    if job.kind == "predict":
        return ("predict", id(job.model), job.x.shape[1:], job.x.dtype.str)
    if job.kind == "predict_float":
        if job.x.dtype.kind != "f":
            job.solo_reason = "non-float input on float-predict path"
            return ("solo", job.seq)
        if not float_coalesce:
            job.solo_reason = "float-coalesce-disabled"
            return ("solo", job.seq)
        return ("predict_float", id(job.model), job.x.shape[1:],
                job.x.dtype.str, ("rr", rowrep.ROW_BLOCK))
    atk = job.attack
    sig = atk.serve_signature()
    if sig is None or not atk.shrink_done:
        job.solo_reason = ("full-batch gradient state" if sig is not None
                          else "no serve signature")
        return ("solo", job.seq)
    return ("attack", sig, job.x.shape[1:], job.x.dtype.str)


def _float_forward(model: Any, xs: np.ndarray, batch_size: int,
                   executor: Any) -> np.ndarray:
    """Chunked eval-mode float forward with **no** auto-compile.

    The eager ladder rung must stay the pure-tape reference — letting
    ``predict_logits`` silently re-enter the compiled path for large
    batches would make "eager" mean "compiled sometimes", which is
    exactly the attribution ambiguity the ladder exists to rule out.
    Chunking is irrelevant to bits here because every caller wraps this
    in :func:`repro.nn.rowrep.row_reproducible`.
    """
    was_training = getattr(model, "training", False)
    model.eval()
    try:
        outs = []
        for start in range(0, len(xs), batch_size):
            xb = xs[start:start + batch_size]
            if executor is not None:
                outs.append(executor.replay(xb))
            else:
                outs.append(model(Tensor(xb)).data.copy())
        return np.concatenate(outs, axis=0)
    finally:
        if was_training:
            model.train()


class Scheduler:
    """Arrival-order batching of compatible jobs onto shared programs.

    Parameters
    ----------
    capacity:
        Active-slot count handed to
        :func:`~repro.attacks.engine.run_scheduled` and the chunk size
        for merged edge-inference batches.
    max_batch_rows:
        Ceiling on the summed rows of one coalesced dispatch; pending
        compatible jobs beyond it wait for the next round (they keep
        their arrival-order priority).
    predict_batch:
        Chunk size for merged edge-inference batches (the per-shape
        program cache amortizes best over one fixed chunk shape).
    clock:
        Time source for deadlines and quarantine cool-downs; injectable
        so chaos tests drive everything from a
        :class:`~repro.serve.resilience.ManualClock`.
    breaker:
        The per-key quarantine.  Shared with the owning session so its
        stats surface on ``ServeSession.stats()``.
    float_coalesce:
        When True (default), float-predict jobs coalesce per (model,
        shape, dtype) under the row-reproducible GEMM mode, and mixed
        traffic rides along: a float-predict job whose model belongs to
        an attack group head's plan owners joins that head's dispatch
        round (sharing the session plan cache and round latency).  When
        False every float-predict job runs solo — attributed on its
        :class:`DispatchRecord`, never silently serialized.
    """

    def __init__(self, capacity: int = 64, max_batch_rows: int = 512,
                 predict_batch: int = 256,
                 clock: Optional[Clock] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 float_coalesce: bool = True):
        if capacity < 1 or max_batch_rows < 1 or predict_batch < 1:
            raise ValueError("capacity, max_batch_rows and predict_batch "
                             "must be >= 1")
        self.capacity = int(capacity)
        self.max_batch_rows = int(max_batch_rows)
        self.predict_batch = int(predict_batch)
        self.float_coalesce = bool(float_coalesce)
        self.clock = clock if clock is not None else Clock()
        self.breaker = (breaker if breaker is not None
                        else CircuitBreaker(clock=self.clock))
        self.pending: "deque[Job]" = deque()
        self.dispatch_log: List[DispatchRecord] = []
        self.outcomes: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self._seq = 0

    # -- queueing ------------------------------------------------------- #
    def enqueue(self, job: Job) -> Job:
        job.seq = self._seq
        self._seq += 1
        self.pending.append(job)
        return job

    def __len__(self) -> int:
        return len(self.pending)

    def settle(self, job: Job, *, value: Any = None,
               error: Optional[BaseException] = None,
               outcome: str = "ok",
               info: Optional[Dict[str, Any]] = None) -> None:
        """Resolve/fail a job's future exactly once and account the
        outcome (the one funnel every terminal state goes through)."""
        if job.future.done:
            return
        if error is not None:
            job.future._fail(error, outcome=outcome, info=info)
        else:
            job.future._resolve(value, outcome=outcome, info=info)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    # -- dispatch ------------------------------------------------------- #
    def run_pending(self, until: Optional[float] = None) -> int:
        """Serve the queue to empty; returns the number of head rounds.

        Membership of each batch is decided when its head job (always
        the oldest pending) is popped — jobs enqueued mid-run join the
        tail and cannot delay anything already queued.  ``queue.tick``
        fires once per round (a latency-fault injection point: queueing
        delay under chaos; error faults do not belong on it).

        ``until`` (absolute clock time) is the bounded-wait budget
        behind :meth:`JobFuture.result(timeout=...) <JobFuture.
        result>`: it is checked *between* dispatch rounds — a round in
        flight always completes (jobs are never abandoned mid-dispatch)
        but no new round starts past the budget, leaving the rest of
        the queue pending for a later drain.
        """
        rounds = 0
        while self.pending:
            if until is not None and self.clock.now() >= until:
                break
            kind, group, key = self._pop_group()
            self._run_group(kind, group, key, None)
            rounds += 1
        return rounds

    def _pop_group(self) -> Tuple[str, List[Job], Any]:
        """Pop the next dispatch round: the oldest pending job as head
        plus every compatible pending job up to ``max_batch_rows``.

        Fires ``queue.tick`` once per call.
        """
        faults.fire("queue.tick")
        head = self.pending.popleft()
        key = _group_key(head, self.float_coalesce)
        group = [head]
        rows = head.rows
        if key[0] != "solo":
            # an attack-headed group also absorbs float-predict
            # "riders" against the attack's own models: mixed
            # traffic shares the dispatch round (and the session
            # plan cache) instead of waiting behind it
            owners: Tuple[Any, ...] = ()
            if key[0] == "attack" and self.float_coalesce:
                owners = tuple(head.attack._plan_owners())
            kept: List[Job] = []
            for job in self.pending:
                fits = rows + job.rows <= self.max_batch_rows
                if fits and _group_key(job, self.float_coalesce) == key:
                    group.append(job)
                    rows += job.rows
                elif (fits and owners and job.kind == "predict_float"
                        and job.x.dtype.kind == "f"
                        and any(job.model is m for m in owners)):
                    group.append(job)
                    rows += job.rows
                else:
                    kept.append(job)
            self.pending = deque(kept)
        return head.kind, group, key

    def _run_group(self, kind: str, group: List[Job], key,
                   _probe: Any = None) -> None:
        """Dispatch a group down the degradation ladder.

        A healthy key dispatches coalesced-compiled (rung 0).  If that
        raises (one tenant's malformed rows, an injected fault, a bad
        plan), the key is quarantined and every member walks the rest of
        the ladder solo — innocent jobs still complete, the faulty one
        carries the error, and each attempt is logged so failures are
        attributable post-hoc.  A key already quarantined at rung L
        skips straight to solo dispatch at L for every member.

        ``_probe`` is unused.  It keeps the four-argument call shape that
        ``perfbench/workloads.py``'s ``watch_dispatch`` wraps and forwards
        on traced runs; drop it only together with that wrapper.
        """
        start = self.breaker.level(key)
        cause: Optional[BaseException] = None
        if start == 0:
            self.dispatch_log.append(DispatchRecord(
                key, tuple(j.seq for j in group),
                sum(j.rows for j in group), level=0,
                reason=group[0].solo_reason if len(group) == 1 else None))
            try:
                self._dispatch(kind, group, level=0)
                self.breaker.record_success(key, 0)
                return
            except Exception as exc:    # noqa: BLE001 - job isolation
                self.breaker.record_failure(key, 0)
                cause = exc
            start = 1
        for job in group:
            self._run_ladder(kind, job, key, start, cause)

    def _run_ladder(self, kind: str, job: Job, key, level: int,
                    cause: Optional[BaseException]) -> None:
        """Walk one job down the ladder from ``level`` until a rung
        succeeds or the eager floor fails too.  Each failed rung's
        exception is chained behind the next (``__cause__``), so the
        terminal error explains the whole descent.  Jobs already
        settled by a partially-successful mixed dispatch (their kind's
        sub-dispatch resolved before another kind's raised) are done —
        re-running them would double-spend the pass."""
        if job.future.done:
            return
        while True:
            level = min(level, EAGER_LEVEL)
            self.dispatch_log.append(DispatchRecord(
                key, (job.seq,), job.rows, level=level,
                retry=cause is not None, reason=job.solo_reason))
            try:
                self._dispatch(kind, [job], level=level)
                self.breaker.record_success(key, level)
                return
            except Exception as exc:    # noqa: BLE001 - job isolation
                self.breaker.record_failure(key, level)
                if (cause is not None and exc is not cause
                        and exc.__cause__ is None):
                    exc.__cause__ = cause
                cause = exc
                if level >= EAGER_LEVEL:
                    self.settle(job, error=exc, outcome="failed")
                    return
                level += 1

    def _dispatch(self, kind: str, group: List[Job], level: int) -> None:
        # mixed groups (attack head + float-predict riders) partition by
        # kind: each sub-dispatch resolves its own jobs, so a failure in
        # one kind walks only the unresolved members down the ladder
        compiled = level < EAGER_LEVEL
        attacks = [j for j in group if j.kind == "attack"]
        predicts = [j for j in group if j.kind == "predict"]
        floats = [j for j in group if j.kind == "predict_float"]
        if attacks:
            self._dispatch_attack(attacks, compiled=compiled)
        if predicts:
            self._dispatch_predict(predicts, compiled=compiled)
        if floats:
            self._dispatch_predict_float(floats, compiled=compiled)

    # -- attack batches -------------------------------------------------- #
    def _dispatch_attack(self, group: List[Job],
                         compiled: bool = True) -> None:
        """One scheduled pass over the merged rows of ``group``.

        Mirrors :meth:`Attack.generate_sweep`'s tiling exactly, with one
        "variant" per job: per-row ``eps``/``alpha``/``keep_best`` (and
        sweep-parameter) vectors taken from each job's own attack, each
        job's rows initialized by its own attack's ``_init`` (so
        ``random_start`` streams match a solo run), and the group head's
        attack driving the gradient passes.  Per-sample trajectories are
        independent, so every job's slice is bit-identical to
        ``job.attack.generate(job.x, job.y)`` run alone.

        ``compiled=False`` is the eager ladder rung: the head attack's
        ``use_compiled`` is forced off for the dispatch, and no fault
        point fires — eager is the reference implementation faults
        degrade *to*, never a fault domain itself.  Jobs with deadlines thread
        a :class:`DeadlineToken` into the step loop; rows whose
        deadline passes retire between steps with their best-so-far
        iterate and the job resolves ``deadline-degraded``.

        The merged batch goes through
        :func:`~repro.attacks.engine.run_scheduled`, the step-at-a-time
        engine: one gradient pass over the occupied slots per step,
        bit-identical per row to each job's solo run.
        """
        rep = group[0].attack
        if compiled:
            faults.fire("dispatch.attack")
        token: Optional[DeadlineToken] = None
        if any(j.deadline is not None for j in group):
            row_deadlines: List[Optional[float]] = []
            for j in group:
                row_deadlines.extend([j.deadline] * j.rows)
            token = DeadlineToken.for_rows(row_deadlines, self.clock)
        prior = rep.use_compiled
        rep.use_compiled = prior and compiled
        try:
            if len(group) == 1 and not rep.shrink_done:
                # full-batch gradient state (momentum, NES noise): the slot
                # scheduler cannot host it, and the batch partition is part
                # of the result (per-batch RNG/velocity state), so the job
                # must run with generate's own default batching — exactly
                # what `attack.generate(x, y)` alone would do
                job = group[0]
                adv = rep.generate(job.x, job.y, deadline=token)
                self._resolve_slices(group, adv, token)
                return
            rep._refresh_compiled()
            xs = np.concatenate([j.x for j in group], axis=0)
            ys = np.concatenate([np.asarray(j.y) for j in group])
            dtype = xs.dtype
            eps = np.concatenate([
                np.full(j.rows, j.attack.eps, dtype=dtype) for j in group])
            alpha = np.concatenate([
                np.full(j.rows, j.attack.alpha, dtype=dtype) for j in group])
            check = np.concatenate([
                np.full(j.rows, j.attack.keep_best, dtype=bool)
                for j in group])
            params: Optional[Dict[str, np.ndarray]] = None
            if len(group) > 1 and rep.sweep_params:
                params = {key: np.concatenate([
                    np.full(j.rows, float(getattr(j.attack, key)),
                            dtype=np.float64) for j in group])
                    for key in sorted(rep.sweep_params)}
            adv0 = np.concatenate([j.attack._init(j.x) for j in group],
                                  axis=0)
            adv = run_scheduled(rep, xs, ys, adv0, eps, alpha, check, params,
                                capacity=self.capacity, deadline=token)
            self._resolve_slices(group, adv, token)
        finally:
            rep.use_compiled = prior

    def _resolve_slices(self, group: List[Job], adv: np.ndarray,
                        token: Optional[DeadlineToken]) -> None:
        start = 0
        for job in group:
            lo, hi = start, start + job.rows
            if token is not None and token.job_slice_expired(lo, hi):
                self.settle(
                    job, value=adv[lo:hi].copy(), outcome="deadline-degraded",
                    info={"expired_rows": int(token.expired[lo:hi].sum()),
                          "steps_done": token.steps_done[lo:hi].copy()})
            else:
                self.settle(job, value=adv[lo:hi].copy(), outcome="ok")
            start = hi

    # -- inference batches ----------------------------------------------- #
    def _dispatch_predict(self, group: List[Job],
                          compiled: bool = True) -> None:
        """Merged rows through one shared per-shape edge program.

        The integer path is exact per row (float GEMMs on integers below
        their width's exactness bound, elementwise requantization), so
        chunking the merged batch differently from each solo ``predict``
        call cannot change a single bit of any job's logits.  Deadlines
        are ignored here by design: inference is a single pass with no
        intermediate iterate to return, so a "partial" predict does not
        exist.
        """
        model = group[0].model
        if compiled:
            faults.fire("dispatch.predict")
        xs = np.concatenate([j.x for j in group], axis=0)
        out = model.predict(xs, batch_size=self.predict_batch,
                            compiled=compiled)
        start = 0
        for job in group:
            # copy: a view would alias every tenant's result to one
            # merged buffer (and pin all of it for as long as any
            # caller keeps its small slice)
            self.settle(job, value=out[start:start + job.rows].copy())
            start += job.rows

    # -- float inference batches ------------------------------------------ #
    def _dispatch_predict_float(self, group: List[Job],
                                compiled: bool = True) -> None:
        """Merged float rows through one shared row-reproducible pass.

        Unlike the integer edge path, a float GEMM's per-row bits depend
        on batch composition under BLAS (kernel/blocking selection keys
        off the row count), so naive merging would change results.  The
        whole dispatch therefore runs under
        :func:`repro.nn.rowrep.row_reproducible`: every matmul uses the
        fixed-order blocked accumulation, making each row's bits a
        function of that row and the weights alone.  With the mode on,
        coalesced-compiled == solo-compiled == eager per row (compiled
        plans are bit-validated against per-row execution at build
        time), so the degradation ladder is byte-neutral for float
        predicts exactly as it is for attacks and edge inference.

        Mixed groups may carry riders against several models / input
        shapes; each (model, shape, dtype) partition runs one shared
        pass.  Compiled rungs look up plans in the model's adopted
        session :class:`~repro.serve.cache.PlanCache` (falling back to
        the process-wide store), where row-reproducible plans are keyed
        apart from unconstrained ones by ``rowrep.mode_key()``; a plan
        that fails to build pins None and the pass runs the eager tape —
        bit-identical under the mode, per the shared fallback contract.
        Deadlines are ignored as in :meth:`_dispatch_predict`: a single
        pass has no partial result to return.
        """
        if compiled:
            faults.fire("dispatch.predict_float")
        from ..nn.graph import compile_forward_cached
        parts: Dict[Any, List[Job]] = {}
        for job in group:
            parts.setdefault(
                (id(job.model), job.x.shape[1:], job.x.dtype.str),
                []).append(job)
        with rowrep.row_reproducible():
            for members in parts.values():
                model = members[0].model
                xs = np.concatenate([j.x for j in members], axis=0)
                executor = None
                if compiled:
                    # 8 example rows, like Attack's executor cache: the
                    # plan replays any batch size, and the memo key only
                    # uses shape[1:]/dtype/mode
                    executor = compile_forward_cached(
                        model, xs[:8],
                        cache=getattr(model, "plan_cache", None))
                out = _float_forward(model, xs, self.predict_batch, executor)
                start = 0
                for job in members:
                    self.settle(job, value=out[start:start + job.rows].copy())
                    start += job.rows
