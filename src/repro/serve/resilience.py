"""Resilience primitives for the serving control plane.

The serving layer's fault story has four moving parts, all defined
here so every module (scheduler, session, cache, workload) shares one
vocabulary:

- **the ServeError taxonomy** — every way a submitted job can fail to
  return a normal result is a :class:`ServeError` subclass, so a tenant
  can switch on the class instead of parsing messages: admission
  rejects (:class:`AdmissionError` / :class:`ShedError` /
  :class:`QuotaError`), dispatch failures (:class:`JobError`, chained
  to the root cause), and injected chaos faults
  (:class:`~repro.serve.faults.InjectedFault`).
- **clocks** — all deadline, quarantine-cooldown and failure-re-probe
  arithmetic reads a :class:`Clock` object instead of ``time``
  directly, so the fault-injection harness can drive a
  :class:`ManualClock` deterministically (latency faults *advance* the
  clock; nothing ever sleeps in tests).
- **deadline tokens** — a :class:`DeadlineToken` carries per-row
  absolute deadlines into the attack step loops
  (:func:`~repro.attacks.engine.run_scheduled_steps` and
  ``Attack._run_full_batch``).  Rows whose deadline passes retire
  *between* compiled steps with their best-so-far iterate; the token records
  which rows expired and after how many steps, and the scheduler flags
  the job's future ``deadline-degraded`` instead of failing it.
- **the circuit breaker** — per-dispatch-key quarantine with cool-down
  re-probe, implementing the degradation ladder
  (coalesced-compiled → solo-compiled → eager).  A key that fails at
  rung *L* is quarantined at rung *L + 1* for ``cooldown_s``; after the
  cool-down the next dispatch probes one rung back up, so transient
  faults heal and permanent ones settle at the eager floor.

:class:`AdmissionController` rounds the set out: a bounded queue with
an explicit reject/shed policy and per-tenant quotas, consulted by
:meth:`ServeSession.submit_attack <repro.serve.session.ServeSession.
submit_attack>` before anything touches the scheduler.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

# --------------------------------------------------------------------- #
# error taxonomy
# --------------------------------------------------------------------- #


class ServeError(RuntimeError):
    """Base class of every structured serving-layer failure.

    ``JobFuture.result()`` only ever raises ServeError subclasses: a
    tenant that catches this class has seen every failure mode the
    control plane can produce.
    """


class JobError(ServeError):
    """A job's dispatch failed at every rung of the degradation ladder.

    Raised by :meth:`JobFuture.result <repro.serve.scheduler.JobFuture.
    result>` with the root cause chained (``raise ... from exc``), and
    — when a coalesced dispatch failed first — the coalesced failure
    chained behind the solo retry's own error, so the whole ladder is
    attributable post-hoc from ``__cause__`` links.
    """


class AdmissionError(ServeError):
    """The job was refused at submit: the queue is full (reject policy)."""


class ShedError(AdmissionError):
    """The job was admitted, then shed from the queue to make room for a
    later arrival (shed policy drops the oldest pending work first)."""


class QuotaError(AdmissionError):
    """The submitting tenant exceeded its pending-rows quota."""


class DeadlineError(ServeError):
    """A bounded wait ran out before the job resolved.

    Raised by :meth:`JobFuture.result(timeout=...) <repro.serve.
    scheduler.JobFuture.result>` when the drain budget elapses with the
    job still pending, and by the networked client when a per-request
    deadline passes before a response lands.  Distinct from the
    ``deadline-degraded`` *outcome*: that one returns a best-so-far
    batch; this one means the caller stopped waiting."""


# --------------------------------------------------------------------- #
# clocks
# --------------------------------------------------------------------- #


class Clock:
    """Monotonic time source for deadlines, cool-downs and re-probes."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock(Clock):
    """Deterministic clock for the fault-injection harness.

    Time only moves when something calls :meth:`advance` — the
    injector's latency faults do, which is how "a slow dispatch blew
    the deadline" is reproduced bit-for-bit from a seed.

    >>> c = ManualClock()
    >>> c.advance(1.5); c.now()
    1.5
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clocks only move forward")
        self._now += float(dt)


# --------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------- #


class DeadlineToken:
    """Per-row absolute deadlines threaded through the attack step loop.

    The step loops call :meth:`poll` once per pass with the active row
    indices and retire the rows whose deadline has passed, then report
    them via :meth:`expire`; retired rows keep their current (best-so-
    far) iterate.  ``expired``/``steps_done`` let the scheduler flag
    the owning job ``deadline-degraded`` and say how far it got.

    :meth:`poll` is also the harness's per-step injection point
    (``attack.step``): latency faults advance the clock *between
    compiled steps*, which is exactly when a real slow kernel would
    burn deadline budget.
    """

    def __init__(self, deadlines: np.ndarray, clock: Clock):
        self.deadlines = np.asarray(deadlines, dtype=np.float64)
        self.clock = clock
        n = len(self.deadlines)
        self.expired = np.zeros(n, dtype=bool)
        self.steps_done = np.zeros(n, dtype=np.intp)

    @classmethod
    def for_rows(cls, row_deadlines: Iterable[Optional[float]],
                 clock: Clock) -> "DeadlineToken":
        """Token over per-row deadlines; None rows never expire."""
        arr = np.array([np.inf if d is None else float(d)
                        for d in row_deadlines], dtype=np.float64)
        return cls(arr, clock)

    def poll(self, rows: np.ndarray) -> np.ndarray:
        """Expired-now mask for ``rows`` (does not record — the loop
        decides which rows actually retire and calls :meth:`expire`)."""
        from . import faults
        faults.fire("attack.step")
        return self.deadlines[rows] <= self.clock.now()

    def expire(self, rows: np.ndarray, steps_done) -> None:
        """Record that ``rows`` retired early after ``steps_done`` steps."""
        self.expired[rows] = True
        self.steps_done[rows] = steps_done

    def job_slice_expired(self, lo: int, hi: int) -> bool:
        return bool(self.expired[lo:hi].any())


# --------------------------------------------------------------------- #
# quarantine / degradation ladder
# --------------------------------------------------------------------- #

#: the degradation ladder, in rung order; rung index == breaker level
LADDER = ("coalesced-compiled", "solo-compiled", "eager")
EAGER_LEVEL = len(LADDER) - 1


class CircuitBreaker:
    """Per-key quarantine with cool-down re-probe.

    Keys are the scheduler's dispatch-group keys (serve signature +
    shape/dtype for attacks, model identity for inference), so one
    faulty plan family degrades only its own traffic.  State per key is
    ``(level, until)``: dispatches run at ``level`` while quarantined;
    once ``until`` passes, :meth:`level` returns one rung *up* the
    ladder as a probe, and a successful probe (:meth:`record_success`)
    moves the resting level up one rung — repeated healthy cool-downs
    walk a key all the way back to coalesced-compiled, while a failed
    probe re-quarantines it where it was.  Keys at level 0 carry no
    state at all.

    >>> clk = ManualClock()
    >>> br = CircuitBreaker(cooldown_s=10.0, clock=clk)
    >>> br.level("k")
    0
    >>> br.record_failure("k", 0); br.level("k")     # quarantined: solo
    1
    >>> clk.advance(11); br.level("k")               # cool-down: re-probe
    0
    >>> br.record_success("k", 0); br.level("k")     # healed
    0
    """

    def __init__(self, cooldown_s: float = 5.0, clock: Optional[Clock] = None,
                 max_keys: int = 1024):
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.cooldown_s = float(cooldown_s)
        self.clock = clock if clock is not None else Clock()
        self.max_keys = int(max_keys)
        # key -> [resting_level, quarantined_until]
        self._state: "OrderedDict[Any, List[float]]" = OrderedDict()
        self.trips = 0
        self.heals = 0

    def level(self, key) -> int:
        """Ladder rung to dispatch ``key`` at right now (0 = healthy)."""
        st = self._state.get(key)
        if st is None:
            return 0
        lvl, until = int(st[0]), st[1]
        if self.clock.now() >= until:
            return max(lvl - 1, 0)      # cool-down elapsed: probe one rung up
        return lvl

    def record_failure(self, key, level: int) -> None:
        """Dispatch at ``level`` failed: quarantine one rung further down."""
        new_level = min(int(level) + 1, EAGER_LEVEL)
        self._state[key] = [new_level, self.clock.now() + self.cooldown_s]
        self._state.move_to_end(key)
        self.trips += 1
        while len(self._state) > self.max_keys:
            self._state.popitem(last=False)

    def record_success(self, key, level: int) -> None:
        """Dispatch at ``level`` succeeded: heal one rung if it was a probe."""
        st = self._state.get(key)
        if st is None or level >= st[0]:
            return
        if level <= 0:
            del self._state[key]
            self.heals += 1
        else:
            # healed one rung; leave `until` in the past so the next
            # dispatch probes the rung above immediately
            self._state[key] = [int(level), self.clock.now()]

    def quarantined(self, key) -> bool:
        return self.level(key) > 0

    @property
    def stats(self) -> Dict[str, int]:
        return {"trips": self.trips, "heals": self.heals,
                "quarantined_keys": sum(
                    1 for k in list(self._state) if self.level(k) > 0)}


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #


class AdmissionController:
    """Bounded-queue admission with reject/shed policy and tenant quotas.

    Consulted on every submit *before* the job touches the scheduler.
    Bounds are over the pending queue (jobs and/or summed rows); the
    policy decides what happens when a submit would exceed them:

    - ``"reject"`` — the new job is refused
      (:class:`AdmissionError`; its future resolves ``rejected``);
    - ``"shed"`` — the *oldest pending* jobs are dropped
      (:class:`ShedError`) until the new arrival fits, favouring fresh
      traffic under overload.  A job too large to ever fit is rejected.

    Per-tenant quotas bound each tenant's pending rows independently
    (``tenant_quota_rows``: one int for every tenant, or a dict with a
    ``None`` key as the default).  Quota violations always reject the
    *submitting* tenant's job — one tenant's burst can never shed
    another tenant's queued work.
    """

    def __init__(self, max_pending_jobs: Optional[int] = None,
                 max_pending_rows: Optional[int] = None,
                 policy: str = "reject",
                 tenant_quota_rows=None):
        if policy not in ("reject", "shed"):
            raise ValueError(f"unknown admission policy {policy!r}")
        if (max_pending_jobs is not None and max_pending_jobs < 1) or \
                (max_pending_rows is not None and max_pending_rows < 1):
            raise ValueError("admission bounds must be >= 1")
        self.max_pending_jobs = max_pending_jobs
        self.max_pending_rows = max_pending_rows
        self.policy = policy
        if tenant_quota_rows is None or isinstance(tenant_quota_rows, dict):
            self.tenant_quota_rows = tenant_quota_rows
        else:
            self.tenant_quota_rows = {None: int(tenant_quota_rows)}
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.quota_rejected = 0

    def _quota_for(self, tenant) -> Optional[int]:
        quotas = self.tenant_quota_rows
        if quotas is None:
            return None
        if tenant in quotas:
            return quotas[tenant]
        return quotas.get(None)

    def decide(self, pending, new_rows: int, tenant
               ) -> Tuple[str, List[Any]]:
        """(decision, victims): decision in accept/reject/quota/shed.

        ``pending`` is the scheduler's queue (iterated, not mutated);
        ``victims`` is the list of pending jobs to shed (only ever
        non-empty for ``"shed"``).  Counters are the caller's to bump —
        this method is a pure decision so it can be unit-tested alone.
        """
        quota = self._quota_for(tenant)
        if quota is not None:
            tenant_rows = sum(j.rows for j in pending if j.tenant == tenant)
            if tenant_rows + new_rows > quota:
                return "quota", []
        n_jobs = 0
        n_rows = 0
        for j in pending:
            n_jobs += 1
            n_rows += j.rows
        fits = (
            (self.max_pending_jobs is None
             or n_jobs + 1 <= self.max_pending_jobs)
            and (self.max_pending_rows is None
                 or n_rows + new_rows <= self.max_pending_rows))
        if fits:
            return "accept", []
        if self.policy == "reject":
            return "reject", []
        victims: List[Any] = []
        for j in pending:                      # oldest first
            n_jobs -= 1
            n_rows -= j.rows
            victims.append(j)
            if ((self.max_pending_jobs is None
                 or n_jobs + 1 <= self.max_pending_jobs)
                    and (self.max_pending_rows is None
                         or n_rows + new_rows <= self.max_pending_rows)):
                return "shed", victims
        return "reject", []      # the new job alone exceeds the bounds

    @property
    def stats(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "policy": self.policy,
            "max_pending_jobs": self.max_pending_jobs,
            "max_pending_rows": self.max_pending_rows,
        }
