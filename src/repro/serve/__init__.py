"""Attack-serving layer: shared plan caches, request coalescing, futures,
and the fault-tolerant control plane.

The paper's threat model is multi-tenant by construction — many users
query one deployed edge artifact while attackers probe the (original,
adapted) pair — and the ROADMAP's north star asks for heavy-traffic
serving on top of the four compiled-executor legs.  This package is
that layer:

- :class:`PlanCache` (:mod:`repro.serve.cache`) — one budgeted LRU
  store for every compiled plan (forward replays, paired attack
  programs, integer edge programs), replacing the per-attack and
  per-edge-model ad-hoc dicts; pinned failures re-probe after a
  cool-down so transient compile faults heal;
- :class:`Scheduler` (:mod:`repro.serve.scheduler`) — arrival-order
  dispatch that coalesces compatible requests (same serve signature,
  same shape/dtype) into single scheduled passes, starvation-free by
  construction, and walks failing dispatches down the degradation
  ladder (coalesced-compiled → solo-compiled → eager);
- :class:`ServeSession` (:mod:`repro.serve.session`) — the front end:
  submit heterogeneous jobs (with tenants and deadlines), get per-job
  futures, results bit-identical to running each job alone; admission
  control bounds the queue and the session's stats surface accounts
  every accepted/rejected/shed/degraded job;
- :mod:`repro.serve.resilience` — the shared vocabulary: the
  :class:`ServeError` taxonomy, clocks, deadline tokens, the
  :class:`CircuitBreaker` quarantine and the
  :class:`AdmissionController`;
- :mod:`repro.serve.faults` — the deterministic, seeded fault-injection
  harness (named injection points in plan build, validation, kernel
  dispatch and queue timing) behind ``make chaos`` and ``repro-exp
  serve --faults``;
- :mod:`repro.serve.workload` — recorded mixed workloads, replayable
  sequentially or through a session (``repro-exp serve``), with parity
  verification, per-job outcome records and the ``serve_throughput``
  bench protocol;
- :mod:`repro.serve.net` — the networked service boundary: a
  length-prefixed CRC-checked frame protocol, :class:`ServeServer`
  (backpressure as structured responses, health/readiness probes,
  graceful drain, bounded idempotency window) and :class:`ServeClient`
  (deadlines, seeded retry/backoff, idempotency keys), with
  ``net.client.*`` frame-fault points wired into the chaos harness;
- :mod:`repro.serve.journal` — the write-ahead journal of accepted
  jobs that makes a killed-and-restarted server replay and re-report
  bit-identical outcomes.

Dispatch is sequential: one :class:`Scheduler` loop per session.  The
only second thread is the paired attack step's lane
(:func:`repro.attacks.engine.lane_step`), which runs inside a dispatch.
"""

from .cache import PlanCache, plan_nbytes
from .faults import FaultInjector, FaultSpec, InjectedFault, \
    default_chaos_specs, default_net_chaos_specs, inject
from .journal import Journal, pack_arrays, unpack_arrays
from .net import (FrameParser, NetError, ProtocolError, RetryError,
                  ServeClient, ServeServer, encode_frame, replay_net,
                  verify_net_parity)
from .resilience import (LADDER, AdmissionController, AdmissionError,
                         CircuitBreaker, Clock, DeadlineError,
                         DeadlineToken, JobError, ManualClock, QuotaError,
                         ServeError, ShedError)
from .scheduler import (OUTCOMES, DispatchRecord, Job, JobFuture,
                        Scheduler)
from .session import ServeSession
from .workload import (Workload, assign_arrivals, attack_factory,
                       build_models, build_workload, chaos_replay,
                       load_workload, mixed_workload_spec,
                       replay_sequential, replay_serve, save_workload,
                       verify_parity)

__all__ = [
    "PlanCache", "plan_nbytes",
    "FaultInjector", "FaultSpec", "InjectedFault", "default_chaos_specs",
    "default_net_chaos_specs", "inject",
    "Journal", "pack_arrays", "unpack_arrays",
    "FrameParser", "NetError", "ProtocolError", "RetryError",
    "ServeClient", "ServeServer", "encode_frame", "replay_net",
    "verify_net_parity",
    "LADDER", "AdmissionController", "AdmissionError", "CircuitBreaker",
    "Clock", "DeadlineError", "DeadlineToken", "JobError", "ManualClock",
    "QuotaError", "ServeError", "ShedError",
    "OUTCOMES", "DispatchRecord", "Job", "JobFuture",
    "Scheduler", "ServeSession",
    "Workload", "assign_arrivals", "attack_factory", "build_models",
    "build_workload", "chaos_replay", "load_workload",
    "mixed_workload_spec", "replay_sequential", "replay_serve",
    "save_workload", "verify_parity",
]
