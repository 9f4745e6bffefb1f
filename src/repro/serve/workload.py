"""Recorded mixed workloads: build, save, replay — serve vs sequential.

The acceptance story for the serving layer is a *recorded* stream of
heterogeneous requests (attack jobs and plain inference jobs, arrival
order interleaved) that can be replayed two ways and compared:

- ``sequential`` — each job alone, in arrival order, exactly as the
  pre-serve codebase would have handled requests (every attack instance
  compiles its own programs; every predict call batches only its own
  rows);
- ``serve`` — all jobs through one :class:`~repro.serve.session.
  ServeSession`, sharing a plan cache and coalescing compatible jobs.

Per-job results must match bit for bit between the two replays
(:func:`verify_parity` asserts it); the throughput ratio is the
``serve_throughput`` entry of the BENCH trajectory.

A workload *spec* is a small JSON-serializable dict — seeds, model
hyper-parameters, and one record per job — so a workload can be
committed, shipped to the bench's subprocess-isolated arms, or replayed
by the ``repro-exp serve`` CLI subcommand.  Materialization
(:func:`build_workload`) deterministically reconstructs models, data and
attack instances from the spec; it never stores arrays.

Job kinds and their materialization:

===========  ==========================================================
``diva``     :class:`~repro.attacks.diva.DIVA` on the workload's
             (original, adapted) resnet pair; ``c``/``eps``/``alpha``
             per job.
``pgd``      :class:`~repro.attacks.pgd.PGD` on the adapted model.
``cw``       :class:`~repro.attacks.cw.CWLinf` on the adapted model.
``fgsm``     FGSM expressed as its exact PGD special case —
             ``steps=1, alpha=eps, keep_best=False`` reproduces
             :func:`repro.attacks.fgsm.fgsm` step for step — so
             single-step jobs ride the same scheduler.
``nes``      :class:`~repro.attacks.nes.NESDiva` semi-blackbox query
             stream (full-batch RNG state: never coalesced, served
             solo in arrival order).
``predict``  plain :meth:`EdgeModel.predict
             <repro.edge.engine.EdgeModel.predict>` on the workload's
             int8 edge artifact.
``predict_float``
             float logits from the workload's *adapted* model (the
             attack target itself), scored under
             :func:`repro.nn.rowrep.row_reproducible` so per-row bits
             are batch-composition independent; coalesces with other
             float predicts and rides along with attack groups against
             the same model (mixed traffic on shared passes).
===========  ==========================================================

Doctest — specs are plain data and round-trip through JSON::

    >>> spec = mixed_workload_spec(scale=1)
    >>> import json
    >>> spec == json.loads(json.dumps(spec))
    True
    >>> sorted({j["kind"] for j in spec["jobs"]})
    ['cw', 'diva', 'fgsm', 'nes', 'pgd', 'predict', 'predict_float']
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .resilience import ServeError
from .session import ServeSession

#: spec format version, bumped on incompatible schema changes; job
#: records may carry optional ``tenant`` / ``deadline_s`` /
#: ``arrival_offset_s`` fields (older specs without them replay
#: unchanged — offsets default to 0 — so the version stays 1)
SPEC_VERSION = 1


def mixed_workload_spec(scale: int = 2, seed: int = 0) -> Dict[str, Any]:
    """The default recorded workload: interleaved attack + inference.

    ``scale`` multiplies the request count (not the per-job size), so
    occupancy stays "mixed": many small attack probes (4-8 rows each,
    the shape of real per-user requests) plus moderate inference
    batches.  Arrival order interleaves kinds and parameters so
    coalescing has to work across gaps, not just on adjacent twins.
    """
    jobs: List[Dict[str, Any]] = []
    eps_grid = [8 / 255, 16 / 255, 12 / 255]
    c_grid = [1.0, 0.5, 2.0]
    for i in range(scale):
        e = eps_grid[i % len(eps_grid)]
        jobs += [
            {"kind": "diva", "rows": 6, "c": c_grid[i % 3], "eps": e},
            {"kind": "predict", "rows": 24},
            {"kind": "pgd", "rows": 6, "eps": e},
            {"kind": "predict_float", "rows": 12},
            {"kind": "diva", "rows": 4, "c": c_grid[(i + 1) % 3]},
            {"kind": "fgsm", "rows": 8, "eps": e},
            {"kind": "predict", "rows": 16},
            {"kind": "cw", "rows": 4, "kappa": 0.0},
            {"kind": "predict_float", "rows": 20},
            {"kind": "diva", "rows": 6, "eps": eps_grid[(i + 2) % 3]},
            {"kind": "nes", "rows": 2, "steps": 3, "n_samples": 2},
            {"kind": "pgd", "rows": 4, "alpha": 2 / 255},
            {"kind": "predict", "rows": 24},
            {"kind": "predict_float", "rows": 8},
            {"kind": "cw", "rows": 4, "kappa": 0.0},
        ]
    return {
        "version": SPEC_VERSION,
        "name": f"mixed-x{scale}",
        "seed": seed,
        "steps": 10,
        "attack_model": {"arch": "resnet", "num_classes": 10, "width": 8,
                         "image_size": 16},
        "edge_model": {"arch": "lenet", "num_classes": 10, "width": 8,
                       "image_size": 16, "in_channels": 1},
        "jobs": jobs,
    }


def assign_arrivals(spec: Dict[str, Any], rate_hz: float = 50.0,
                    tenants: int = 4, seed: Optional[int] = None
                    ) -> Dict[str, Any]:
    """Give every job a tenant and an ``arrival_offset_s`` (in place).

    Jobs are dealt round-robin across ``tenants`` independent arrival
    processes; each tenant's inter-arrival gaps are exponential with
    mean ``1 / rate_hz`` (a Poisson process per tenant, the standard
    open-loop load model), drawn from a seeded RNG so a spec's arrival
    pattern is part of its identity.  The job *list order* is left
    untouched — arrival order is the offsets' job, and the load
    generator sorts by them at replay time.  Old specs without offsets
    load with offset 0 (all-at-once, the historic behaviour).

    >>> spec = assign_arrivals(mixed_workload_spec(scale=1), tenants=2)
    >>> all("arrival_offset_s" in j and "tenant" in j
    ...     for j in spec["jobs"])
    True
    """
    if rate_hz <= 0 or tenants < 1:
        raise ValueError("rate_hz must be > 0 and tenants >= 1")
    rng = np.random.default_rng(
        spec["seed"] + 1000003 if seed is None else seed)
    clocks = [0.0] * tenants
    for i, job in enumerate(spec["jobs"]):
        t = i % tenants
        clocks[t] += float(rng.exponential(1.0 / rate_hz))
        job["tenant"] = f"tenant-{t}"
        job["arrival_offset_s"] = round(clocks[t], 6)
    return spec


def save_workload(spec: Dict[str, Any], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_workload(path: str) -> Dict[str, Any]:
    """Read a saved spec; ``ValueError`` unless it is a JSON object of
    this :data:`SPEC_VERSION` with a ``jobs`` list."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"workload spec {path} must be a JSON object, "
                         f"not {type(spec).__name__}")
    if spec.get("version") != SPEC_VERSION:
        raise ValueError(f"unsupported workload spec version "
                         f"{spec.get('version')!r} (expected {SPEC_VERSION})")
    if not isinstance(spec.get("jobs"), list):
        raise ValueError(f"workload spec {path} needs a 'jobs' list")
    return spec


@dataclass
class MaterializedJob:
    """One replayable request: inputs plus a factory for its attack."""

    kind: str
    x: np.ndarray
    y: Optional[np.ndarray]
    make_attack: Optional[Any]      # zero-arg factory, None for predict
    model: Any = None               # EdgeModel for predict jobs
    tenant: Any = None              # admission-quota identity
    deadline_s: Optional[float] = None   # relative per-job deadline
    arrival_offset_s: float = 0.0   # load-gen arrival time (0 = at once)
    record: Optional[Dict[str, Any]] = None  # resolved spec record (wire form)


@dataclass
class Workload:
    """Materialized spec: fixed server-side models + the request list."""

    spec: Dict[str, Any]
    original: Any
    adapted: Any
    edge: Any
    jobs: List[MaterializedJob]

    @property
    def rows(self) -> int:
        return sum(len(j.x) for j in self.jobs)


def build_models(spec: Dict[str, Any]):
    """``(original, adapted, edge)`` deterministically from a spec.

    The server-side state mirrors the bench fixtures: an untrained
    (seeded) original model, its calibrated+frozen 8-bit QAT adaptation
    as the attack target pair, and a separately quantized feed-forward
    model compiled to the int8 edge artifact for inference jobs.  The
    networked server calls this with the *same spec* the client
    materialized its workload from, which is what makes wire replays
    comparable bit for bit with in-process ones.
    """
    from ..edge import compile_edge
    from ..models import build_model
    from ..quantization import calibrate, prepare_qat

    rng = np.random.default_rng(spec["seed"])
    am = spec["attack_model"]
    em = spec["edge_model"]

    original = build_model(am["arch"], num_classes=am["num_classes"],
                           width=am["width"], seed=spec["seed"])
    original.eval()
    calib = rng.random((16, 3, am["image_size"], am["image_size"]),
                       ).astype(np.float32)
    adapted = prepare_qat(original, weight_bits=8)
    calibrate(adapted, calib)
    adapted.freeze()
    adapted.eval()

    edge_f = build_model(em["arch"], num_classes=em["num_classes"],
                         width=em["width"], image_size=em["image_size"],
                         in_channels=em.get("in_channels", 1),
                         seed=spec["seed"] + 1)
    edge_f.eval()
    edge_calib = rng.random(
        (16, em.get("in_channels", 1), em["image_size"], em["image_size"]),
    ).astype(np.float32)
    edge_q = prepare_qat(edge_f, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(edge_q, edge_calib)
    edge_q.freeze()
    edge = compile_edge(edge_q, em["num_classes"])
    return original, adapted, edge


def attack_factory(original: Any, adapted: Any, rec: Dict[str, Any],
                   default_steps: int = 10):
    """Zero-arg attack factory for one *resolved* job record.

    A resolved record carries every parameter explicitly (the NES seed
    in particular — :func:`build_workload` injects the job index for
    old specs that omit it), so the same record produces the same
    attack whether it is materialized client-side, server-side from a
    wire frame, or during journal recovery.
    """
    from ..attacks import CWLinf, DIVA, NESDiva, PGD

    kind = rec["kind"]
    eps = float(rec.get("eps", 8 / 255))
    alpha = float(rec.get("alpha", 1 / 255))
    n_steps = int(rec.get("steps", default_steps))
    if kind == "diva":
        c = float(rec.get("c", 1.0))
        return (lambda c=c, eps=eps, alpha=alpha, n=n_steps:
                DIVA(original, adapted, c=c, eps=eps, alpha=alpha,
                     steps=n))
    if kind == "pgd":
        return (lambda eps=eps, alpha=alpha, n=n_steps:
                PGD(adapted, eps=eps, alpha=alpha, steps=n))
    if kind == "cw":
        kappa = float(rec.get("kappa", 0.0))
        return (lambda eps=eps, alpha=alpha, n=n_steps, k=kappa:
                CWLinf(adapted, eps=eps, alpha=alpha, steps=n, kappa=k))
    if kind == "fgsm":
        # FGSM == PGD(steps=1, alpha=eps, keep_best=False): one
        # eps-sized sign step from the natural sample
        return (lambda eps=eps:
                PGD(adapted, eps=eps, alpha=eps, steps=1,
                    keep_best=False))
    if kind == "nes":
        ns = int(rec.get("n_samples", 4))
        s = int(rec.get("seed", 0))
        return (lambda eps=eps, alpha=alpha, n=n_steps, ns=ns, s=s:
                NESDiva(original, adapted, n_samples=ns, eps=eps,
                        alpha=alpha, steps=n, seed=s))
    raise ValueError(f"unknown workload job kind {kind!r}")


def build_workload(spec: Dict[str, Any]) -> Workload:
    """Deterministically materialize models, data and jobs from a spec.

    Models come from :func:`build_models`; attack-job labels are the
    original model's own predictions, so every probe starts
    un-succeeded (no random-label degeneracy).  Each materialized job
    keeps its *resolved* spec record (index-dependent defaults like the
    NES seed made explicit) — the wire form a networked client sends.
    """
    from ..training import predict_labels

    original, adapted, edge = build_models(spec)
    rng = np.random.default_rng(spec["seed"])
    am = spec["attack_model"]
    em = spec["edge_model"]
    steps = int(spec.get("steps", 10))
    # burn the model-calibration draws so job data stays where the
    # original single-RNG materialization put it (spec identity)
    rng.random((16, 3, am["image_size"], am["image_size"]))
    rng.random((16, em.get("in_channels", 1), em["image_size"],
                em["image_size"]))

    jobs: List[MaterializedJob] = []
    for i, rec in enumerate(spec["jobs"]):
        kind = rec["kind"]
        rows = int(rec["rows"])
        tenant = rec.get("tenant")
        deadline_s = rec.get("deadline_s")
        deadline_s = None if deadline_s is None else float(deadline_s)
        offset = float(rec.get("arrival_offset_s", 0.0))
        if kind == "predict":
            x = rng.random((rows, em.get("in_channels", 1),
                            em["image_size"], em["image_size"]),
                           ).astype(np.float32)
            jobs.append(MaterializedJob(kind, x, None, None, model=edge,
                                        tenant=tenant, deadline_s=deadline_s,
                                        arrival_offset_s=offset,
                                        record=dict(rec)))
            continue
        if kind == "predict_float":
            # float inference against the attack target itself: the
            # shape of monitoring/scoring traffic interleaved with
            # attack probes, and the mixed-coalescing rider case
            x = rng.random((rows, 3, am["image_size"], am["image_size"]),
                           ).astype(np.float32)
            jobs.append(MaterializedJob(kind, x, None, None, model=adapted,
                                        tenant=tenant, deadline_s=deadline_s,
                                        arrival_offset_s=offset,
                                        record=dict(rec)))
            continue
        x = rng.random((rows, 3, am["image_size"], am["image_size"]),
                       ).astype(np.float32)
        y = predict_labels(original, x)
        resolved = dict(rec)
        resolved.setdefault("steps", steps)
        if kind == "nes":
            resolved.setdefault("seed", i)
        make = attack_factory(original, adapted, resolved,
                              default_steps=steps)
        jobs.append(MaterializedJob(kind, x, y, make, tenant=tenant,
                                    deadline_s=deadline_s,
                                    arrival_offset_s=offset,
                                    record=resolved))
    return Workload(spec, original, adapted, edge, jobs)


def replay_sequential(workload: Workload) -> Dict[str, Any]:
    """Each job alone, in arrival order — the pre-serve baseline.

    Every attack job gets a fresh instance from its factory (distinct
    requests hold distinct configurations; nothing is shared but the
    models themselves), and inference jobs call ``predict`` (edge) or a
    row-reproducible ``predict_logits`` (float) on their own rows only —
    exactly what a naive per-request handler would do.
    """
    from ..nn import rowrep
    from ..training.evaluate import predict_logits

    results = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        if job.kind == "predict":
            results.append(job.model.predict(job.x))
        elif job.kind == "predict_float":
            # the solo float reference runs under the same
            # row-reproducible mode the scheduler uses: the mode is the
            # *definition* of a float job's bits, so solo and coalesced
            # replays are comparable bit for bit
            with rowrep.row_reproducible():
                results.append(predict_logits(job.model, job.x))
        else:
            results.append(job.make_attack().generate(job.x, job.y))
    elapsed = time.perf_counter() - t0
    return {"results": results, "seconds": elapsed,
            "rows": workload.rows, "jobs": len(workload.jobs)}


def replay_serve(workload: Workload, capacity: int = 64,
                 session: Optional[ServeSession] = None,
                 float_coalesce: bool = True) -> Dict[str, Any]:
    """All jobs through one session: submit in arrival order, drain.

    Per-job terminal states are recorded alongside the results:
    ``outcomes[i]`` is the job's outcome (``ok`` / ``failed`` /
    ``rejected`` / ``deadline-degraded``), ``results[i]`` is its value
    (the best-so-far batch for deadline-degraded attack jobs, None for
    failed/rejected ones) and ``errors[i]`` the :class:`ServeError` a
    refused or failed job raised.  Graceful degradation is thereby
    distinguishable from silent corruption post-hoc — a replay record
    says *how* every job ended, not just what it returned.
    """
    session = session if session is not None else ServeSession(
        capacity=capacity, float_coalesce=float_coalesce)
    futures = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        if job.kind in ("predict", "predict_float"):
            futures.append(session.submit_predict(
                job.model, job.x, tenant=job.tenant))
        else:
            futures.append(session.submit_attack(
                job.make_attack(), job.x, job.y, tenant=job.tenant,
                deadline_s=job.deadline_s))
    results: List[Optional[np.ndarray]] = []
    errors: List[Optional[BaseException]] = []
    for f in futures:
        try:
            results.append(f.result())
            errors.append(None)
        except ServeError as exc:
            results.append(None)
            errors.append(exc)
    elapsed = time.perf_counter() - t0
    outcomes = [f.outcome for f in futures]
    counts: Dict[str, int] = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    out = dict(session.stats)
    # per-replay records win over the session-lifetime stats keys
    out.update({"results": results, "errors": errors, "outcomes": outcomes,
                "outcome_counts": counts, "seconds": elapsed,
                "rows": workload.rows, "jobs": len(workload.jobs)})
    return out


def verify_parity(workload: Workload, capacity: int = 64,
                  allow_failures: bool = False,
                  serve: Optional[Dict[str, Any]] = None,
                  float_coalesce: bool = True) -> Dict[str, Any]:
    """Replay both ways, assert bit-identical per-job results.

    The serving layer's whole contract in one call: coalescing and
    shared caches may change wall-time only.  Returns both replays'
    timings plus the aggregate throughput ratio
    (``rows / seconds`` serve over sequential).

    With ``allow_failures`` (chaos runs), jobs that ended ``failed`` /
    ``rejected`` / ``deadline-degraded`` are excluded from the bit
    comparison — their degradation is *explicit* in the outcome record —
    while every ``ok`` job must still match its solo run exactly:
    graceful degradation is allowed, silent corruption never is.
    ``serve`` optionally supplies an already-completed served replay
    (e.g. one run under fault injection) instead of running a fresh one.
    """
    seq = replay_sequential(workload)
    srv = serve if serve is not None else replay_serve(
        workload, capacity=capacity, float_coalesce=float_coalesce)
    not_ok = [(i, o) for i, o in enumerate(srv["outcomes"]) if o != "ok"]
    if not_ok and not allow_failures:
        raise AssertionError(
            f"{len(not_ok)} job(s) did not complete ok "
            f"(breakdown {srv['outcome_counts']}); pass "
            "allow_failures=True for chaos replays")
    for i, (a, b) in enumerate(zip(seq["results"], srv["results"])):
        if srv["outcomes"][i] != "ok":
            continue
        if not (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b)):
            raise AssertionError(
                f"job {i} ({workload.jobs[i].kind}) diverged between "
                "sequential and served replay")
    return {
        "jobs": len(workload.jobs),
        "rows": workload.rows,
        "sequential_s": seq["seconds"],
        "serve_s": srv["seconds"],
        "throughput_ratio": seq["seconds"] / srv["seconds"],
        "dispatches": srv["dispatches"],
        "coalesced_dispatches": srv["coalesced_dispatches"],
        "outcome_counts": srv["outcome_counts"],
        "plan_cache": srv["plan_cache"],
    }


def chaos_replay(workload: Workload, capacity: int = 64,
                 fault_specs=None, seed: int = 0,
                 deadline_s: Optional[float] = None,
                 max_pending_jobs: Optional[int] = None,
                 admission_policy: str = "reject",
                 float_coalesce: bool = True) -> Dict[str, Any]:
    """Serve the workload under seeded fault injection and check every
    resilience invariant the chaos suite (and ``repro-exp serve
    --faults``) relies on:

    - **no hangs, no silent drops** — every submitted job's future
      resolves with a terminal outcome;
    - **no silent corruption** — every ``ok`` job is bit-identical to
      its solo fault-free run;
    - **structured failures** — every refused/failed job raises a
      :class:`~repro.serve.resilience.ServeError` subclass;
    - **flagged degradation** — deadline-degraded jobs return a real
      best-so-far batch plus per-row ``steps_done`` info.

    Time is a :class:`~repro.serve.resilience.ManualClock` advanced only
    by the injector's latency faults, so a given (workload, specs, seed)
    triple replays bit-for-bit.  Short quarantine/failure cool-downs are
    used so transient faults visibly heal within one replay.
    """
    from . import faults as faults_mod
    from .resilience import ManualClock

    clock = ManualClock()
    specs = (fault_specs if fault_specs is not None
             else faults_mod.default_chaos_specs())
    injector = faults_mod.FaultInjector(specs, seed=seed, clock=clock)
    # the fault-free solo reference, computed before any injection
    reference = replay_sequential(workload)["results"]
    session = ServeSession(
        capacity=capacity, clock=clock,
        default_deadline_s=deadline_s,
        quarantine_cooldown_s=0.5, failure_cooldown_s=0.5,
        max_pending_jobs=max_pending_jobs,
        admission_policy=admission_policy,
        float_coalesce=float_coalesce)
    with faults_mod.inject(injector):
        srv = replay_serve(workload, session=session)
    for i, outcome in enumerate(srv["outcomes"]):
        kind = workload.jobs[i].kind
        if outcome is None:
            raise AssertionError(f"job {i} ({kind}) never resolved")
        if outcome == "ok":
            a, b = reference[i], srv["results"][i]
            if not (a.shape == b.shape and a.dtype == b.dtype
                    and np.array_equal(a, b)):
                raise AssertionError(
                    f"job {i} ({kind}) completed ok under faults but "
                    "diverged from its solo fault-free run")
        elif outcome == "deadline-degraded":
            b = srv["results"][i]
            if b is None or b.shape != reference[i].shape:
                raise AssertionError(
                    f"job {i} ({kind}) is deadline-degraded without a "
                    "best-so-far batch")
        elif srv["errors"][i] is None or not isinstance(
                srv["errors"][i], ServeError):
            raise AssertionError(
                f"job {i} ({kind}) ended {outcome!r} without a "
                "structured ServeError")
    return {
        "jobs": len(workload.jobs),
        "rows": workload.rows,
        "outcome_counts": srv["outcome_counts"],
        "faults_fired": injector.stats,
        "retry_dispatches": srv["retry_dispatches"],
        "degraded_dispatches": srv["degraded_dispatches"],
        "quarantine": srv["quarantine"],
        "admission": srv["admission"],
        "plan_cache": srv["plan_cache"],
        "clock_s": clock.now(),
    }
