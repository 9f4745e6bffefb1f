"""The layers the traced run measures, and the per-layer metrics.

Every probe names the library entry point it wraps; span names are the
repo's module paths, so a per-layer metric reads as the module it
times.  Each ``*_ms`` metric is *self* time (the span's duration minus
its traced children), so the per-round figures of one run add up to at
most the round's wall time; ``trace.unattributed_ms`` is the rest.

Round metrics are averaged over the traced rounds of the timed loop.
``setup.*`` metrics cover one traced set-up, which is where compiles,
calibration and the eager tape run for most workloads.
"""

from __future__ import annotations

import gc
import statistics
from typing import Any, Dict, List, Tuple

from .stats import quartiles
from .tracer import SETUP, Probe, Tracer


def _span(name: str, skip_under: Tuple[str, ...] = ()):
    return lambda tr, orig: tr.wrap(orig, name, skip_under)


def _count(name: str, **kw):
    return lambda tr, orig: tr.counter(orig, name, **kw)


def _cache_get(tr: Tracer, orig):
    """``PlanCache.get`` counting lookups and timing the ``build``
    callable it runs on a miss (the only part of a lookup that costs)."""
    def get(self, key, owners, build, scope=None):
        tr.count("serve.cache.gets")
        tr.caches.add(self)
        return orig(self, key, owners, tr.wrap(build, "serve.cache.build"),
                    scope)
    get.__wrapped__ = orig
    return get


class _GcProxy:
    """Stands in for the ``gc`` module inside ``serve/session.py`` so the
    drain's ``gc.collect()`` is timed without touching other callers."""

    def __init__(self, collect):
        self.collect = collect

    def __getattr__(self, name):
        return getattr(gc, name)


def _session_gc(tr: Tracer, orig):
    return _GcProxy(tr.wrap(orig.collect, "serve.session.gc"))


PROBES: List[Probe] = [
    # nn.graph: compiled forward/backward programs
    Probe("method", "repro.nn.graph", "_forward",
          _span("nn.graph.forward", skip_under=("nn.graph.replay",)),
          cls="CompiledForward"),
    Probe("method", "repro.nn.graph", "_backward_from_seed",
          _span("nn.graph.backward"), cls="CompiledForward"),
    Probe("method", "repro.nn.graph", "replay", _span("nn.graph.replay"),
          cls="CompiledForward"),
    Probe("fn", "repro.nn.graph", "compile_forward",
          _span("nn.graph.compile")),
    Probe("fn", "repro.nn.graph", "compile_forward_or_none",
          _count("nn.graph.fallbacks", when=lambda r: r is None)),
    # attacks: whole-loop recorder and step-at-a-time engine
    Probe("fn", "repro.attacks.engine", "run_scheduled",
          _count("attacks.run_scheduled")),
    Probe("fn", "repro.attacks.loop", "try_run_loop",
          _count("attacks.loop.runs", when=lambda r: r is not None)),
    Probe("fn", "repro.attacks.loop", "_run_loop", _span("attacks.loop")),
    Probe("fn", "repro.attacks.loop", "_gradient_and_aux",
          _count("attacks.loop.passes")),
    Probe("fn", "repro.attacks.loop", "compile_attack_loop",
          _span("attacks.loop.build")),
    Probe("fn", "repro.attacks.engine", "run_scheduled_steps",
          _span("attacks.engine")),
    Probe("subclasses", "repro.attacks.base", "gradient_with_logits",
          _count("attacks.engine.grad_calls", outermost=True), cls="Attack"),
    # nn.train_graph / nn.optim / distillation
    Probe("method", "repro.nn.train_graph", "step",
          _span("nn.train_graph.step"), cls="CompiledTrainStep"),
    Probe("fn", "repro.nn.train_graph", "compile_train_step",
          _span("nn.train_graph.compile")),
    Probe("subclasses", "repro.nn.optim", "step",
          _count("nn.train_graph.eager_steps", outermost=True,
                 skip_under=("nn.train_graph.compile",)), cls="Optimizer"),
    Probe("subclasses", "repro.nn.optim", "apply_gradients",
          _span("nn.optim.update"), cls="Optimizer"),
    Probe("site", "repro.distillation.distill", "predict_logits",
          _span("distillation.teacher")),
    # edge: int8 programs
    Probe("method", "repro.edge.program", "run", _span("edge.program.run"),
          cls="EdgeProgram"),
    Probe("method", "repro.edge.engine", "_build_program",
          _span("edge.program.build"), cls="EdgeModel"),
    Probe("method", "repro.edge.engine", "predict",
          _span("edge.engine.predict"), cls="EdgeModel"),
    # serve
    Probe("method", "repro.serve.scheduler", "run_pending",
          _span("serve.scheduler"), cls="Scheduler"),
    Probe("method", "repro.serve.session", "submit_attack",
          _span("serve.session.submit"), cls="ServeSession"),
    Probe("method", "repro.serve.session", "submit_predict",
          _span("serve.session.submit"), cls="ServeSession"),
    Probe("site", "repro.serve.session", "gc", _session_gc),
    Probe("method", "repro.serve.cache", "get", _cache_get, cls="PlanCache"),
    # kernels and set-up
    Probe("fn", "repro.nn.rowrep", "rr_matmul", _span("nn.rowrep")),
    Probe("fn", "repro.quantization.qat", "calibrate",
          _span("quantization.calibrate")),
    Probe("fn", "repro.nn.functional", "conv2d",
          _span("nn.functional.conv2d")),
]

#: (metric, unit, span or counter name, field) for the round metrics;
#: field is ``self_ms`` / ``calls`` of a span or ``count`` of a counter
ROUND_METRICS: List[Tuple[str, str, str, str]] = [
    ("nn.graph.forward_ms", "ms/round", "nn.graph.forward", "self_ms"),
    ("nn.graph.forward_calls", "count/round", "nn.graph.forward", "calls"),
    ("nn.graph.backward_ms", "ms/round", "nn.graph.backward", "self_ms"),
    ("nn.graph.backward_calls", "count/round", "nn.graph.backward", "calls"),
    ("nn.graph.replay_ms", "ms/round", "nn.graph.replay", "self_ms"),
    ("nn.graph.replay_calls", "count/round", "nn.graph.replay", "calls"),
    ("nn.graph.compile_ms", "ms/round", "nn.graph.compile", "self_ms"),
    ("nn.graph.fallbacks", "count/round", "nn.graph.fallbacks", "count"),
    ("attacks.loop.self_ms", "ms/round", "attacks.loop", "self_ms"),
    ("attacks.loop.passes", "count/round", "attacks.loop.passes", "count"),
    ("attacks.loop.build_ms", "ms/round", "attacks.loop.build", "self_ms"),
    ("attacks.engine.self_ms", "ms/round", "attacks.engine", "self_ms"),
    ("attacks.engine.grad_calls", "count/round",
     "attacks.engine.grad_calls", "count"),
    ("nn.train_graph.step_ms", "ms/round", "nn.train_graph.step", "self_ms"),
    ("nn.train_graph.steps", "count/round", "nn.train_graph.step", "calls"),
    ("nn.train_graph.eager_steps", "count/round",
     "nn.train_graph.eager_steps", "count"),
    ("nn.train_graph.compile_ms", "ms/round", "nn.train_graph.compile",
     "self_ms"),
    ("nn.optim.update_ms", "ms/round", "nn.optim.update", "self_ms"),
    ("distillation.teacher_ms", "ms/round", "distillation.teacher",
     "self_ms"),
    ("edge.program.run_ms", "ms/round", "edge.program.run", "self_ms"),
    ("edge.program.runs", "count/round", "edge.program.run", "calls"),
    ("edge.program.build_ms", "ms/round", "edge.program.build", "self_ms"),
    ("edge.engine.predict_ms", "ms/round", "edge.engine.predict", "self_ms"),
    ("serve.scheduler.self_ms", "ms/round", "serve.scheduler", "self_ms"),
    ("serve.session.submit_ms", "ms/round", "serve.session.submit",
     "self_ms"),
    ("serve.session.gc_ms", "ms/round", "serve.session.gc", "self_ms"),
    ("serve.cache.build_ms", "ms/round", "serve.cache.build", "self_ms"),
    ("nn.rowrep.calls", "count/round", "nn.rowrep", "calls"),
    ("nn.rowrep.ms", "ms/round", "nn.rowrep", "self_ms"),
    ("quantization.calibrate_ms", "ms/round", "quantization.calibrate",
     "self_ms"),
    ("nn.functional.conv2d_ms", "ms/round", "nn.functional.conv2d",
     "self_ms"),
]

#: metrics derived from several sources (computed in :func:`per_layer`)
DERIVED_METRICS: List[Tuple[str, str]] = [
    ("attacks.loop.hit_ratio", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count/round"),
    ("serve.cache.resident_mb", "MB"),
    ("serve.scheduler.dispatches", "count/round"),
    ("serve.scheduler.jobs_per_dispatch", "ratio"),
    ("serve.scheduler.retry_dispatches", "count/round"),
    ("serve.scheduler.queue_wait_ms", "ms/job"),
    ("python.gc_ms", "ms/round"),
    ("trace.round_ms", "ms/round"),
    ("trace.untraced_round_ms", "ms/round"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms/round"),
    ("trace.spans", "count/round"),
]

#: the set-up metrics: (metric, unit, span or counter, field)
SETUP_METRICS: List[Tuple[str, str, str, str]] = [
    ("setup.nn.graph.compile_ms", "ms/setup", "nn.graph.compile", "self_ms"),
    ("setup.nn.graph.fallbacks", "count/setup", "nn.graph.fallbacks",
     "count"),
    ("setup.attacks.loop.build_ms", "ms/setup", "attacks.loop.build",
     "self_ms"),
    ("setup.nn.train_graph.compile_ms", "ms/setup",
     "nn.train_graph.compile", "self_ms"),
    ("setup.edge.program.build_ms", "ms/setup", "edge.program.build",
     "self_ms"),
    ("setup.serve.cache.build_ms", "ms/setup", "serve.cache.build",
     "self_ms"),
    ("setup.quantization.calibrate_ms", "ms/setup",
     "quantization.calibrate", "self_ms"),
    ("setup.nn.functional.conv2d_ms", "ms/setup", "nn.functional.conv2d",
     "self_ms"),
]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {m: u for m, u, _, _ in ROUND_METRICS}
    out.update(dict(DERIVED_METRICS))
    out.update({m: u for m, u, _, _ in SETUP_METRICS})
    out["setup.wall_ms"] = "ms/setup"
    return out


def _field(tr: Tracer, table, rounds, source: str, field: str) -> float:
    if field == "count":
        return float(tr.counted(source, rounds))
    return float(table.get(source, {}).get(field, 0.0))


def per_layer(tr: Tracer, traced_rounds: List[int],
              round_ms: List[float], untraced_round_ms: List[float],
              setup_ms: float, serve: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the tracer's spans and counters.

    ``round_ms``/``untraced_round_ms`` are the wall times of the traced
    and untraced rounds, pair by pair (both rounds of a pair run the same
    input), ``setup_ms`` the traced set-up's wall time and
    ``serve`` the scheduler figures only the serving workload has
    (dispatch counts and queue wait, read from the session).
    """
    n = max(1, len(traced_rounds))
    table = tr.table(traced_rounds)
    out: Dict[str, float] = {}
    for metric, _, source, field in ROUND_METRICS:
        out[metric] = _field(tr, table, traced_rounds, source, field) / n
    runs = tr.counted("attacks.loop.runs", traced_rounds)
    calls = tr.counted("attacks.run_scheduled", traced_rounds)
    out["attacks.loop.hit_ratio"] = runs / calls if calls else 0.0
    gets = tr.counted("serve.cache.gets", traced_rounds)
    builds = table.get("serve.cache.build", {}).get("calls", 0)
    out["serve.cache.hit_ratio"] = (gets - builds) / gets if gets else 0.0
    caches = list(tr.caches)
    out["serve.cache.evictions"] = serve.get("evictions", 0.0) / n
    out["serve.cache.resident_mb"] = sum(
        c.total_bytes() for c in caches) / 2 ** 20
    out["serve.scheduler.dispatches"] = serve.get("dispatches", 0.0) / n
    jobs = serve.get("jobs", 0.0)
    disp = serve.get("dispatches", 0.0)
    out["serve.scheduler.jobs_per_dispatch"] = jobs / disp if disp else 0.0
    out["serve.scheduler.retry_dispatches"] = serve.get("retries", 0.0) / n
    out["serve.scheduler.queue_wait_ms"] = serve.get("queue_wait_ms", 0.0)
    out["python.gc_ms"] = tr.gc_ms(traced_rounds) / n
    med_t = quartiles(round_ms)[1] if round_ms else 0.0
    med_u = quartiles(untraced_round_ms)[1] if untraced_round_ms else 0.0
    out["trace.round_ms"] = med_t
    out["trace.untraced_round_ms"] = med_u
    # rounds come in pairs on one input, so the paired ratio cancels the
    # input's cost and most of the host's drift
    ratios = [t / u for t, u in zip(round_ms, untraced_round_ms) if u > 0]
    out["trace.overhead_pct"] = ((statistics.median(ratios) - 1) * 100
                                 if ratios else 0.0)
    out["trace.unattributed_ms"] = (
        sum(round_ms) - tr.root_ms(traced_rounds)) / n
    out["trace.spans"] = sum(row["calls"] for row in table.values()) / n
    setup_table = tr.table([SETUP])
    for metric, _, source, field in SETUP_METRICS:
        out[metric] = _field(tr, setup_table, [SETUP], source, field)
    out["setup.wall_ms"] = setup_ms
    return out


def span_table(tr: Tracer, rounds: List[Any]) -> Dict[str, Dict[str, float]]:
    """The raw per-span table (calls, inclusive and self ms), rounded for
    the result file."""
    return {name: {k: round(v, 4) for k, v in row.items()}
            for name, row in sorted(tr.table(rounds).items())}
