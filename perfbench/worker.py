"""One benchmark run of one workload, in the current process.

``perfbench/run.py`` sets the BLAS thread variables and the import path
before this module (and numpy) is imported; see that file for the
command line.  The run:

1. records the host block and a ``/proc`` load sample;
2. sets the workload up (under the tracer when tracing);
3. runs one untimed warm round, then closed-loop rounds cycling through
   the seeded input sets until ``--seconds`` have passed and every set
   has been repeated ``min_reps`` times; untraced runs set a spare
   instance up ``setup_reps - 1`` more times between rounds, spread
   over the run, and report the median as ``setup_s``.  A host-speed
   probe (``hostspeed.Probe``) runs right before every timed round and
   set-up, and their seconds are rescaled to the reference host;
4. checks outputs and computes the bytes guard outside the timed loop;
5. writes the full result under the output directory and prints each
   metric by name with its unit, then the one-line JSON result.

With ``--trace 1`` the timed rounds come in pairs on the same input,
one traced and one not, in alternating order, so the per-layer table is
read from traced rounds and ``trace.overhead_pct`` compares the two
halves on identical work.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Any, Dict, List

import numpy as np

from repro.nn import set_default_dtype

from . import hostinfo, layers, stats
from .hostspeed import Probe
from .tracer import SETUP, Tracer
from .workloads import WORKLOADS, Workload

#: the end-to-end metrics every workload reports, with their units; each
#: workload maps ``work_per_s``/``p50_ms``/``tail_ms``/``guard_rate`` to
#: its own figure (``Workload.aliases``)
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
              "p50_ms": "ms", "tail_ms": "ms", "guard_rate": "ratio"}

#: units of the workload-named figures in the result file
NAMED_UNITS = {"_per_s": "1/s", "_ms": "ms", "_rate": "ratio",
               "_agreement": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in NAMED_UNITS.items():
        if name.endswith(suffix):
            return unit
    return ""


def _serve_counters(w: Workload) -> Dict[str, float]:
    """Cumulative scheduler/cache counters of the serving workload."""
    session = getattr(w, "session", None)
    if session is None:
        return {}
    log = session.scheduler.dispatch_log
    return {"dispatches": len(log),
            "retries": sum(1 for rec in log if rec.retry),
            "evictions": session.plan_cache.evictions,
            "jobs": sum(session.scheduler.outcomes.values())}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_setup(w: Workload, probe: Probe) -> float:
    """Seconds one ``w.setup()`` takes, rescaled to the reference host,
    on a collected heap (the discarded state of an earlier set-up is
    reclaimed outside the timed interval)."""
    gc.collect()
    scale = probe.scale()
    t0 = time.perf_counter()
    w.setup()
    seconds = time.perf_counter() - t0
    gc.collect()
    return scale * seconds


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> int:
    set_default_dtype(np.float32)
    started = time.time()
    t_begin = time.perf_counter()
    host = hostinfo.host_block()
    load_start = hostinfo.load_sample()
    w = WORKLOADS[workload](seed)
    tracer = Tracer(layers.PROBES) if trace else None
    probe = Probe()
    probe()                                 # first call pays for page faults

    if tracer is not None:
        tracer.install()
        tracer.round = SETUP
    setup_s = [_timed_setup(w, probe)]
    if tracer is not None:
        tracer.round = None
        tracer.uninstall()
    setups_due = 1 if tracer is not None else w.setup_reps
    w.prepare()
    if tracer is not None and hasattr(w, "watch_dispatch"):
        w.watch_dispatch()
    w.run_round(0, record=False)

    traced_rounds: List[int] = []
    traced_ms: List[float] = []
    untraced_ms: List[float] = []
    scales: List[float] = []
    serve_totals: Dict[str, float] = {}
    peak_rss_mb = None
    r = 0
    t_start = time.perf_counter()
    while True:
        if tracer is None:
            batch, traced = r % w.batches, False
        else:
            pair = r // 2
            batch, traced = pair % w.batches, (r % 2) == (pair % 2)
        if traced:
            before = _serve_counters(w)
            tracer.install()
            tracer.round = r
        if w.collect_each_round:
            gc.collect()
        w.host_scale = probe.scale()
        scales.append(w.host_scale)
        t0 = time.perf_counter()
        w.run_round(batch, record=True)
        dt = (time.perf_counter() - t0) * 1e3
        if traced:
            tracer.round = None
            tracer.uninstall()
            traced_rounds.append(r)
            traced_ms.append(dt)
            for k, v in _serve_counters(w).items():
                serve_totals[k] = serve_totals.get(k, 0) + v - before[k]
        else:
            untraced_ms.append(dt)
        r += 1
        elapsed = time.perf_counter() - t_start
        while (len(setup_s) < setups_due
               and elapsed >= seconds * len(setup_s) / setups_due):
            # the other set-ups are spread over the run so their median
            # does not hinge on one stretch of host contention; the peak
            # footprint is read before the first, which holds a second
            # copy of the system next to the live one
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()
            setup_s.append(_timed_setup(WORKLOADS[workload](seed), probe))
            elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and w.reps_done() >= w.min_reps
                and len(setup_s) == setups_due
                and (tracer is None or r % 2 == 0)):
            break
    measured_s = time.perf_counter() - t_start
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    t_check = time.perf_counter()
    bad = w.check()
    t_guard = time.perf_counter()
    guard = w.guard()
    t_done = time.perf_counter()
    failed = len(w.failures) + sum(bad.values())
    attempted = w.attempted
    load_end = hostinfo.load_sample()

    named = w.named()
    p50, tail = w.latency_metrics()
    values = {"setup_s": statistics.median(setup_s),
              "peak_rss_mb": peak_rss_mb,
              "work_per_s": named[w.aliases["work_per_s"]],
              "p50_ms": p50, "tail_ms": tail, "guard_rate": guard}
    named[w.aliases["guard_rate"]] = guard
    named["op_error_rate"] = failed / attempted
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "started": started,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "checks": bad, "op_failures": w.failures[:20],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()},
        "named": {k: {"value": v, "unit": _unit(k)}
                  for k, v in sorted(named.items())},
        "aliases": w.aliases, "tail_percentile": w.tail_p(),
        "rounds": r, "ops": w.ops, "measured_s": measured_s,
        "samples": w.samples, "round_ms": {"traced": traced_ms,
                                           "untraced": untraced_ms},
        "setup_samples_s": setup_s, "host_scale": scales,
        "phase_s": {"before_loop": t_start - t_begin, "loop": measured_s,
                    "check": t_guard - t_check, "guard": t_done - t_guard},
        "host": host, "load_start": load_start, "load_end": load_end,
        "steal_share": hostinfo.steal_share(load_start, load_end),
    }
    if tracer is not None:
        if getattr(w, "queue_wait", None):
            serve_totals["queue_wait_ms"] = (
                statistics.fmean(w.queue_wait) * 1e3)
        per_layer = layers.per_layer(tracer, traced_rounds, traced_ms,
                                     untraced_ms, setup_s[0] * 1e3,
                                     serve_totals)
        units = layers.metric_units()
        result["per_layer"] = {k: {"value": per_layer[k], "unit": units[k]}
                               for k in units}
        result["span_table"] = layers.span_table(tracer, traced_rounds)
        result["setup_span_table"] = layers.span_table(tracer, [SETUP])
        metrics = result["per_layer"]
    else:
        metrics = result["end_to_end"]

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-s{seed}-t{int(trace)}-"
                                 f"{int(started * 1000)}-{os.getpid()}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl.gz")

    print(f"# {workload} seed={seed} trace={int(trace)} rounds={r} "
          f"ops={w.ops} measured_s={measured_s:.3f} "
          f"blas_threads={host['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"steal={result['steal_share']} "
          f"host_scale={statistics.median(scales):.3f} result={stem}.json")
    for name, m in result["named"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
