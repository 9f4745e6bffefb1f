"""Resident-memory ledger of one perfbench workload, stage by stage.

    python3 scripts/rss_ledger.py --workload edge_int8 [--seed 0]

Run from the root of a checkout, on Linux (it reads ``VmRSS`` and
``VmHWM`` from ``/proc/self/status``).  BLAS runs single-threaded, as
in ``perfbench/run.py``, with the float32 default dtype and the heap
collections ``perfbench/worker.py`` makes.  It walks the stages the
benchmark runs in and prints one row per stage, in MB:

- ``interpreter+numpy``: RSS after ``import numpy``;
- ``repro imports``: RSS added by importing the workload module, which
  imports ``repro`` and every subpackage;
- ``setup transient``: how far the high-water mark rose during
  ``setup()`` (models, calibration, compiled plans) above the RSS it
  started from, and ``setup retained``: what setup left resident;
- ``steady state``: RSS after ``prepare()`` and three rounds;
- ``peak``: the high-water mark at the end, the figure ``peak_rss_mb``
  approximates.

It ends with one line per float model the workload holds: how many
compiled float programs the model's store holds for it (one per input
shape and dtype, shared by every attack and predict on the model) and
their planned arena + pre-filled padding MB; then one line per int8
edge model: its compiled programs and the scratch slab MB of each of
its two lanes (the calling thread's and the lane thread's): slab +
pads MB.

Every ``quantization.calibrate`` call during setup, and every
``compile_forward``, ``compile_train_step`` and int8 edge program build
(``EdgeModel._build_program``: lowering, one compiled run and the eager
reference it is checked against) during setup and the rounds, also
prints the high-water mark before and after it; an edge build also
prints the peak of the allocations it made, its temporaries.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field} not in /proc/self/status")


def rss() -> float:
    return _status_mb("VmRSS")


def hwm() -> float:
    return _status_mb("VmHWM")


def watch(owner, name: str, allocs: bool = False) -> None:
    """Wrap ``owner.name`` so each call prints VmHWM before and after;
    with ``allocs``, also the peak of the numpy and Python allocations
    made during the call (``tracemalloc``), which shows its temporaries
    even when they stay under an earlier high-water mark."""
    fn = getattr(owner, name)

    def watched(*a, **kw):
        before = hwm()
        if allocs:
            tracemalloc.start()
        try:
            return fn(*a, **kw)
        finally:
            line = f"{name}: VmHWM {before:.1f} -> {hwm():.1f} MB"
            if allocs:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                line += f", allocation peak {peak:.1f} MB"
            print(line)

    setattr(owner, name, watched)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=3)
    args = p.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.hostinfo import THREAD_VARS     # does not load numpy
    for var in THREAD_VARS:
        os.environ[var] = "1"

    rows = []
    base = rss()
    import numpy as np
    rows.append(("interpreter+numpy", rss()))
    numpy_rss = rss()
    from perfbench import workloads
    from repro import nn, quantization
    from repro.edge import EdgeModel
    from repro.nn import Module, graph, train_graph
    from repro.serve.cache import model_programs
    rows.append(("repro imports", rss() - numpy_rss))
    nn.set_default_dtype(np.float32)

    calibrate = quantization.calibrate
    watch(quantization, "calibrate")
    # every compile entry point reaches these module globals
    watch(graph, "compile_forward")
    watch(train_graph, "compile_train_step")
    watch(EdgeModel, "_build_program", allocs=True)
    w = workloads.WORKLOADS[args.workload](args.seed)
    gc.collect()
    start = rss()
    w.setup()
    quantization.calibrate = calibrate
    rows.append(("setup transient", hwm() - start))
    gc.collect()
    rows.append(("setup retained", rss() - start))
    w.prepare()
    for r in range(args.rounds):
        if w.collect_each_round:
            gc.collect()
        w.run_round(r % w.batches, record=False)
    rows.append(("steady state", rss()))
    rows.append(("peak", hwm()))
    print(f"{args.workload} (process start {base:.1f} MB)")
    for name, mb in rows:
        print(f"  {name:<18} {mb:7.1f} MB")
    seen = set()

    def programs(model, kind):
        return [p for p in model_programs(model, kind).values()
                if p is not None]

    for name, model in vars(w).items():
        if not isinstance(model, Module) or id(model) in seen:
            continue
        seen.add(id(model))
        progs = programs(model, "nn-forward")
        arena = sum(p.arena_bytes()[0] for p in progs) / 2**20
        fill = sum(p.fill_bytes() for p in progs) / 2**20
        print(f"  model {name} ({type(model).__name__}): {len(progs)} "
              f"float programs, arena {arena:.1f} + fill {fill:.1f} MB")
    for name, model in vars(w).items():
        if not isinstance(model, EdgeModel) or id(model) in seen:
            continue
        seen.add(id(model))
        progs = programs(model, "edge")
        lanes = ", ".join(
            f"{p._arena.nbytes / 2**20:.2f} + "
            f"{sum(b.nbytes for b in p._bufs.values()) / 2**20:.2f}"
            for p in model._pools or ())
        print(f"  model {name} (EdgeModel): {len(progs)} edge programs, "
              f"lane scratch {lanes or 0} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
