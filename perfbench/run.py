"""Benchmark entry point.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload whitebox_diva --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; both end with a one-line JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (host block, load and steal samples, workload-named figures,
check outcomes, span tables) is written under ``--out-dir``.
``--workload all`` runs every workload, each in a fresh process.

BLAS runs single-threaded (``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``
are set here, before numpy is imported, and recorded in the result):
the loops are serial, and one BLAS thread measured both faster and
steadier than two on a 2-CPU host.

Compare two sets of runs with ``perfbench/compare.py``; check the
benchmark's own arithmetic with ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: ``perfbench.workloads.WORKLOADS`` keys, listed here because that module
#: imports numpy, which must not load before the thread variables are set
WORKLOAD_NAMES = ("whitebox_diva", "serve_mixed", "edge_int8",
                  "surrogate_distill")
BLAS_THREADS = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=os.path.join(HERE, "runs"))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace),
                 "--out-dir", args.out_dir], check=False)
            code = code or proc.returncode
        return code
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    sys.path[:0] = [ROOT, SRC]
    from perfbench.hostinfo import THREAD_VARS     # does not load numpy
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    from perfbench import worker
    return worker.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
