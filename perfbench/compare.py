"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each argument is a directory of result files written by
``perfbench/run.py --out-dir``.  Per workload and metric the tool prints
each set's median and quartiles, the interquartile spread as a share of
the median, and, given two sets, how far B's median moved from A's in
the metric's worse direction against the bound ``BENCHMARK.json`` fixes:

- ``worse``/``better``: the move exceeds the bound;
- ``same``: it does not;
- ``unresolved``: a set's own spread exceeds the bound, so a move within
  it cannot be told from noise (unless every B run beats every A run).

The workload-named figures in the result files (``diva_adv_per_s``,
``serve_p95_ms``, ...) are compared too, under the bound of the generic
metric with the same unit.  Exits 1 when any metric reads ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(HERE))

from perfbench import stats  # noqa: E402

#: generic metric whose bound and direction a named figure borrows, by unit
BORROW = {"1/s": "work_per_s", "ms": "p50_ms", "ratio": "guard_rate",
          "s": "setup_s", "MB": "peak_rss_mb"}


def load_spec() -> Dict[str, Dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values]}}`` over the untraced results."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        if res.get("trace"):
            continue
        per = out.setdefault(res["workload"], {})
        for section in ("end_to_end", "named"):
            for name, m in res[section].items():
                key = name if section == "end_to_end" else f"~{name}"
                per.setdefault(key, []).append(float(m["value"]))
                per.setdefault(f"unit:{key}", m["unit"])
    return out


def rule(metric: str, unit: str, spec: Dict[str, Dict]) -> Tuple[float, str]:
    """(bound, better) for a generic metric or a named figure."""
    if metric in spec:
        return spec[metric]["bound"], spec[metric]["better"]
    if metric == "~op_error_rate":
        return 0.0, "lower"
    base = spec.get(BORROW.get(unit, ""), {"bound": 0.0, "better": "lower"})
    return base["bound"], base["better"]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else (1.0 if (b > a) == (better == "lower")
                                   else -1.0)
    move = (b - a) / abs(a)
    return move if better == "lower" else -move


def verdict(a: List[float], b: List[float], bound: float, better: str
            ) -> Tuple[str, float]:
    qa, qb = stats.quartiles(a), stats.quartiles(b)
    w = worse_by(qa[1], qb[1], better)
    if stats.spread(a) > bound or stats.spread(b) > bound:
        if better == "lower":
            clear_better, clear_worse = max(b) < min(a), min(b) > max(a)
        else:
            clear_better, clear_worse = min(b) > max(a), max(b) < min(a)
        if not (clear_better or clear_worse):
            return "unresolved", w
    if w > bound:
        return "worse", w
    if -w > bound:
        return "better", w
    return "same", w


def fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_runs(d) for d in argv]
    status = 0
    for wl in sorted(set().union(*sets)):
        print(f"== {wl}  (runs: " + ", ".join(
            str(len(s.get(wl, {}).get("setup_s", []))) for s in sets) + ")")
        metrics = [k for k in sets[0].get(wl, {}) if not k.startswith("unit:")]
        for metric in metrics:
            unit = sets[0][wl][f"unit:{metric}"]
            bound, better = rule(metric, unit, spec)
            a = sets[0][wl][metric]
            line = (f"  {metric:24s} {unit:6s} A {fmt(stats.quartiles(a))} "
                    f"spread {stats.spread(a):.3f}")
            if len(sets) == 2:
                b = sets[1].get(wl, {}).get(metric)
                if not b:
                    line += "  B missing"
                else:
                    v, w = verdict(a, b, bound, better)
                    line += (f" | B {fmt(stats.quartiles(b))} spread "
                             f"{stats.spread(b):.3f} | worse by {w:+.3f} "
                             f"(bound {bound}) {v}")
                    status = status or int(v == "worse")
            else:
                ok = "ok" if stats.spread(a) <= bound / 3 else (
                    "within bound" if stats.spread(a) <= bound else "WIDE")
                line += f" (bound {bound}) {ok}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
