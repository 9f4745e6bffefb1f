"""Render perfbench result sets as markdown tables.

    python3 scripts/bench_report.py RUNS [RUNS ...] [--labels A,B,...]

Each RUNS is a directory of result files written by ``perfbench/run.py
--out-dir``; the first is the baseline.  Per workload the report prints
one markdown table with a row per metric.  Every set gets its median
with quartiles and its interquartile spread; every later set also gets
how far its median moved from the baseline's in the metric's worse
direction, and ``perfbench/compare.py``'s verdict against the bound
``BENCHMARK.json`` fixes.  Moves beyond the bound (``worse``/``better``)
are flagged in bold.  Exits 1 when any move reads ``worse``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench import compare, stats  # noqa: E402

#: verdicts that mean the move exceeds the bound
FLAGGED = ("worse", "better")


def _runs(per_workload: Dict) -> int:
    """Result files behind one set's figures for one workload."""
    return max((len(v) for k, v in per_workload.items()
                if not k.startswith("unit:")), default=0)


def table(workload: str, sets: Sequence[Dict], labels: Sequence[str],
          spec: Dict[str, Dict]) -> Tuple[List[str], List[str]]:
    """Markdown lines for one workload, and every verdict in them."""
    per = [s.get(workload, {}) for s in sets]
    # metric order and units follow the first set that ran the workload
    ref = next(p for p in per if p)
    head = ["metric", "unit"]
    for i, label in enumerate(labels):
        head += [f"{label} median [q1, q3]", "spread"]
        if i:
            head += ["worse by", "verdict"]
    runs = ", ".join(f"{label} {_runs(p)}" for label, p in zip(labels, per))
    lines = [f"### {workload}", "", f"Runs: {runs}.", "",
             "| " + " | ".join(head) + " |",
             "|" + "|".join("---" if i < 2 else "---:"
                            for i in range(len(head))) + "|"]
    verdicts: List[str] = []
    for metric in (k for k in ref if not k.startswith("unit:")):
        unit = ref[f"unit:{metric}"]
        bound, better = compare.rule(metric, unit, spec)
        base: Optional[List[float]] = per[0].get(metric)
        row = [f"`{metric}`", unit]
        for i, p in enumerate(per):
            vals = p.get(metric)
            row += ([compare.fmt(stats.quartiles(vals)),
                     f"{stats.spread(vals):.3f}"] if vals else ["missing", ""])
            if not i:
                continue
            if vals and base:
                v, w = compare.verdict(base, vals, bound, better)
                verdicts.append(v)
                row += [f"{w:+.3f} (bound {bound})",
                        f"**{v}**" if v in FLAGGED else v]
            else:
                row += ["", ""]
        lines.append("| " + " | ".join(row) + " |")
    return lines + [""], verdicts


def render(dirs: Sequence[str], labels: Sequence[str]
           ) -> Tuple[List[str], List[str]]:
    """The report's lines and every verdict in it."""
    spec = compare.load_spec()
    sets = [compare.load_runs(d) for d in dirs]
    lines: List[str] = []
    verdicts: List[str] = []
    for wl in sorted(set().union(*sets)):
        more, vs = table(wl, sets, labels, spec)
        lines += more
        verdicts += vs
    return lines, verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", help="perfbench result directories")
    p.add_argument("--labels", help="comma-separated set names "
                   "(default: the directory names)")
    args = p.parse_args(argv)
    labels = (args.labels.split(",") if args.labels else
              [os.path.basename(os.path.normpath(d)) for d in args.dirs])
    if len(labels) != len(args.dirs):
        p.error("need one label per result directory")
    lines, verdicts = render(args.dirs, labels)
    print("\n".join(lines))
    return int("worse" in verdicts)


if __name__ == "__main__":
    sys.exit(main())
