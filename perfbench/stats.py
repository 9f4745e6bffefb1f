"""Arithmetic shared by the benchmark: percentiles, rates, spreads and
span self time.  Pure Python, no numpy, so the self-tests run anywhere.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: percentiles a tail metric may use, highest first
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 80.0, 75.0)

#: samples a percentile must have beyond it before it may be reported
MIN_BEYOND = 10


def rank_of(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank_of(p, len(ordered)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples strictly past the nearest-rank ``p`` percentile."""
    return n - rank_of(p, n)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond
    it in a sample of ``n``, or None when even the lowest has fewer."""
    for p in TAIL_CANDIDATES:
        if beyond(p, n) >= MIN_BEYOND:
            return p
    return None


def rate(count: float, seconds: float) -> float:
    """Work per second; refuses an empty or negative interval."""
    if seconds <= 0:
        raise ValueError(f"rate over a non-positive interval ({seconds}s)")
    return count / seconds


def batch_rate(samples: Sequence[Sequence]) -> float:
    """Work per second from ``(input set, units, seconds, ...)`` samples.

    Each input set contributes its units and its *median* duration, so a
    stretch of host contention on a few repetitions does not move the
    figure, and a run that happened to repeat one input set more often
    than another does not weigh it more.
    """
    by_set: Dict[Any, List[Sequence]] = {}
    for s in samples:
        by_set.setdefault(s[0], []).append(s)
    units = sum(statistics.median(s[1] for s in v) for v in by_set.values())
    seconds = sum(statistics.median(s[2] for s in v)
                  for v in by_set.values())
    return rate(units, seconds)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for constants)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    A span is ``(name, start, end, parent, ...)`` where ``parent`` is the
    index of the enclosing span in ``spans`` or -1.  Children that
    overlap each other are counted once; a child that runs past its
    parent is clipped to the parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        kids = children.get(i)
        out.append(dur - covered(kids, s[1], s[2]) if kids else dur)
    return out
