"""Self-tests for the benchmark's own arithmetic.

    python3 perfbench/selftest.py

Covers span self time with nested and overlapping children, the
ten-beyond rule that picks the tail percentile, nearest-rank
percentiles, rates over per-input-set medians, quartile spread, and the
tracer's install/uninstall round trip.  Needs no library sources.
"""

from __future__ import annotations

import os
import sys
import types
import unittest

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench import stats  # noqa: E402
from perfbench.tracer import Probe, Tracer  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_nested_children(self):
        spans = [span("root", 0.0, 10.0),
                 span("child", 1.0, 3.0, parent=0),
                 span("grandchild", 1.5, 2.0, parent=1),
                 span("child2", 5.0, 6.0, parent=0)]
        self.assertEqual(stats.self_times(spans), [7.0, 1.5, 0.5, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, parent=0),
                 span("b", 3.0, 6.0, parent=0),
                 span("c", 2.0, 2.5, parent=0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 5.0)

    def test_child_past_parent_is_clipped(self):
        spans = [span("root", 0.0, 10.0), span("late", 8.0, 12.0, parent=0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 8.0)

    def test_covered_union(self):
        self.assertAlmostEqual(
            stats.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)], 0, 10), 4.0)
        self.assertEqual(stats.covered([(11, 12)], 0, 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_ten_beyond_rule(self):
        self.assertEqual(stats.beyond(95, 200), 10)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(210), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertIsNone(stats.tail_percentile(39))

    def test_every_choice_keeps_ten_beyond(self):
        for n in range(1, 2000):
            p = stats.tail_percentile(n)
            if p is not None:
                self.assertGreaterEqual(stats.beyond(p, n), 10)

    def test_nearest_rank(self):
        values = list(range(1, 201))            # 1..200
        self.assertEqual(stats.percentile(values, 50), 100)
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertEqual(stats.percentile(values[::-1], 95), 190)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Rates(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.rate(640, 2.0), 320.0)
        with self.assertRaises(ValueError):
            stats.rate(1, 0.0)

    def test_median_repetition_per_input_set(self):
        samples = [(0, 64, 1.0), (1, 64, 3.0), (0, 64, 0.8), (1, 64, 2.0),
                   (0, 64, 5.0)]
        # set 0: median of 1.0, 0.8, 5.0 is 1.0; set 1: of 3.0, 2.0 is 2.5
        self.assertAlmostEqual(stats.batch_rate(samples), 128 / 3.5)

    def test_repeating_one_set_more_does_not_weigh_it(self):
        fast, slow = (0, 10, 1.0), (1, 10, 4.0)
        self.assertEqual(stats.batch_rate([fast, slow]),
                         stats.batch_rate([fast, fast, fast, slow]))


class Spread(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual(med, 3.5)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_constant_and_single(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))


def _twice(x):
    return 2 * x


class TracerRoundTrip(unittest.TestCase):
    def test_install_wraps_and_uninstall_restores(self):
        mod = types.ModuleType("repro_selftest_mod")
        mod.twice = _twice
        sys.modules[mod.__name__] = mod
        try:
            tr = Tracer([Probe("site", mod.__name__, "twice",
                               lambda t, orig: t.wrap(orig, "twice"))])
            tr.install()
            tr.round = 3
            self.assertEqual(mod.twice(4), 8)
            tr.round = None
            tr.uninstall()
            self.assertIs(mod.twice, _twice)
            self.assertEqual(tr.table([3])["twice"]["calls"], 1)
        finally:
            del sys.modules[mod.__name__]


if __name__ == "__main__":
    unittest.main()
