"""Tests of steady.py's quartile, spread and comparator logic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import steady  # noqa: E402


class QuartileTests(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = steady.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_exclusive_method_on_ten_values(self):
        # Exclusive quartiles of 1..10 sit at ranks 2.75 and 8.25.
        q1, med, q3 = steady.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(steady.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(steady.spread([2.0] * 10), 0.0)
        self.assertEqual(steady.spread([0.0] * 10), float("inf"))


class ComparatorTests(unittest.TestCase):
    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(steady.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(steady.worse_by(100.0, 90.0, "lower"), -0.10)
        self.assertAlmostEqual(steady.worse_by(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(steady.worse_by(100.0, 110.0, "higher"), -0.10)

    def test_verdict_applies_bound_to_every_metric(self):
        metric = {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}
        tight = [100.0 + i * 0.1 for i in range(10)]
        wide = [50.0, 150.0] * 5
        self.assertTrue(steady.verdict(metric, tight)[1])
        self.assertTrue(steady.verdict(metric, tight)[0]["steady"])
        self.assertFalse(steady.verdict(metric, wide)[1])
        setup = dict(metric, name="setup_s")
        self.assertFalse(steady.verdict(setup, wide)[1], "setup_s keeps the spread rule")
        self.assertTrue(steady.verdict(setup, tight)[1])

    def test_verdict_compares_medians_with_earlier_runs(self):
        metric = {"name": "throughput_ops_s", "unit": "1/s", "better": "higher",
                  "bound": 0.1}
        earlier = [100.0] * 10
        self.assertTrue(steady.verdict(metric, [95.0] * 10, earlier)[1])
        self.assertFalse(steady.verdict(metric, [85.0] * 10, earlier)[1])
        self.assertTrue(steady.verdict(metric, [150.0] * 10, earlier)[1])


class DetailTests(unittest.TestCase):
    def test_hit_share_and_summary(self):
        self.assertAlmostEqual(
            steady.hit_share({"timed_cache_hits": 30, "timed_cache_lookups": 120}), 0.25)
        self.assertIsNone(steady.hit_share({}))
        runs = [{"detail": {"solve_hit_share": 0.5 + i / 100, "timed_cache_hits": 10,
                            "timed_cache_lookups": 40, "timed_cache_evictions": 100 + i}}
                for i in range(10)]
        names = [line.split()[0] for line in steady.detail_summary(runs)]
        self.assertEqual(names, ["solve_hit_share", "cache_hit_share", "cache_evictions"])
        self.assertEqual(steady.detail_summary([{"setup_s": 1.0}] * 3), [])


if __name__ == "__main__":
    unittest.main()
