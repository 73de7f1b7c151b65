"""Tests of the benchmark's statistics helpers, with hand-computed fixtures.

Run from the repository root: python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40]
        # position (4-1)*p: p50 -> 1.5 -> 25; p90 -> 2.7 -> 37; p0/p100 ends
        self.assertAlmostEqual(stats.percentile(xs, 50), 25.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 37.0)
        self.assertEqual(stats.percentile(xs, 0), 10)
        self.assertEqual(stats.percentile(xs, 100), 40)

    def test_order_does_not_matter(self):
        self.assertAlmostEqual(stats.percentile([3, 1, 2], 50), 2.0)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.5], 95), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class QuartileTest(unittest.TestCase):
    def test_exclusive_method(self):
        # statistics.quantiles exclusive method on 1..10: positions
        # (n+1)*k/4 = 2.75, 5.5, 8.25 -> 2.75, 5.5, 8.25
        q1, q2, q3 = stats.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        # (8.25 - 2.75) / 5.5 = 1.0
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 1.0)
        # ten equal values -> no spread
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


class SumOfMediansTest(unittest.TestCase):
    def test_sums_each_steps_median(self):
        rounds = [[1.0, 10.0], [3.0, 30.0], [2.0, 90.0]]
        # step medians 2 and 30; a slow step in one round does not count
        self.assertAlmostEqual(stats.sum_of_medians(rounds), 32.0)

    def test_picks_columns(self):
        rounds = [[1.0, 10.0, 4.0], [3.0, 20.0, 6.0]]
        # medians 2, 15, 5; columns 0 and 2 -> 7
        self.assertAlmostEqual(stats.sum_of_medians(rounds, [0, 2]), 7.0)

    def test_one_step_is_the_median(self):
        self.assertAlmostEqual(
            stats.sum_of_medians([[4.0], [1.0], [9.0], [2.0]]), 3.0)

    def test_rejects_empty_and_ragged(self):
        with self.assertRaises(ValueError):
            stats.sum_of_medians([])
        with self.assertRaises(ValueError):
            stats.sum_of_medians([[1.0, 2.0], [1.0]])


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        xs = list(range(1, 201))  # 200 samples
        # p99 = 198.01: 2 above; p95 = 190.05: 10 above (191..200)
        self.assertEqual(stats.tail(xs), (95.0, stats.percentile(xs, 95)))

    def test_falls_back_to_lower_percentile(self):
        xs = list(range(1, 41))  # 40 samples
        # p95 = 38.05: 2 above; p90 = 36.1: 4 above; p75 = 30.25: 10 above
        pct, value = stats.tail(xs)
        self.assertEqual(pct, 75.0)
        self.assertAlmostEqual(value, 30.25)

    def test_none_when_too_few_samples(self):
        # p50 of 1..15 is 8: only 7 samples beyond it
        self.assertIsNone(stats.tail(list(range(1, 16))))

    def test_ties_do_not_count_as_beyond(self):
        # 30 equal samples: nothing lies strictly above any percentile
        self.assertIsNone(stats.tail([5.0] * 30))


def span(id_, parent, start, end, name="x.y"):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name}


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        self.assertEqual(stats.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_counted_once(self):
        # children cover [10,40) and [30,50): union 40
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50)]
        self.assertEqual(stats.self_times(spans)[0], 60)

    def test_child_clipped_to_parent(self):
        # a child recorded past its parent's end covers only [90,100)
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 0, 20)]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 30, 2: 20})

    def test_layer_sums(self):
        spans = [span(0, -1, 0, 100, "core.query"),
                 span(1, 0, 0, 40, "exec.execute"),
                 span(2, 0, 40, 60, "optimizer.plan"),
                 span(3, -1, 200, 210, "exec.inset")]
        self.assertEqual(stats.layer_self_times(spans),
                         {"core": 40, "exec": 50, "optimizer": 20})


if __name__ == "__main__":
    unittest.main()
