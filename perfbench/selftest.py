"""Checks of the benchmark's own arithmetic on hand-built inputs.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import LAYER_METRICS  # noqa: E402
from stats import (  # noqa: E402
    inclusive_times,
    median,
    percentile,
    self_times,
    summarize,
    tail_percentile,
    union_length,
)


def span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "name": name}


class MedianAndTail(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(median([7.0]), 7.0)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            median([])

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(19))     # 9.5 beyond p50
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)   # 9.9 beyond p90
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))       # 1..100
        self.assertEqual(percentile(values, 90.0), 90.0)
        self.assertEqual(percentile(values, 50.0), 50.0)
        self.assertEqual(percentile([5.0, 1.0], 50.0), 1.0)
        self.assertEqual(percentile([5.0, 1.0], 99.0), 5.0)

    def test_summary_states_count_and_quotable_tail(self):
        few = summarize([2.0, 1.0, 3.0])
        self.assertEqual(few, {"n": 3, "median": 2.0})
        many = summarize([float(v) for v in range(1, 101)])
        self.assertEqual(many["n"], 100)
        self.assertEqual(many["median"], 50.5)
        self.assertEqual(many["tail_p"], 90.0)
        self.assertEqual(many["tail"], 90.0)


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 2), (1, 3)]), 3.0)
        self.assertEqual(union_length([(0, 1), (2, 3)]), 2.0)
        self.assertEqual(union_length([(0, 4), (1, 2)]), 4.0)
        self.assertEqual(union_length([(0, 1), (1, 2)]), 2.0)
        self.assertEqual(union_length([(3, 3), (5, 4)]), 0.0)

    def test_leaf_self_time_is_its_duration(self):
        times = self_times([span(1, None, 0.0, 5.0)])
        self.assertEqual(times, {1: 5.0})

    def test_nested_children_subtract_once_per_level(self):
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 6.0),
            span(3, 2, 2.0, 3.0),   # grandchild: subtracted from 2 only
            span(4, 1, 7.0, 8.0),
        ]
        times = self_times(spans)
        self.assertEqual(times, {1: 4.0, 2: 4.0, 3: 1.0, 4: 1.0})
        self.assertEqual(sum(times.values()), 10.0)

    def test_overlapping_children_subtract_their_union(self):
        # two concurrent worker tasks under one parent span
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 6.0),
            span(3, 1, 4.0, 9.0),
        ]
        times = self_times(spans)
        self.assertEqual(times[1], 2.0)          # 10 - |[1, 9]|
        self.assertEqual(times[2], 5.0)
        self.assertEqual(times[3], 5.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span(1, None, 2.0, 4.0), span(2, 1, 3.0, 9.0)]
        self.assertEqual(self_times(spans)[1], 1.0)

    def test_inclusive_time_skips_same_name_ancestors(self):
        spans = [
            span(1, None, 0.0, 10.0, "a"),
            span(2, 1, 1.0, 5.0, "b"),
            span(3, 2, 2.0, 4.0, "a"),    # nested inside another "a"
            span(4, None, 20.0, 21.0, "a"),
        ]
        self.assertEqual(inclusive_times(spans), {"a": 11.0, "b": 4.0})


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_list_matches_what_a_traced_run_reports(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            listed = json.load(fh)["per_layer"]
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in listed],
            [(name, unit, better)
             for name, (unit, better) in LAYER_METRICS.items()],
        )


if __name__ == "__main__":
    unittest.main()
