"""Tests of the benchmark's own statistics: python3 servicebench/test_stats.py"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import stats  # noqa: E402


class PercentileChoice(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_segment_median_ignores_one_bad_segment(self):
        values = [1.0] * 3000
        values[500:520] = [100.0] * 20  # one stall inside the first segment
        self.assertEqual(stats.percentile(values, 99), 1.0)
        self.assertEqual(stats.percentile(values[:1000], 99), 100.0)
        self.assertEqual(stats.segment_percentile(values, 99), 1.0)
        self.assertEqual(stats.segment_percentile(values[:999], 50), 1.0)

    def test_segment_median_outlasts_a_long_stall(self):
        # A stall holds the first 40% of the chunks; a quarter of the rest
        # are slowed. The pooled median lands among the slowed chunks, the
        # median of 20-sample segment medians in the undisturbed ones.
        values = [100.0] * 400 + [2.0 if i % 4 == 0 else 1.0 for i in range(600)]
        self.assertEqual(stats.percentile(values, 50), 2.0)
        self.assertEqual(stats.segment_percentile(values, 50), 1.0)


class BurstCapacity(unittest.TestCase):
    def test_median_burst_rate(self):
        # Three bursts of 1000 arrivals; the host held the second one back.
        self.assertEqual(stats.burst_capacity([1000, 1000, 1000],
                                              [1.0, 4.0, 1.25]), 800.0)

    def test_needs_time(self):
        with self.assertRaises(ValueError):
            stats.burst_capacity([], [])
        with self.assertRaises(ValueError):
            stats.burst_capacity([1000], [0.0])


class FailureAccounting(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.failed_fraction(10, 0), 0.0)
        self.assertEqual(stats.failed_fraction(8, 2), 0.25)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_fraction(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_fraction(5, 6)
        with self.assertRaises(ValueError):
            stats.failed_fraction(5, -1)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class Verdict(unittest.TestCase):
    def test_improved_needs_nine_tenths_and_shift_beyond_spread(self):
        change = [v - 5 for v in PARENT]
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1), "improved")
        self.assertEqual(stats.verdict(PARENT, [v + 5 for v in PARENT],
                                       "higher", 0.1), "improved")

    def test_small_shift_is_no_worse(self):
        change = [v + 0.05 for v in PARENT]
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1), "no worse")

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(PARENT, change, "higher", 0.1), "improved")

    def test_too_few_wins_is_not_a_gain(self):
        change = [v - 5 for v in PARENT]
        change[0] = change[1] = 200.0  # two of ten pairs lost
        self.assertNotEqual(stats.verdict(PARENT, change, "lower", 0.1),
                            "improved")

    def test_more_failures_cancel_a_gain(self):
        change = [v - 5 for v in PARENT]
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1,
                                       parent_failed=0, change_failed=3),
                         "no worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        change = [v / 10 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1), "improved")
        self.assertEqual(stats.verdict(noisy, [v * 10 for v in noisy],
                                       "lower", 0.1), "worse")

    def test_unpaired_runs_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.verdict(PARENT, PARENT[:-1], "lower", 0.1)

    def test_fewer_than_ten_pairs_is_unresolved(self):
        change = [v - 5 for v in PARENT]
        self.assertEqual(stats.verdict(PARENT[:9], change[:9], "lower", 0.1),
                         "unresolved")
        self.assertEqual(stats.verdict(PARENT[:1], change[:1], "lower", 0.1),
                         "unresolved")

    def test_invalid_runs_are_pairs_not_won(self):
        change = [v - 5 for v in PARENT]
        change[3] = None  # nine of ten pairs won: still a gain
        self.assertEqual(stats.win_ratio(list(zip(PARENT, change)), "lower"),
                         (9, 10))
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1), "improved")
        change[7] = None  # eight of ten: not a gain
        self.assertEqual(stats.verdict(PARENT, change, "lower", 0.1), "no worse")
        parent = list(PARENT)
        parent[3] = None  # an invalid parent run is not a win either
        self.assertEqual(stats.win_ratio(list(zip(parent, change)), "lower"),
                         (8, 10))

    def test_no_valid_run_on_a_side_is_unresolved(self):
        self.assertEqual(stats.verdict(PARENT, [None] * 10, "lower", 0.1),
                         "unresolved")


def record(value, valid=True, failed=0):
    return {"end_to_end": {"m": value}, "failed": failed,
            "stamp": {"valid": valid}}


METRIC = [{"name": "m", "better": "lower", "bound": 0.1}]


class CompareRows(unittest.TestCase):
    def test_pairs_by_seed_and_counts_wins(self):
        parent = {"w": {s: record(10.0 + s * 0.01) for s in range(10)}}
        change = {"w": {s: record(8.0 + s * 0.01) for s in range(10)}}
        rows = compare.compare(parent, change, METRIC)
        self.assertEqual(len(rows), 1)
        workload, name, _, _, wins, pairs, verdict = rows[0]
        self.assertEqual((workload, name, wins, pairs, verdict),
                         ("w", "m", 10, 10, "improved"))

    def test_unpaired_and_invalid_runs_are_pairs_not_won(self):
        parent = {"w": {s: record(10.0 + s * 0.01) for s in range(10)}}
        change = {"w": {s: record(8.0 + s * 0.01) for s in range(10)}}
        change["w"][99] = record(1.0)          # run on one side only
        change["w"][4] = record(100.0, False)  # invalid run
        _, _, _, c_quartiles, wins, pairs, verdict = compare.compare(
            parent, change, METRIC)[0]
        self.assertEqual((wins, pairs, verdict), (9, 11, "no worse"))
        self.assertLess(c_quartiles[2], 100.0)  # invalid runs give no value

    def test_a_workload_run_on_one_side_only_is_unresolved(self):
        parent = {"w": {s: record(10.0) for s in range(10)}}
        rows = compare.compare(parent, {}, METRIC)
        self.assertEqual(rows[0][-1], "unresolved")


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_per_thread(self):
        spans = [
            {"thread": 1, "start": 0.0, "end": 10.0},   # parent
            {"thread": 1, "start": 1.0, "end": 3.0},    # child
            {"thread": 1, "start": 4.0, "end": 8.0},    # child
            {"thread": 1, "start": 5.0, "end": 6.0},    # grandchild
            {"thread": 2, "start": 2.0, "end": 9.0},    # other thread
        ]
        self.assertEqual(stats.self_times(spans), [4.0, 2.0, 3.0, 1.0, 7.0])


if __name__ == "__main__":
    unittest.main()
