#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py (run by the CI lint job)."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402

TOOL = Path(__file__).resolve().parent / "bench_compare.py"


def result(report, stats=None, digest="0123456789abcdef"):
    data = {"stamp": {"git_sha": "abc", "build_type": "Release", "nproc": 4,
                      "repetitions": 5, "load_avg_before": [0.5, 0.4, 0.3]},
            "binary": "bench_fake", "report": report}
    if digest is not None:
        data["stamp"]["source_digest"] = digest
    if stats is not None:
        data["report_stats"] = stats
    return data


def spread(*runs):
    return {"min": min(runs), "median": sorted(runs)[len(runs) // 2],
            "stdev": None, "runs": list(runs)}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def run_tool(self, old, new):
        paths = []
        for name, data in (("old.json", old), ("new.json", new)):
            path = self.root / name
            path.write_text(data if isinstance(data, str)
                            else json.dumps(data))
            paths.append(str(path))
        return subprocess.run([sys.executable, str(TOOL), *paths],
                              capture_output=True, text=True, check=False)

    def test_shared_keys_get_old_new_and_ratio(self):
        rows = bench_compare.compare(
            result({"a_ms": 10.0, "b_bytes": 4.0, "winner": "exact",
                    "old_only": 1.0}),
            result({"a_ms": 2.0, "b_bytes": 4.0, "winner": "sampled",
                    "new_only": 1.0}))
        self.assertEqual(rows, [
            ("a_ms", 10.0, 2.0, 0.2, ""),
            ("b_bytes", 4.0, 4.0, 1.0, ""),
            ("winner", "exact", "sampled", None, ""),
        ])

    def test_marks_a_median_outside_the_old_range(self):
        old = result({"fast": 10.0, "same": 10.0, "slow": 10.0},
                     {"fast": spread(9.0, 10.0, 11.0),
                      "same": spread(9.0, 10.0, 11.0),
                      "slow": spread(9.0, 10.0, 11.0)})
        new = result({"fast": 5.0, "same": 10.5, "slow": 12.0},
                     {"fast": spread(4.0, 5.0, 6.0),
                      "same": spread(10.0, 10.5, 11.0),
                      "slow": spread(11.5, 12.0, 13.0)})
        marks = {row[0]: row[4] for row in bench_compare.compare(old, new)}
        self.assertEqual(marks, {"fast": "below", "same": "", "slow": "above"})

    def test_no_marks_without_stats_on_both_sides(self):
        old = result({"x": 10.0}, {"x": spread(9.0, 10.0, 11.0)})
        new = result({"x": 50.0})
        self.assertEqual(bench_compare.compare(old, new),
                         [("x", 10.0, 50.0, 5.0, "")])

    def test_report_only_exit_zero_on_any_numbers(self):
        old = result({"x": 1.0, "zero": 0.0}, {"x": spread(1.0, 1.0)})
        new = result({"x": 100.0, "zero": 3.0}, {"x": spread(100.0, 100.0)})
        proc = self.run_tool(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("sha=abc", proc.stdout)
        x_line = next(line for line in proc.stdout.splitlines()
                      if line.startswith("x "))
        self.assertEqual(x_line.split(), ["x", "1", "100", "100.000", "above"])
        zero_line = next(line for line in proc.stdout.splitlines()
                         if line.startswith("zero "))
        # No ratio against a zero old value.
        self.assertEqual(zero_line.split(), ["zero", "0", "3", "-"])

    def test_stamp_lines_show_the_source_digest(self):
        proc = self.run_tool(result({"a": 1.0}, digest=None),
                             result({"a": 1.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        old_line, new_line = proc.stdout.splitlines()[:2]
        # A file written before stamps carried a digest shows "src=?".
        self.assertIn(" src=? ", old_line)
        self.assertIn(" src=0123456789abcdef ", new_line)

    def test_lists_keys_on_one_side(self):
        proc = self.run_tool(result({"a": 1.0, "gone": 2.0}),
                             result({"a": 1.0, "added": 3.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("only in old: gone", proc.stdout)
        self.assertIn("only in new: added", proc.stdout)

    def test_malformed_input_exits_two(self):
        good = result({"a": 1.0})
        for bad in ("not json", json.dumps([1, 2]), json.dumps({"x": 1}),
                    json.dumps(result({"a": 1.0}, {"a": {"runs": []}}))):
            proc = self.run_tool(good, bad)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertIn("error:", proc.stderr)
        proc = subprocess.run([sys.executable, str(TOOL),
                               str(self.root / "missing.json"),
                               str(self.root / "missing.json")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)

    def test_committed_bench_files_compare_cleanly(self):
        repo = Path(__file__).resolve().parent.parent
        for path in sorted(repo.glob("BENCH_*.json")):
            proc = subprocess.run(
                [sys.executable, str(TOOL), str(path), str(path)],
                capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 0, f"{path}: {proc.stderr}")
            self.assertNotIn("above", proc.stdout)
            self.assertNotIn("below", proc.stdout)


if __name__ == "__main__":
    unittest.main()
