#!/usr/bin/env python3
"""Self-test for tools/bench_to_json.py (run by the CI lint job).

Builds a throwaway build tree around a stand-in "bench binary" (a shell
script printing #KV lines) and checks the stamp, the build-type lookup,
the non-Release refusal and the --repetitions statistics.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_to_json  # noqa: E402

TOOL = Path(__file__).resolve().parent / "bench_to_json.py"


class BenchToJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "bench").mkdir()
        self.binary = self.root / "bench" / "bench_fake"
        self.binary.write_text("#!/bin/sh\necho '#KV answer 42'\n")
        self.binary.chmod(0o755)

    def tearDown(self):
        self._tmp.cleanup()

    def write_cache(self, build_type):
        (self.root / "CMakeCache.txt").write_text(
            "QB5000_METRICS:BOOL=ON\n"
            f"CMAKE_BUILD_TYPE:STRING={build_type}\n"
        )

    def run_tool(self, *extra):
        out = self.root / "out.json"
        proc = subprocess.run(
            [sys.executable, str(TOOL), str(self.binary), "--out", str(out),
             *extra],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(out.read_text()) if out.exists() else None
        return proc, result

    def test_empty_build_type_means_release(self):
        self.write_cache("")
        self.assertEqual(bench_to_json.build_type(str(self.binary)), "Release")

    def test_build_type_read_from_enclosing_tree(self):
        self.write_cache("RelWithDebInfo")
        self.assertEqual(
            bench_to_json.build_type(str(self.binary)), "RelWithDebInfo"
        )

    def test_stamp_records_what_was_measured(self):
        self.write_cache("Release")
        proc, result = self.run_tool()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        stamp = result["stamp"]
        self.assertEqual(stamp["build_type"], "Release")
        self.assertEqual(stamp["nproc"], len(os.sched_getaffinity(0)))
        self.assertEqual(len(stamp["load_avg_before"]), 3)
        self.assertEqual(len(stamp["load_avg_after"]), 3)
        self.assertIn("git_sha", stamp)
        self.assertEqual(result["report"], {"answer": 42.0})

    def test_non_release_build_is_refused(self):
        self.write_cache("Debug")
        proc, result = self.run_tool()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("Debug build", proc.stderr)
        self.assertIsNone(result)

    def test_non_release_build_allowed_by_flag(self):
        self.write_cache("Debug")
        proc, result = self.run_tool("--allow-non-release")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(result["stamp"]["build_type"], "Debug")

    def write_varying_binary(self):
        """A stand-in whose #KV answer is 1, then 5, then 3 on later runs."""
        counter = self.root / "runs"
        self.binary.write_text(
            "#!/bin/sh\n"
            f"n=$(cat '{counter}' 2>/dev/null || echo 0)\n"
            "n=$((n + 1))\n"
            f"echo $n > '{counter}'\n"
            "case $n in 1) v=1;; 2) v=5;; *) v=3;; esac\n"
            "echo \"#KV answer $v\"\n"
            "echo \"#KV label run$n\"\n"
        )

    def test_repetitions_report_median_and_spread(self):
        self.write_cache("Release")
        self.write_varying_binary()
        proc, result = self.run_tool("--repetitions", "3")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(result["stamp"]["repetitions"], 3)
        self.assertEqual(result["report"]["answer"], 3.0)
        self.assertEqual(
            result["report_stats"]["answer"],
            {"min": 1.0, "median": 3.0, "stdev": 2.0,
             "runs": [1.0, 5.0, 3.0]},
        )
        # A string key keeps the last run's value and has no statistics.
        self.assertEqual(result["report"]["label"], "run3")
        self.assertNotIn("label", result["report_stats"])

    def test_single_run_has_no_stdev(self):
        self.write_cache("Release")
        proc, result = self.run_tool()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(result["stamp"]["repetitions"], 1)
        self.assertEqual(
            result["report_stats"]["answer"],
            {"min": 42.0, "median": 42.0, "stdev": None, "runs": [42.0]},
        )

    def test_zero_repetitions_is_refused(self):
        self.write_cache("Release")
        proc, result = self.run_tool("--repetitions", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("--repetitions", proc.stderr)
        self.assertIsNone(result)

    def test_benchmarks_combine_by_name(self):
        def entry(name, real, cpu):
            return {"name": name, "real_time": real, "cpu_time": cpu,
                    "time_unit": "ns", "iterations": 10,
                    "items_per_second": None}
        runs = [
            [entry("BM_A", 10.0, 9.0), entry("BM_B", 1.0, 1.0)],
            [entry("BM_A", 30.0, 8.0), entry("BM_B", 3.0, 2.0)],
            [entry("BM_A", 20.0, 7.0), entry("BM_B", 2.0, 3.0)],
        ]
        medians, stats = bench_to_json.combine_benchmarks(runs)
        self.assertEqual([e["name"] for e in medians], ["BM_A", "BM_B"])
        self.assertEqual(medians[0]["real_time"], 20.0)
        self.assertEqual(medians[0]["cpu_time"], 8.0)
        self.assertIsNone(medians[0]["items_per_second"])
        self.assertEqual(stats["BM_A"]["real_time"]["min"], 10.0)
        self.assertEqual(stats["BM_A"]["real_time"]["stdev"], 10.0)
        self.assertEqual(stats["BM_B"]["cpu_time"]["runs"], [1.0, 2.0, 3.0])
        self.assertNotIn("items_per_second", stats["BM_A"])

    def test_binary_outside_a_build_tree_is_refused(self):
        proc, result = self.run_tool()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown build", proc.stderr)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
