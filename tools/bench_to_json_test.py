#!/usr/bin/env python3
"""Self-test for tools/bench_to_json.py (run by the CI lint job).

Builds a throwaway build tree around a stand-in "bench binary" (a shell
script printing one #KV line) and checks the stamp, the build-type lookup
and the non-Release refusal.
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

    def test_binary_outside_a_build_tree_is_refused(self):
        proc, result = self.run_tool()
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unknown build", proc.stderr)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
