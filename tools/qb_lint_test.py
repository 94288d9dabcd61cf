#!/usr/bin/env python3
"""Self-test for tools/qb_lint.py (run by the CI lint job).

Each case writes a fixture to a temp directory and calls lint_file() with a
controlled repo-relative path, so allowlists and directory-scoped rules are
exercised exactly as they resolve in the real tree. Covers the raw-mutex,
raw-thread, raw-atomic, and string-ref-param rules with positive and
negative fixtures, plus the comment/string stripping those rules depend on.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import qb_lint  # noqa: E402


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmpdir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def run_lint(self, rel, content):
        """Lints `content` as if it lived at repo-relative path `rel`."""
        path = self.tmpdir / Path(rel).name
        path.write_text(content)
        return qb_lint.lint_file(path, rel, fix=False)

    def checks(self, findings):
        return sorted({f.check for f in findings})

    # --- raw-mutex ---------------------------------------------------------

    def test_raw_mutex_flags_std_mutex_member(self):
        findings = self.run_lint("src/core/widget.h", """#pragma once
#include <mutex>
class Widget {
  std::mutex mu_;
};
""")
        self.assertIn("raw-mutex", self.checks(findings))

    def test_raw_mutex_flags_lock_raii_and_condition_variable(self):
        findings = self.run_lint("src/core/widget.cc", """void f() {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_lock read(shared_mu_);
  std::condition_variable cv;
}
""")
        raw_mutex = [f for f in findings if f.check == "raw-mutex"]
        self.assertEqual(len(raw_mutex), 3)

    def test_raw_mutex_flags_lowercase_lock_calls(self):
        findings = self.run_lint("src/core/widget.cc", """void f() {
  mu_.lock();
  mu_ptr->unlock();
  smu_.lock_shared();
}
""")
        raw_mutex = [f for f in findings if f.check == "raw-mutex"]
        self.assertEqual(len(raw_mutex), 3)

    def test_raw_mutex_allows_wrapper_implementation(self):
        content = """void Mutex::Lock() {
  mu_.lock();
}
std::mutex raw_;
"""
        self.assertEqual(
            self.checks(self.run_lint("src/common/mutex.cc", content)), [])
        # The identical content anywhere else is a finding.
        self.assertIn("raw-mutex", self.checks(
            self.run_lint("src/core/widget.cc", content)))

    def test_raw_mutex_allows_qb_wrappers_and_prose(self):
        findings = self.run_lint("src/core/widget.cc", """void f() {
  MutexLock lock(&mu_);   // not std::lock_guard: see common/mutex.h
  mu_.Lock();
  mu_.Unlock();
  const char* msg = "call mu_.lock() here";  /* std::mutex in prose */
}
""")
        self.assertEqual(self.checks(findings), [])

    # --- raw-thread --------------------------------------------------------

    def test_raw_thread_flags_std_thread_outside_pool(self):
        findings = self.run_lint("src/core/widget.cc", """void f() {
  std::thread worker([] {});
  worker.join();
}
""")
        self.assertIn("raw-thread", self.checks(findings))

    def test_raw_thread_allows_pool_implementation_and_this_thread(self):
        self.assertEqual(self.checks(self.run_lint(
            "src/common/thread_pool.cc",
            "std::vector<std::thread> workers_;\n")), [])
        self.assertEqual(self.checks(self.run_lint(
            "src/core/widget.cc",
            "void f() { std::this_thread::yield(); }\n")), [])

    # --- raw-atomic --------------------------------------------------------

    def test_raw_atomic_flags_use_outside_common(self):
        findings = self.run_lint("src/core/widget.h", """#pragma once
#include <atomic>
class Widget {
  std::atomic<int64_t> pending_{0};
  std::atomic_bool flag_{false};
};
void Fence() { std::atomic_thread_fence(std::memory_order_acquire); }
""")
        raw_atomic = [f for f in findings if f.check == "raw-atomic"]
        self.assertEqual(len(raw_atomic), 3)

    def test_raw_atomic_allows_common_and_suppressions(self):
        # src/common/ is the reviewed home for lock-free primitives.
        self.assertEqual(self.checks(self.run_lint(
            "src/common/mpsc_queue.h",
            "#pragma once\nstd::atomic<uint64_t> seq{0};\n")), [])
        # Elsewhere a justified suppression on the line passes.
        self.assertEqual(self.checks(self.run_lint(
            "src/core/widget.h", """#pragma once
class Widget {
  std::atomic<uint64_t> epoch_{0};  // lint:raw-atomic-ok (movable counter)
};
""")), [])
        # Prose and comments never fire.
        self.assertEqual(self.checks(self.run_lint(
            "src/core/widget.cc",
            "// std::atomic is banned here\nconst char* s = \"std::atomic\";\n"
        )), [])

    # --- raw-finite --------------------------------------------------------

    def test_raw_finite_flags_std_isnan_isfinite_isinf(self):
        findings = self.run_lint("src/core/widget.cc", """void f(double v) {
  if (std::isnan(v)) return;
  if (!std::isfinite(v)) return;
  if (std::isinf(v)) return;
}
""")
        raw_finite = [f for f in findings if f.check == "raw-finite"]
        self.assertEqual(len(raw_finite), 3)

    def test_raw_finite_allows_finite_h_and_wrappers(self):
        # The wrapper header itself is the one sanctioned home.
        self.assertEqual(self.checks(self.run_lint(
            "src/common/finite.h", """#pragma once
#include <cmath>
inline bool IsFinite(double v) { return std::isfinite(v); }
inline bool IsNaN(double v) { return std::isnan(v); }
""")), [])
        # Everywhere else, the finite.h vocabulary passes without findings.
        self.assertEqual(self.checks(self.run_lint(
            "src/core/widget.cc", """void f(double v) {
  if (!IsFinite(v)) return;        // common/finite.h
  double safe = FiniteOr(v, 0.0);  /* std::isnan only in prose */
  (void)safe;
}
""")), [])

    # --- string-ref-param --------------------------------------------------

    def test_string_ref_param_flags_hot_path_headers(self):
        content = """#pragma once
void Ingest(const std::string& sql);
"""
        self.assertIn("string-ref-param", self.checks(
            self.run_lint("src/preprocessor/widget.h", content)))
        self.assertIn("string-ref-param", self.checks(
            self.run_lint("src/sql/widget.h", content)))

    def test_string_ref_param_ignores_cold_paths_and_suppressions(self):
        # Same signature off the hot path: allowed.
        self.assertEqual(self.checks(self.run_lint(
            "src/common/widget.h",
            "#pragma once\nvoid f(const std::string& name);\n")), [])
        # Hot path but explicitly suppressed: allowed.
        self.assertEqual(self.checks(self.run_lint(
            "src/sql/widget.h", """#pragma once
void Ingest(const std::string& sql);  // lint:string-ref-ok
""")), [])
        # string_view passes without suppression.
        self.assertEqual(self.checks(self.run_lint(
            "src/sql/widget.h",
            "#pragma once\nvoid Ingest(std::string_view sql);\n")), [])

    # --- shared machinery --------------------------------------------------

    def test_block_comments_do_not_trigger_rules(self):
        findings = self.run_lint("src/core/widget.cc", """/*
 * std::mutex mu_;
 * std::thread worker;
 */
void f() {}
""")
        self.assertEqual(self.checks(findings), [])

    def test_real_wrapper_files_stay_clean(self):
        # The shipped implementation must satisfy its own allowlist (guards
        # against renaming mutex.{h,cc} without updating the lint).
        repo = Path(__file__).resolve().parent.parent
        for rel in sorted(qb_lint.RAW_MUTEX_ALLOWLIST
                          | qb_lint.RAW_FINITE_ALLOWLIST
                          | qb_lint.RAW_THREAD_ALLOWLIST):
            path = repo / rel
            self.assertTrue(path.is_file(), f"{rel} missing on disk")
            findings = qb_lint.lint_file(path, rel, fix=False)
            self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
