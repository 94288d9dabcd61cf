#!/usr/bin/env python3
"""qb_lint: repo-convention linter for the qb5000 codebase.

Checks (stdlib-only, no compiler needed):
  pragma-once        every header starts with `#pragma once` (legacy
                     `#ifndef QB5000_*_H_` guards are rejected and fixable)
  using-namespace    no `using namespace` at any scope inside headers
  banned-function    no rand / strtok / gets / sprintf (use Rng, strings.h,
                     or snprintf)
  raw-assert         no raw assert() outside src/common/check.h — use
                     QB_CHECK / QB_DCHECK so invariants survive Release
  raw-file-stream    no std::ofstream / std::ifstream / std::fstream outside
                     src/common/io.cc — go through the Env / AtomicFileWriter
                     layer (common/io.h) so writes stay atomic, fsynced, and
                     fault-injectable
  raw-thread         no std::thread outside src/common/thread_pool.{h,cc} —
                     use ThreadPool / ParallelFor (common/thread_pool.h) so
                     concurrency stays deterministic, bounded, and governed
                     by the SetThreadCount knob
  raw-atomic         no std::atomic (nor atomic_* helpers / fences) outside
                     src/common/ — lock-free code stays corralled behind
                     reviewed primitives (Mutex, ServiceThread, the metrics
                     registry); suppress a deliberate exception with a
                     `lint:raw-atomic-ok` comment on the line
  raw-mutex          no std::mutex / std::shared_mutex (nor their lock RAII
                     types, condition_variable, or lowercase .lock() calls)
                     outside src/common/mutex.{h,cc} — use qb5000::Mutex /
                     SharedMutex and the annotated RAII guards
                     (common/mutex.h) so Clang Thread Safety Analysis and
                     the Debug lock-order checker see every acquisition
  raw-chrono-timing  no hand-rolled steady_clock::now() pairs outside
                     src/common/ — use Stopwatch / ScopedTimer
                     (common/metrics.h) so timing feeds the metrics layer
                     and respects the QB5000_METRICS kill switch
  raw-finite         no std::isnan / std::isfinite outside
                     src/common/finite.h — use IsFinite / IsNaN /
                     AllFinite / FiniteOr (common/finite.h) so finiteness
                     checks stay greppable and NaN handling is centralized
                     (DESIGN.md §13: the health gate and output scrubbing
                     depend on these being the only finiteness vocabulary)
  string-ref-param   no `const std::string&` parameters in headers under
                     src/sql/ or src/preprocessor/ (the ingest hot path) —
                     take std::string_view so callers with borrowed bytes
                     never materialize a std::string; suppress deliberate
                     exceptions with a `lint:string-ref-ok` comment
  missing-include    files that use a known symbol must include its header
                     (QB_CHECK -> common/check.h, assert -> <cassert>, ...)

Usage:
  tools/qb_lint.py [--fix] PATH [PATH ...]

Exits 0 when clean, 1 when findings remain (after fixes, if --fix).
"""

import argparse
import re
import sys
from pathlib import Path

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".cc", ".cpp", ".cxx"} | HEADER_SUFFIXES

# Files allowed to use raw assert() (the check machinery itself).
RAW_ASSERT_ALLOWLIST = {"src/common/check.h"}

# Files allowed to open raw file streams (the io layer's own implementation).
RAW_FILE_STREAM_ALLOWLIST = {"src/common/io.cc"}

RAW_FILE_STREAM_RE = re.compile(r"\bstd::[oi]?fstream\b")

# Files allowed to touch std::thread (the pool's own implementation; the
# header declares the worker vector and queries hardware_concurrency; the
# service lifecycle owns the one background maintenance thread).
RAW_THREAD_ALLOWLIST = {"src/common/thread_pool.h", "src/common/thread_pool.cc",
                        "src/common/service.h", "src/common/service.cc"}

# Lock-free code is corralled: std::atomic (including std::atomic_bool,
# std::atomic_thread_fence, ...) is reviewed-primitive territory. Outside
# src/common/ use Mutex / ServiceThread / the metrics instruments, or carry a
# justification on the line with the suppression comment.
RAW_ATOMIC_ALLOWLIST_PREFIX = "src/common/"
RAW_ATOMIC_RE = re.compile(r"\bstd::atomic\w*\b")
RAW_ATOMIC_SUPPRESS = "lint:raw-atomic-ok"

# std::thread the type — std::this_thread (sleep/yield) stays allowed.
RAW_THREAD_RE = re.compile(r"\bstd::thread\b")

# Files allowed to touch the std locking primitives (the annotated wrapper's
# own implementation).
RAW_MUTEX_ALLOWLIST = {"src/common/mutex.h", "src/common/mutex.cc"}

# The std lock vocabulary, plus the lowercase lock()/unlock() method family
# (the qb5000 wrappers use capitalized Lock()/Unlock(), so a lowercase call
# can only be a std primitive or an ad-hoc lockable slipping past the types).
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|recursive_timed_mutex|"
    r"timed_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable(?:_any)?)\b")

RAW_MUTEX_CALL_RE = re.compile(
    r"(?:\.|->)(?:lock|unlock|try_lock|lock_shared|unlock_shared|"
    r"try_lock_shared)\s*\(")

# Ad-hoc wall-clock timing must go through Stopwatch / ScopedTimer
# (common/metrics.h). Only the metrics/tracing layer itself touches the
# clock directly; everywhere else a raw now() pair is invisible to the
# observability layer and ignores the QB5000_METRICS kill switch.
RAW_CHRONO_ALLOWLIST_PREFIX = "src/common/"

RAW_CHRONO_RE = re.compile(
    r"\bstd::chrono::(steady_clock|high_resolution_clock|system_clock)::now\b")

# Finiteness checks must go through common/finite.h (IsFinite / IsNaN /
# AllFinite / FiniteOr). Scattered std::isfinite calls are how NaN-handling
# policy drifts: the resilience layer (DESIGN.md §13) audits every scrub and
# health-gate site by grepping for the finite.h vocabulary.
RAW_FINITE_ALLOWLIST = {"src/common/finite.h"}

RAW_FINITE_RE = re.compile(r"\bstd::is(nan|finite|inf)\b")

# Headers on the ingest hot path must not force callers to own a
# std::string. Matches a `const std::string&` followed by a parameter name
# (a return type is followed by `(` and is not matched). Suppress a
# deliberate exception with a `lint:string-ref-ok` comment on the line.
STRING_REF_PARAM_DIRS = ("src/sql/", "src/preprocessor/")
STRING_REF_PARAM_RE = re.compile(r"const\s+std::string\s*&\s*\w+(?![\w(])")
STRING_REF_SUPPRESS = "lint:string-ref-ok"

BANNED_FUNCTIONS = {
    "rand": "use qb5000::Rng (common/rng.h) for seedable, reproducible draws",
    "strtok": "not reentrant; use qb5000 string helpers (common/strings.h)",
    "gets": "unbounded write; removed from C11/C++ for good reason",
    "sprintf": "unbounded write; use snprintf",
}

# (symbol name, symbol regex, required include regex, include to add)
REQUIRED_INCLUDES = [
    ("QB_CHECK",
     re.compile(r"\bQB_D?CHECK(_EQ|_NE|_LT|_LE|_GT|_GE)?\s*\("),
     re.compile(r'#include\s+"common/check\.h"'), '"common/check.h"'),
    ("assert",
     re.compile(r"(?<!_)\bassert\s*\("),
     re.compile(r"#include\s+<cassert>"), "<cassert>"),
    ("std::memcpy/memset/memmove",
     re.compile(r"\bstd::mem(cpy|set|move)\s*\("),
     re.compile(r"#include\s+<cstring>"), "<cstring>"),
    ("std::printf/fprintf",
     re.compile(r"\bstd::f?printf\s*\("),
     re.compile(r"#include\s+<cstdio>"), "<cstdio>"),
]

GUARD_IFNDEF = re.compile(r"^#ifndef\s+(QB5000_\w+_H_)\s*$")


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_noise(line):
    """Removes // comments and string/char literal contents from a line so
    symbol regexes do not fire on prose or quoted text. Heuristic, not a full
    lexer, but sufficient for this codebase's style."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        ch = line[i]
        if in_str:
            if ch == "\\":
                i += 2
                continue
            if ch == in_str:
                in_str = None
            i += 1
            continue
        if ch in ('"', "'"):
            in_str = ch
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def iter_code_lines(text):
    """Yields (lineno, stripped_line) with block comments blanked out."""
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block = False
        # Blank any /* ... */ sections, possibly several per line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield lineno, strip_noise(line)


def check_pragma_once(path, text, fix):
    """Headers must open with #pragma once. With --fix, converts a legacy
    QB5000_*_H_ include guard in place. Returns (findings, new_text)."""
    findings = []
    lines = text.splitlines(keepends=True)
    has_pragma = any(line.strip() == "#pragma once" for line in lines[:30])
    if has_pragma:
        return findings, text

    guard = None
    guard_idx = None
    for idx, line in enumerate(lines[:30]):
        m = GUARD_IFNDEF.match(line.strip())
        if m:
            guard, guard_idx = m.group(1), idx
            break

    if not fix or guard is None:
        what = (f"legacy include guard {guard}" if guard
                else "missing #pragma once")
        findings.append(Finding(path, (guard_idx or 0) + 1, "pragma-once",
                                f"{what}; headers must use #pragma once"))
        return findings, text

    # Rewrite: drop `#ifndef G` / `#define G`, the trailing `#endif`, and
    # insert `#pragma once` where the guard began.
    out = []
    endif_re = re.compile(r"^#endif\b")
    last_endif = None
    for idx, line in enumerate(lines):
        if idx == guard_idx:
            out.append("#pragma once\n")
            continue
        if idx == guard_idx + 1 and line.strip() == f"#define {guard}":
            continue
        out.append(line)
    for idx in range(len(out) - 1, -1, -1):
        if endif_re.match(out[idx].lstrip()):
            last_endif = idx
            break
    if last_endif is not None:
        del out[last_endif]
        while last_endif > 0 and out[last_endif - 1].strip() == "":
            del out[last_endif - 1]
            last_endif -= 1
    return findings, "".join(out)


def lint_file(path, rel, fix):
    findings = []
    text = path.read_text()
    original = text

    if path.suffix in HEADER_SUFFIXES:
        pragma_findings, text = check_pragma_once(rel, text, fix)
        findings.extend(pragma_findings)

    banned_re = re.compile(
        r"(?<![\w:.])(" + "|".join(BANNED_FUNCTIONS) + r")\s*\(")
    assert_re = re.compile(r"(?<![\w_])assert\s*\(")

    raw_lines = text.splitlines()
    check_string_ref = (path.suffix in HEADER_SUFFIXES
                        and rel.startswith(STRING_REF_PARAM_DIRS))

    for lineno, line in iter_code_lines(text):
        if (check_string_ref and STRING_REF_PARAM_RE.search(line)
                and STRING_REF_SUPPRESS not in raw_lines[lineno - 1]):
            findings.append(Finding(
                rel, lineno, "string-ref-param",
                "const std::string& parameter on the ingest hot path; take "
                "std::string_view (borrowed) or std::string by value "
                f"(owned), or suppress with `{STRING_REF_SUPPRESS}`"))
        if path.suffix in HEADER_SUFFIXES and re.search(
                r"\busing\s+namespace\b", line):
            findings.append(Finding(
                rel, lineno, "using-namespace",
                "`using namespace` in a header leaks into every includer"))
        for m in banned_re.finditer(line):
            name = m.group(1)
            findings.append(Finding(
                rel, lineno, "banned-function",
                f"{name}() is banned: {BANNED_FUNCTIONS[name]}"))
        if rel not in RAW_FILE_STREAM_ALLOWLIST:
            for _ in RAW_FILE_STREAM_RE.finditer(line):
                findings.append(Finding(
                    rel, lineno, "raw-file-stream",
                    "raw std::fstream bypasses the durability layer; use "
                    "Env / AtomicFileWriter from common/io.h (atomic "
                    "replace, fsync, fault injection)"))
        if rel not in RAW_THREAD_ALLOWLIST:
            for _ in RAW_THREAD_RE.finditer(line):
                findings.append(Finding(
                    rel, lineno, "raw-thread",
                    "raw std::thread bypasses the pool; use ThreadPool / "
                    "ParallelFor (common/thread_pool.h) so thread count, "
                    "determinism, and exception propagation stay governed"))
        if not rel.startswith(RAW_ATOMIC_ALLOWLIST_PREFIX):
            if (RAW_ATOMIC_RE.search(line)
                    and RAW_ATOMIC_SUPPRESS not in raw_lines[lineno - 1]):
                findings.append(Finding(
                    rel, lineno, "raw-atomic",
                    "raw std::atomic outside src/common/; use the reviewed "
                    "primitives (Mutex, ServiceThread, metrics instruments) "
                    "or justify the exception with a "
                    f"`{RAW_ATOMIC_SUPPRESS}` comment"))
        if rel not in RAW_MUTEX_ALLOWLIST:
            if RAW_MUTEX_RE.search(line) or RAW_MUTEX_CALL_RE.search(line):
                findings.append(Finding(
                    rel, lineno, "raw-mutex",
                    "raw std locking primitive is invisible to Thread Safety "
                    "Analysis and the lock-order checker; use qb5000::Mutex "
                    "/ SharedMutex with the RAII guards (common/mutex.h)"))
        if not rel.startswith(RAW_CHRONO_ALLOWLIST_PREFIX):
            for _ in RAW_CHRONO_RE.finditer(line):
                findings.append(Finding(
                    rel, lineno, "raw-chrono-timing",
                    "hand-rolled clock::now() timing bypasses the metrics "
                    "layer; use Stopwatch or ScopedTimer (common/metrics.h)"))
        if rel not in RAW_FINITE_ALLOWLIST:
            for _ in RAW_FINITE_RE.finditer(line):
                findings.append(Finding(
                    rel, lineno, "raw-finite",
                    "raw std::isnan/std::isfinite scatters NaN policy; use "
                    "IsFinite / IsNaN / AllFinite / FiniteOr from "
                    "common/finite.h (the audited finiteness vocabulary)"))
        if rel not in RAW_ASSERT_ALLOWLIST:
            for m in assert_re.finditer(line):
                if line[:m.start()].rstrip().endswith(("static", "_")):
                    continue
                findings.append(Finding(
                    rel, lineno, "raw-assert",
                    "raw assert() vanishes under NDEBUG; use QB_CHECK "
                    "(Release-safe) or QB_DCHECK (debug-only)"))

    code = "\n".join(line for _, line in iter_code_lines(text))
    for symbol_name, symbol_re, include_re, include_name in REQUIRED_INCLUDES:
        if symbol_re.search(code) and not include_re.search(text):
            if include_name == '"common/check.h"' and rel in RAW_ASSERT_ALLOWLIST:
                continue
            if fix:
                text = insert_include(text, include_name)
            else:
                findings.append(Finding(
                    rel, 1, "missing-include",
                    f"uses {symbol_name} but does not include {include_name}"))

    if fix and text != original:
        path.write_text(text)
    return findings


def insert_include(text, include_name):
    """Adds `#include X` after the last existing include (or the pragma)."""
    directive = (f'#include {include_name}\n')
    lines = text.splitlines(keepends=True)
    last_include = None
    for idx, line in enumerate(lines):
        if line.lstrip().startswith("#include"):
            last_include = idx
    if last_include is not None:
        lines.insert(last_include + 1, directive)
    else:
        for idx, line in enumerate(lines):
            if line.strip() == "#pragma once":
                lines.insert(idx + 1, "\n" + directive)
                break
        else:
            lines.insert(0, directive)
    return "".join(lines)


def collect_files(roots):
    for root in roots:
        p = Path(root)
        if p.is_file():
            if p.suffix in SOURCE_SUFFIXES:
                yield p
        elif p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.suffix in SOURCE_SUFFIXES and "build" not in child.parts:
                    yield child
        else:
            print(f"qb_lint: no such path: {root}", file=sys.stderr)
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite fixable findings in place")
    args = parser.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    all_findings = []
    count = 0
    for path in collect_files(args.paths):
        count += 1
        try:
            rel = str(path.resolve().relative_to(repo_root))
        except ValueError:
            rel = str(path)
        all_findings.extend(lint_file(path, rel, args.fix))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print(f"qb_lint: {len(all_findings)} finding(s) in {count} file(s)",
              file=sys.stderr)
        return 1
    print(f"qb_lint: {count} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
