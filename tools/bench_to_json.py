#!/usr/bin/env python3
"""Runs a qb5000 bench binary and emits a JSON results file.

Collects two result streams:
  * the google-benchmark microbenchmarks, via --benchmark_out (clean JSON,
    unpolluted by the benches' human-readable reports on stdout);
  * the "#KV key value" lines the reports print for machine consumption
    (speedups, per-component timings, scaling factors).

Usage:
  tools/bench_to_json.py build/bench/bench_kernels --out BENCH_kernels.json
  tools/bench_to_json.py build/bench/bench_table4_overhead \
      --out BENCH_table4.json
  tools/bench_to_json.py build/bench/bench_kernels --repetitions 5 \
      --out BENCH_kernels.json

Extra arguments after the binary are forwarded to it. QB_BENCH_FAST=1 in the
environment is forwarded too (the benches shrink themselves).

Every output carries a "stamp" saying what was measured: the build type of
the build tree the binary lives in (CMAKE_BUILD_TYPE from its CMakeCache.txt;
empty means Release, the top-level default), the git sha (suffixed "-dirty"
when tracked files have uncommitted changes), the usable core count, and
the load average before and after the run. A non-Release build is refused
unless --allow-non-release is given.

--repetitions N runs the binary N times. "report" then holds each key's
median and "benchmarks" each benchmark's median times; "report_stats" and
"benchmark_stats" hold the min, median, sample stdev and every run's value
(stdev is null for a single run).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def parse_kv_lines(text):
    """Extracts {key: float-or-string} from '#KV key value' lines."""
    report = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("#KV "):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            continue
        _, key, value = parts
        try:
            report[key] = float(value)
        except ValueError:
            report[key] = value
    return report


def build_type(binary):
    """CMAKE_BUILD_TYPE of the build tree holding `binary`, or None."""
    directory = os.path.dirname(os.path.abspath(binary))
    while True:
        cache = os.path.join(directory, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                for line in f:
                    if line.startswith("CMAKE_BUILD_TYPE:"):
                        return line.split("=", 1)[1].strip() or "Release"
            return "Release"
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def git_sha():
    """HEAD's sha, suffixed "-dirty" when tracked files differ from it."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=False,
        )
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def summarize_benchmarks(bench_json):
    """Reduces google-benchmark's JSON to the fields worth diffing."""
    out = []
    for entry in bench_json.get("benchmarks", []):
        out.append(
            {
                "name": entry.get("name"),
                "real_time": entry.get("real_time"),
                "cpu_time": entry.get("cpu_time"),
                "time_unit": entry.get("time_unit"),
                "iterations": entry.get("iterations"),
                "items_per_second": entry.get("items_per_second"),
            }
        )
    return out


def spread(values):
    """{min, median, stdev, runs} of one key's per-run values."""
    return {
        "min": min(values),
        "median": statistics.median(values),
        "stdev": statistics.stdev(values) if len(values) > 1 else None,
        "runs": list(values),
    }


def combine_reports(reports):
    """Merges per-run #KV reports into (medians, stats).

    Numeric keys get their median and spread; a string key keeps its last
    value and has no stats.
    """
    values = {}
    for report in reports:
        for key, value in report.items():
            values.setdefault(key, []).append(value)
    medians, stats = {}, {}
    for key, runs in values.items():
        if all(isinstance(v, float) for v in runs):
            stats[key] = spread(runs)
            medians[key] = stats[key]["median"]
        else:
            medians[key] = runs[-1]
    return medians, stats


def combine_benchmarks(runs):
    """Merges per-run summarize_benchmarks() lists into (medians, stats).

    Entries are matched by name and keep the first run's order; times and
    items_per_second become medians, with real/cpu time spreads in stats.
    """
    by_name = {}
    for run in runs:
        for entry in run:
            by_name.setdefault(entry["name"], []).append(entry)
    medians, stats = [], {}
    for name, entries in by_name.items():
        merged = dict(entries[0])
        stats[name] = {}
        for field in ("real_time", "cpu_time", "items_per_second"):
            values = [e[field] for e in entries if e.get(field) is not None]
            if not values:
                continue
            merged[field] = statistics.median(values)
            if field != "items_per_second":
                stats[name][field] = spread(values)
        medians.append(merged)
    return medians, stats


def run_once(binary, bench_args):
    """Runs the binary once; returns (google-benchmark JSON, stdout)."""
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".json", delete=False
    ) as tmp:
        gbench_path = tmp.name
    try:
        cmd = [
            binary,
            f"--benchmark_out={gbench_path}",
            "--benchmark_out_format=json",
            *bench_args,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: {cmd[0]} exited with {proc.returncode}")

        bench_json = {}
        if os.path.getsize(gbench_path) > 0:
            with open(gbench_path) as f:
                bench_json = json.load(f)
    finally:
        os.unlink(gbench_path)
    return bench_json, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="bench executable to run")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--allow-non-release", action="store_true",
        help="measure a build whose CMAKE_BUILD_TYPE is not Release",
    )
    parser.add_argument(
        "--repetitions", type=int, default=1,
        help="run the binary N times and report median and spread",
    )
    parser.add_argument(
        "bench_args", nargs="*", help="extra args forwarded to the binary"
    )
    # parse_known_args so option-like extras (--benchmark_min_time=0.1x)
    # forward to the binary instead of tripping argparse; a leading "--"
    # separator is accepted and dropped.
    args, unknown = parser.parse_known_args()
    args.bench_args = [a for a in args.bench_args if a != "--"] + unknown

    if args.repetitions < 1:
        sys.exit("error: --repetitions must be at least 1")
    if not os.path.exists(args.binary):
        sys.exit(f"error: no such binary: {args.binary}")
    build = build_type(args.binary)
    if build != "Release" and not args.allow_non_release:
        sys.exit(f"error: {args.binary} is a {build or 'unknown'} build; "
                 "measure a Release build or pass --allow-non-release")
    load_before = os.getloadavg()

    runs = [run_once(args.binary, args.bench_args)
            for _ in range(args.repetitions)]
    benchmarks, benchmark_stats = combine_benchmarks(
        [summarize_benchmarks(bench_json) for bench_json, _ in runs])
    report, report_stats = combine_reports(
        [parse_kv_lines(stdout) for _, stdout in runs])

    result = {
        "stamp": {
            "build_type": build,
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "load_avg_before": list(load_before),
            "load_avg_after": list(os.getloadavg()),
            "repetitions": args.repetitions,
        },
        "binary": os.path.basename(args.binary),
        "context": runs[-1][0].get("context", {}),
        "benchmarks": benchmarks,
        "benchmark_stats": benchmark_stats,
        "report": report,
        "report_stats": report_stats,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {len(result['benchmarks'])} benchmarks, "
          f"{len(result['report'])} report keys")


if __name__ == "__main__":
    main()
