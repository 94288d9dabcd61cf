#!/usr/bin/env python3
"""Compares two per-binary BENCH_*.json files written by bench_to_json.py.

Usage:
  tools/bench_compare.py OLD.json NEW.json

For every "report" key the two files share it prints the old value, the new
value and new/old. Where both files carry "report_stats" for a key (they were
written with --repetitions), a new median outside the old runs' min-max range
is marked "below" or "above". Keys present on one side only are listed by
name. Each file's stamp (sha, source digest, build type, cores, load,
repetitions) heads the output, so a comparison across hosts or build types
shows as such; "src=?" marks a file written before stamps carried a digest.

Report-only: the exit status is 0 whatever the numbers say, and 2 only when
a file cannot be read or is not a bench_to_json.py result.
"""

import json
import sys


class MalformedInput(Exception):
    pass


def load(path):
    """The parsed result file; raises MalformedInput when it is not one."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise MalformedInput(f"{path}: {e}") from e
    if not isinstance(data, dict) or not isinstance(data.get("report"), dict):
        raise MalformedInput(f"{path}: no \"report\" object")
    stats = data.get("report_stats", {})
    if not isinstance(stats, dict):
        raise MalformedInput(f"{path}: \"report_stats\" is not an object")
    for key, entry in stats.items():
        if (not isinstance(entry, dict) or not entry.get("runs")
                or not all(_is_number(v) for v in entry["runs"])):
            raise MalformedInput(f"{path}: report_stats[{key!r}] has no runs")
    return data


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(old, new):
    """Rows of (key, old value, new value, new/old or None, mark) for every
    shared report key, in key order."""
    old_report, new_report = old["report"], new["report"]
    old_stats = old.get("report_stats", {})
    new_stats = new.get("report_stats", {})
    rows = []
    for key in sorted(set(old_report) & set(new_report)):
        o, n = old_report[key], new_report[key]
        ratio, mark = None, ""
        if _is_number(o) and _is_number(n):
            if o != 0:
                ratio = n / o
            if key in old_stats and key in new_stats:
                runs = old_stats[key]["runs"]
                if n < min(runs):
                    mark = "below"
                elif n > max(runs):
                    mark = "above"
        rows.append((key, o, n, ratio, mark))
    return rows


def _fmt(v):
    if not _is_number(v):
        return str(v)
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _stamp_line(label, data):
    stamp = data.get("stamp", {})
    load = stamp.get("load_avg_before") or []
    return (f"{label}: {data.get('binary', '?')} sha={stamp.get('git_sha')} "
            f"src={stamp.get('source_digest') or '?'} "
            f"build={stamp.get('build_type')} nproc={stamp.get('nproc')} "
            f"repetitions={stamp.get('repetitions', 1)} "
            f"load={load[0] if load else '?'}")


def render(old, new):
    """The report as text."""
    rows = compare(old, new)
    lines = [_stamp_line("old", old), _stamp_line("new", new)]
    width = max([len(r[0]) for r in rows] + [3])
    lines.append(f"{'key':<{width}}  {'old':>14}  {'new':>14}  "
                 f"{'new/old':>8}  outside old range")
    for key, o, n, ratio, mark in rows:
        ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
        lines.append(f"{key:<{width}}  {_fmt(o):>14}  {_fmt(n):>14}  "
                     f"{ratio_text:>8}  {mark}".rstrip())
    for label, only in (("old", set(old["report"]) - set(new["report"])),
                        ("new", set(new["report"]) - set(old["report"]))):
        if only:
            lines.append(f"only in {label}: {', '.join(sorted(only))}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    try:
        old, new = load(argv[1]), load(argv[2])
    except MalformedInput as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    print(render(old, new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
