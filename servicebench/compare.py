#!/usr/bin/env python3
"""Compare parent and change runs of the service benchmark.

    python3 servicebench/compare.py PARENT_RUNS_DIR CHANGE_RUNS_DIR

Each directory holds run records as run.py leaves them in .bench_out/runs/
(copy them aside between commits). Untraced runs are paired by workload and
seed. For every workload x end-to-end metric of BENCHMARK.json this prints
both medians and quartiles over the valid runs, the change's wins over all
pairs run (an invalid run, or a seed run on one side only, is a pair the
change did not win), and a verdict under the benchmark's own bounds (see
stats.verdict). Exits 1 when any verdict is "worse".
"""

import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: {seed: record}} for untraced runs, valid or not."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def _value(runs, seed, name):
    """The metric of a valid run of `seed`, else None."""
    record = runs.get(seed)
    if record is None or not record["stamp"].get("valid", False):
        return None
    return record["end_to_end"][name]


def compare(parent_runs, change_runs, metrics):
    """Rows of (workload, metric, parent quartiles, change quartiles,
    wins, pairs, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        seeds = sorted(set(p_runs) | set(c_runs))
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        for m in metrics:
            parent = [_value(p_runs, s, m["name"]) for s in seeds]
            change = [_value(c_runs, s, m["name"]) for s in seeds]
            wins, pairs = stats.win_ratio(list(zip(parent, change)), m["better"])
            rows.append((workload, m["name"],
                         stats.quartiles([v for v in parent if v is not None]),
                         stats.quartiles([v for v in change if v is not None]),
                         wins, pairs,
                         stats.verdict(parent, change, m["better"], m["bound"],
                                       p_failed, c_failed)))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec["end_to_end"])
    if not rows:
        print("no seed-paired untraced runs to compare", file=sys.stderr)
        return 2
    print(f"{'workload':15s} {'metric':24s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'wins':>6s}  verdict")
    for workload, name, p, c, wins, pairs, verdict in rows:
        fmt = "{:10.4g} {:10.4g} {:10.4g}"
        print(f"{workload:15s} {name:24s} {fmt.format(*p):>34s} "
              f"{fmt.format(*c):>34s} {wins:>3d}/{pairs:<2d}  {verdict}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
