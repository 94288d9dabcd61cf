#!/usr/bin/env python3
"""End-to-end service benchmark for QB5000.

    python3 servicebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the load generator from this checkout (Release, metrics
on) into .bench_build/, runs one workload, checks the program's outputs and
prints every metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones of BENCHMARK.json. Each run's full record (stamp, metrics, checks) is
kept under .bench_out/runs/ for compare.py. A failed output check, a build
that is not Release with metrics on (unless --force), or an open-loop
generator that ran late beyond its bound fails the run without a result.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# Generator lateness bound: a run whose open-loop producer started chunks
# later than this at p99 measured the generator, not the program.
LATE_P99_BOUND_MS = 20.0
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_type, metrics):
    """Configures and builds the load generator; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("qb5000 sources (src/) not found beside servicebench/")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / f"cmake-{build_type}-{metrics}"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "build.log", "w") as build_log:
        for cmd in (
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             f"-DCMAKE_BUILD_TYPE={build_type}",
             f"-DQB5000_METRICS={'ON' if metrics == 'on' else 'OFF'}"],
            ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
        ):
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise RuntimeError(f"build failed; see {OUT / 'build.log'}")
    return build_dir / "servicebench"


def load_json(path):
    """Reads the load generator's JSON; the registry prints non-finite gauges
    bare."""
    text = Path(path).read_text()
    text = re.sub(r"(?<=[:,\[])(-?nan|-?inf)\b", "null", text)
    return json.loads(text)


def source_digest():
    """sha256 over src/ and servicebench/ (the checkout may not be git)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or None when the checkout is not its own git
    repository (then source_digest identifies the code)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def loadavg():
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


# --- metrics ------------------------------------------------------------------

def end_to_end(r):
    """The user-facing metrics from one run's raw measurements. Latency
    medians are medians over consecutive segments of the window of each
    segment's median (stats.segment_percentile); capacity is the median
    over the bursts of each one's arrivals over the program's CPU seconds
    from its first enqueue until the service was idle (stats.burst_capacity);
    CPU per query leaves out the load generator's own CPU."""
    attempted = r["chunks_attempted"] + r["forecasts_attempted"]
    failed = r["chunks_failed"] + r["forecasts_failed"]
    applied_ms = [x * 1e3 for x in r["applied_s"]]
    forecast_us = [x * 1e6 for x in r["forecast_s"]]
    served = r["rung_full"] + r["rung_linear"] + r["rung_fallback"]
    program_cpu_s = r["window_cpu_s"] - r["loadgen_cpu_s"]
    return {
        "setup_s": (stats.percentile(r["setup_s"], 50), "s"),
        "ingest_capacity_qps": (
            stats.burst_capacity(r["burst_arrivals"], r["burst_cpu_s"]),
            "q/s"),
        "applied_p50_ms": (stats.segment_percentile(applied_ms, 50), "ms"),
        "forecast_p50_us": (stats.segment_percentile(forecast_us, 50), "us"),
        "forecast_full_fraction": (
            r["rung_full"] / max(1, served + r["forecasts_failed"]), "ratio"),
        "forecast_log_mse": (r["log_mse"], "mse"),
        "cpu_us_per_query": (program_cpu_s / r["window_arrivals"] * 1e6, "us"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "success_fraction": (1.0 - stats.failed_fraction(attempted, failed), "ratio"),
    }, attempted, failed


def _delta(r, kind, name):
    a = (r["registry_window_start"] or {}).get(kind, {}).get(name, 0)
    b = (r["registry_window_end"] or {}).get(kind, {}).get(name, 0)
    return (b or 0) - (a or 0)


def _hist_delta(r, name):
    """(count, sum, {bucket: n}) of a histogram over the window."""
    a = (r["registry_window_start"] or {}).get("histograms", {}).get(name)
    b = (r["registry_window_end"] or {}).get("histograms", {}).get(name)
    if b is None:
        return 0, 0.0, {}
    a = a or {"count": 0, "sum": 0.0, "buckets": {}}
    buckets = {int(k): v - a["buckets"].get(k, 0) for k, v in b["buckets"].items()}
    return b["count"] - a["count"], (b["sum"] or 0) - (a["sum"] or 0), buckets


def _hist_p50(buckets):
    """Median from 64 log2 buckets (upper bound 1e-9 * 2^i), interpolated
    geometrically inside the bucket."""
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    seen = 0
    for i in sorted(buckets):
        n = buckets[i]
        if seen + n >= total / 2 and n > 0:
            frac = (total / 2 - seen) / n
            lo = 1e-9 * 2 ** (i - 1) if i > 0 else 0.5e-9
            return lo * 2 ** frac
        seen += n
    return 1e-9 * 2 ** max(buckets)


def _tail(values, scale):
    """p99 of a latency sample in seconds, scaled; 0 for an empty sample
    (the run is then invalid for too few samples)."""
    return stats.segment_percentile([x * scale for x in values], 99) if values else 0.0


def _gauge(r, name):
    return (r["registry_window_end"] or {}).get("gauges", {}).get(name) or 0.0


def per_layer(r, spans):
    """Per-layer metrics of a traced run (names as in BENCHMARK.json)."""
    t0, t1 = r["window_start"], r["window_end"]
    window = t1 - t0
    inside = [dict(s, start=max(s["start"], t0), end=min(s["end"], t1))
              for s in spans if s["end"] > t0 and s["start"] < t1]
    service = {s["thread"] for s in inside
               if s["name"] == "maintenance" or s["name"].startswith("checkpoint/")}
    svc = [s for s in inside if s["thread"] in service]
    selfs = stats.self_times(svc)

    def durs(name):
        return [(s["end"] - s["start"]) * 1e3 for s in svc if s["name"] == name]

    def p50(xs):
        return stats.percentile(xs, 50) if xs else 0.0

    ingests = _delta(r, "counters", "preprocessor.ingests_total")
    misses = _delta(r, "counters", "preprocessor.cache_misses_total")
    hits = _delta(r, "counters", "preprocessor.cache_hits_total")
    _, batch_s, _ = _hist_delta(r, "preprocessor.batch_ingest_seconds")
    # The drain times whole batches only. Every arrival pays a common path
    # (normalize, group, cache probe, merge); a cache miss pays one parse on
    # top, whose cost the load generator measured on this workload's own
    # statements (parse_s). Each path is charged its own arrivals' time.
    parse_s = min(batch_s, r["parse_s"] * misses)
    hit_cost = (batch_s - parse_s) / max(1, ingests)
    miss_s = parse_s + hit_cost * misses

    layers = {"preprocessor.hit": batch_s - miss_s, "preprocessor.miss": miss_s,
              "core.checkpoint": 0.0, "clusterer.update": 0.0,
              "forecaster.train": 0.0, "core.maintenance_other": 0.0}
    for s, own in zip(svc, selfs):
        name = s["name"]
        if name == "maintenance/cluster":
            layers["clusterer.update"] += own
        elif name == "maintenance/train":
            layers["forecaster.train"] += own
        elif name.startswith("maintenance"):
            layers["core.maintenance_other"] += own
        elif name.startswith("checkpoint/") or name.startswith("env/"):
            layers["core.checkpoint"] += own
    busy = sum(layers.values())

    serialize = durs("checkpoint/serialize")
    io = durs("checkpoint/io")
    full = [a + b for a, b in zip(serialize, io)]
    delta = durs("checkpoint/delta")
    maint = durs("maintenance")
    cluster = durs("maintenance/cluster")
    housekeep = sum(sum(durs(n)) for n in
                    ("maintenance/evict", "maintenance/compact",
                     "maintenance/history_budget"))
    train = {}
    for family in ("lr", "rnn", "kr"):
        total = 0.0
        for name in (r["registry_window_end"] or {}).get("histograms", {}):
            if name.startswith(f"forecaster.train_seconds.{family}.h"):
                total += _hist_delta(r, name)[1]
        train[family] = total * 1e3
    if not any(train.values()):
        # Single-model kinds (LR) record only the per-horizon total.
        train["lr"] = sum(_hist_delta(r, name)[1] for name in
                          (r["registry_window_end"] or {}).get("histograms", {})
                          if re.fullmatch(r"forecaster\.train_seconds\.h\d+", name)) * 1e3
    predict = {}
    for name in (r["registry_window_end"] or {}).get("histograms", {}):
        if name.startswith("forecaster.predict_seconds.h"):
            for k, v in _hist_delta(r, name)[2].items():
                predict[k] = predict.get(k, 0) + v
    kd_queries = _delta(r, "counters", "clusterer.kdtree_queries_total")
    kd_probes = _delta(r, "counters", "clusterer.kdtree_probes_total")
    enqueue_us = [x * 1e6 for x in r["enqueue_s"]] or [0.0]
    end_counters = (r["registry_end"] or {}).get("counters", {})

    m = {
        "core.enqueue_us.p50": (stats.percentile(enqueue_us, 50), "us"),
        "core.enqueue_us.p99": (stats.percentile(enqueue_us, 99), "us"),
        "core.enqueue_refusals": (r["enqueue_refusals"], "count"),
        "core.queue_depth.max": (r["queue_depth_max"], "chunks"),
        "core.service_busy_fraction": (busy / window, "ratio"),
        "core.lock_wait_ms.sum": (_hist_delta(r, "core.lock_wait_seconds")[1] * 1e3, "ms"),
        "core.applied_ms.p99": (_tail(r["applied_s"], 1e3), "ms"),
        "core.forecast_us.p99": (_tail(r["forecast_s"], 1e6), "us"),
        "core.forecast_rung.full": (r["rung_full"], "count"),
        "core.forecast_rung.linear": (r["rung_linear"], "count"),
        "core.forecast_rung.fallback": (r["rung_fallback"], "count"),
        "core.maintenance.count": (len(maint), "count"),
        "core.maintenance_ms.p50": (p50(maint), "ms"),
        "core.maintenance_ms.max": (max(maint, default=0.0), "ms"),
        "core.housekeep_ms.sum": (housekeep, "ms"),
        "core.checkpoint.delta_count": (len(delta), "count"),
        "core.checkpoint.delta_ms.p50": (p50(delta), "ms"),
        "core.checkpoint.delta_ms.max": (max(delta, default=0.0), "ms"),
        "core.checkpoint.bytes_per_arrival": (
            r["env_appended_bytes"] / max(1, r["window_arrivals"]), "B"),
        "core.checkpoint.files_opened": (r["env_opened"], "count"),
        "core.checkpoint.renames": (r["env_renames"], "count"),
        "core.checkpoint.syncs": (r["env_syncs"], "count"),
        "core.checkpoint.sync_ms.sum": (r["env_sync_s"] * 1e3, "ms"),
        "core.checkpoint.full_count": (len(full), "count"),
        "core.checkpoint.full_ms.p50": (p50(full), "ms"),
        "preprocessor.batch_us_per_arrival": (batch_s / max(1, ingests) * 1e6, "us"),
        "preprocessor.hit_us.mean": (hit_cost * 1e6, "us"),
        "preprocessor.miss_us.mean": ((hit_cost + r["parse_s"]) * 1e6, "us"),
        "preprocessor.cache_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "preprocessor.templates_created": (
            _delta(r, "counters", "preprocessor.templates_created_total"), "count"),
        "preprocessor.templates.live": (_gauge(r, "preprocessor.templates"), "count"),
        "preprocessor.history_mb": (_gauge(r, "preprocessor.history_bytes") / 2**20, "MB"),
        "preprocessor.history_resident_mb": (
            _gauge(r, "preprocessor.history_resident_bytes") / 2**20, "MB"),
        "sql.parses": (misses, "count"),
        "sql.parse_failures": (end_counters.get("preprocessor.parse_failures_total", 0), "count"),
        "clusterer.update_ms.p50": (p50(cluster), "ms"),
        "clusterer.update_ms.sum": (sum(cluster), "ms"),
        "clusterer.clusters": (_gauge(r, "clusterer.clusters"), "count"),
        "clusterer.kdtree_queries": (kd_queries, "count"),
        "clusterer.kdtree_nodes_per_query": (kd_probes / kd_queries if kd_queries else 0.0, "count"),
        "clusterer.templates_moved": (
            _delta(r, "counters", "clusterer.templates_moved_total"), "count"),
        "forecaster.train_ms.lr": (train["lr"], "ms"),
        "forecaster.train_ms.rnn": (train["rnn"], "ms"),
        "forecaster.train_ms.kr": (train["kr"], "ms"),
        "forecaster.predict_us.p50": (_hist_p50(predict) * 1e6, "us"),
        "forecaster.rollbacks": (_delta(r, "counters", "forecaster.rollbacks_total"), "count"),
        "forecaster.health_failures": (
            _delta(r, "counters", "forecaster.health_failures_total"), "count"),
        "workload.late_ms.p99": (stats.percentile(r["late_s"], 99) * 1e3, "ms"),
    }
    for layer, seconds in layers.items():
        m[f"layer_share.{layer}"] = (seconds / busy if busy else 0.0, "ratio")
    return m


# --- the run ------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-type", default="Release")
    ap.add_argument("--metrics", choices=("on", "off"), default="on")
    ap.add_argument("--force", action="store_true",
                    help="run a non-Release or metrics-off build anyway")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build(args.build_type, args.metrics)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = loadavg()
    started = time.monotonic()
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = OUT / "work" / f"{tag}.result.json"
    spans_path = OUT / "work" / f"{tag}.spans.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(result_path), "--spans", str(spans_path),
           "--work-dir", str(work)]
    if args.force:
        cmd.append("--force")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        log("load generator did not finish within the run's time budget")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)  # checkpoint files
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log(f"load generator exited with {proc.returncode}; no result")
        return 1
    r = load_json(result_path)
    # Share of the host's CPU time the hypervisor gave other guests while
    # the window and the burst ran: it tells a contended host from a slower
    # program when two runs disagree.
    steal = r["steal_jiffies"] / max(1, r["total_jiffies"])
    load_after = loadavg()

    e2e, attempted, failed = end_to_end(r)
    late_p99_ms = stats.percentile(r["late_s"], 99) * 1e3
    problems = []
    if late_p99_ms > LATE_P99_BOUND_MS:
        problems.append(f"open-loop generator ran late: p99 {late_p99_ms:.2f} ms "
                        f"> {LATE_P99_BOUND_MS} ms")
    for name, sample in (("applied", r["applied_s"]), ("forecast", r["forecast_s"])):
        q = stats.tail_percentile(len(sample))
        if q is None or q < 99.0:
            problems.append(f"{name} latency: {len(sample)} samples support only "
                            f"p{q}, not p99")
    layer = per_layer(r, load_json(spans_path)) if args.trace else None

    stamp = {
        "build_type": r["build_type"], "metrics_enabled": r["metrics_enabled"],
        "forced": r["forced"], "git_sha": git_sha(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": load_after, "cpu_steal_fraction": steal,
        "loadgen_cpu_s": r["loadgen_cpu_s"], "window_cpu_s": r["window_cpu_s"],
        "threads": r["threads"],
        "burst_wall_qps": [a / t for a, t in zip(r["burst_arrivals"], r["burst_s"])],
        "burst_deferred_s": [t - d for t, d in zip(r["burst_s"], r["burst_drain_s"])],
        "seed": args.seed,
        "window_seconds": args.seconds, "input_digest": r["input_digest"],
        "wall_seconds": round(time.monotonic() - started, 3),
        "samples": {"applied": len(r["applied_s"]), "forecast": len(r["forecast_s"]),
                    "setups": len(r["setup_s"])},
        "late_ms_p99": late_p99_ms,
        "valid": not problems, "problems": problems,
    }
    chosen = layer if args.trace else e2e
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (_, u) in chosen.items()}:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared.items()) ^ {(k, u) for k, (_, u) in chosen.items()})}")
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp, "attempted": attempted, "failed": failed,
        "forecast_errors": r["forecast_errors"],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": {k: v for k, (v, _) in layer.items()} if layer else None,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"build={stamp['build_type']} metrics={'on' if stamp['metrics_enabled'] else 'off'} "
          f"git={stamp['git_sha'] or 'n/a'} src={stamp['source_digest']} "
          f"nproc={stamp['nproc']} load={load_before[0]:.2f}->{load_after[0]:.2f} "
          f"steal={steal * 100:.1f}% "
          f"inputs={r['input_digest']} window={args.seconds}s")
    print(f"# samples: applied={len(r['applied_s'])} forecast={len(r['forecast_s'])} "
          f"set-ups={len(r['setup_s'])}; failed {failed}/{attempted} "
          f"(failed_fraction {failed / attempted:.6f})")
    print(f"# tails (per-layer metrics): applied p99 {_tail(r['applied_s'], 1e3):.6g} ms, "
          f"forecast p99 {_tail(r['forecast_s'], 1e6):.6g} us")
    for err in r["forecast_errors"][:3]:
        print(f"# forecast error: {err['error']}")
    for name, (value, unit) in chosen.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        report(args.workload, args.seed, layer, e2e)
    if problems:
        for p in problems:
            log(f"invalid run: {p}")
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


def report(workload, seed, layer, e2e):
    """Workload-design report: each layer's share of the service thread's
    busy time, plus the tracing overhead against the untraced run of the
    same seed when one was made in this checkout."""
    print(f"# service-thread busy time by layer ({workload}):")
    shares = sorted(((k.split(".", 1)[1], v) for k, (v, _) in layer.items()
                     if k.startswith("layer_share.")), key=lambda kv: -kv[1])
    for name, share in shares:
        print(f"#   {name:24s} {share * 100:6.1f}%")
    untraced = OUT / "runs" / f"{workload}-seed{seed}-trace0.json"
    if untraced.is_file():
        base = json.loads(untraced.read_text())["end_to_end"]
        print("# tracing overhead (traced - untraced, same seed):")
        for name, (value, unit) in e2e.items():
            print(f"#   {name:24s} {value - base[name]:+.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
