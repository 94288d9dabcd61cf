"""Statistics shared by run.py and compare.py.

Everything here is a pure function of its arguments so test_stats.py can pin
the rules down: which percentile a sample supports, how failures count, how
a layer's self time is taken from nested spans, and the verdict rules for
comparing a parent commit with a change (choosing-metrics sections 6-8:
ten or more seed-paired runs per side, a gain needs nine tenths of all pairs
run and a median shift larger than the parent's own quartile spread, and a
spread wider than the bound leaves a metric unresolved).
"""

import math
import statistics

# Percentiles a latency sample may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10
# Parent/change pairs a verdict needs (choosing-metrics section 8).
MIN_PAIRS = 10


def percentile(values, q):
    """Nearest-rank percentile of `values` (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n):
    """The highest percentile with at least TAIL_SAMPLES samples beyond it
    in a sample of `n`, or None when even the median has fewer."""
    for q in PERCENTILES:
        # Integer arithmetic on tenths of a percent avoids 0.999*n rounding.
        beyond = n - math.ceil(round(q * 10) * n / 1000)
        if beyond >= TAIL_SAMPLES:
            return q
    return None


def segment_percentile(values, q):
    """Median over consecutive segments of `values` (in time order) of each
    segment's q-th percentile. There are as many segments as keep
    TAIL_SAMPLES beyond the q-th percentile in each (20 samples for the
    median, 1000 for p99), so a stall or descheduling burst moves the
    segments it falls in, not the reported value."""
    n = len(values)
    k = max(1, n // math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0)))
    bounds = [n * i // k for i in range(k + 1)]
    return statistics.median(percentile(values[a:b], q)
                             for a, b in zip(bounds, bounds[1:]))


def burst_capacity(arrivals, seconds):
    """Median over closed-loop bursts of each one's arrivals per second of
    the program's CPU time. A burst is timed from its first enqueue until
    the service is idle again, so the maintenance and checkpoint its full
    ring deferred count. CPU time leaves out the time the host gave the
    vCPUs to other guests, and the median a burst it slowed all the same."""
    rates = [a / t for a, t in zip(arrivals, seconds) if t > 0]
    if not rates or len(rates) != len(arrivals):
        raise ValueError("every burst needs arrivals and a positive time")
    return statistics.median(rates)


def failed_fraction(attempted, failed):
    """Failed operations over attempted ones. A refused or failed request
    counts as failed; an empty run is an error, not a perfect score."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def _better(a, b, better):
    """True when value `a` is better than `b`."""
    return a < b if better == "lower" else a > b


def win_ratio(pairs, better):
    """(wins, pairs) of the change over the parent. Ties count for neither
    side, and a pair with a missing side (None: an invalid run, or a seed run
    on one side only) is a pair the change did not win."""
    wins = sum(1 for parent, change in pairs
               if parent is not None and change is not None
               and _better(change, parent, better))
    return wins, len(pairs)


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict for one workload x metric.

    `parent` and `change` hold one entry per seed run, paired by index (same
    seed, alternating order); None marks a run that was invalid or missing
    on that side. Medians and quartiles use the valid runs; the nine-tenths
    rule counts every pair. Returns one of "improved", "no worse", "worse",
    "unresolved" (also for fewer than MIN_PAIRS pairs).
    """
    if len(parent) != len(change):
        raise ValueError("need one entry per seed run on both sides")
    p_valid = [v for v in parent if v is not None]
    c_valid = [v for v in change if v is not None]
    if len(parent) < MIN_PAIRS or not p_valid or not c_valid:
        return "unresolved"
    p_q1, p_med, p_q3 = quartiles(p_valid)
    c_med = statistics.median(c_valid)
    all_better = all(_better(c, p, better) for c in c_valid for p in p_valid)
    all_worse = all(_better(p, c, better) for c in c_valid for p in p_valid)
    if spread(p_valid) > bound and not all_better:
        return "worse" if all_worse else "unresolved"
    wins, n = win_ratio(list(zip(parent, change)), better)
    shift = abs(c_med - p_med)
    if (_better(c_med, p_med, better) and wins >= 0.9 * n
            and shift > p_q3 - p_q1 and change_failed <= parent_failed):
        return "improved"
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if worse_by > bound * abs(p_med):
        return "worse"
    return "no worse"


def self_times(spans, eps=20e-6):
    """Self time of each span: its duration minus the part its direct
    children cover. Spans nest by time on one thread; `spans` are dicts with
    thread/start/end. Returns a list parallel to `spans`."""
    result = [s["end"] - s["start"] for s in spans]
    by_thread = {}
    for i, s in enumerate(spans):
        by_thread.setdefault(s["thread"], []).append(i)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i]["start"], -spans[i]["end"]))
        stack = []
        for i in indices:
            s = spans[i]
            while stack and spans[stack[-1]]["end"] <= s["start"] + eps:
                stack.pop()
            if stack and spans[stack[-1]]["end"] + eps >= s["end"]:
                result[stack[-1]] -= s["end"] - s["start"]
            stack.append(i)
    return [max(0.0, r) for r in result]
