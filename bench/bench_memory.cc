// Memory-scale benchmark (DESIGN.md §15, ISSUE "Memory-scale arrival
// histories"): how far the compressed two-rung ArrivalHistory stretches
// template counts compared to the dense v1 representation, and what the
// sampled similarity probe saves over the exact center scan.
//
// Two sweeps, template counts {10k, 100k, 1M} (QB_BENCH_FAST shrinks to
// {2k, 10k}):
//
//   history bytes  build N synthetic per-template histories (bursty minute
//                  traffic placed anywhere in a 30-day span, compacted at
//                  the default horizon as the service loop would), report
//                  the share whose minute rung is non-empty and the real
//                  compressed footprint (StorageBytes) and process RSS
//                  delta against a dense model of the same coverage, and
//                  the bytes and time of encoding every history as a full
//                  checkpoint does (EncodeTo). The
//                  dense model is tight-fit (capacity == size), i.e. it
//                  UNDERSTATES the dense footprint, so the reported ratios
//                  are conservative. At the smallest N the dense twin set is
//                  also actually materialized one-at-a-time and measured
//                  (HeapBytes) to anchor the model.
//
//   probe cost     clusterer state with K = N/200 centers restored with
//                  the exact scan vs sampled probing forced (threshold
//                  SIZE_MAX vs 0); measures restore time, per-probe
//                  latency, and the agreement rate between the exact and
//                  sampled answers — the exactness the default
//                  sampled_probe_template_threshold = 100000 trades away.
//
// Lines prefixed "#KV key value" are machine-readable; tools/bench_to_json.py
// collects them (plus the google-benchmark JSON) into BENCH_memory.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clusterer/online_clusterer.h"
#include "common/clock.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "preprocessor/arrival_history.h"
#include "preprocessor/preprocessor.h"

using namespace qb5000;

namespace {

constexpr Timestamp kSpan = 30 * kSecondsPerDay;
/// Where the minute rung starts once the span is compacted at the default
/// horizon: minutes after it, hours before it.
constexpr Timestamp kRecentStart =
    kSpan - PreProcessor::Options{}.compaction_horizon_seconds;

/// VmRSS in bytes (0 when /proc is unavailable).
size_t CurrentRssBytes() {
  auto status = ReadFileToString(nullptr, "/proc/self/status");
  if (!status.ok()) return 0;
  size_t pos = status->find("VmRSS:");
  if (pos == std::string::npos) return 0;
  return static_cast<size_t>(
             std::strtoll(status->c_str() + pos + 6, nullptr, 10)) *
         1024;
}

/// The synthetic per-template schedule: 30-200 recorded buckets in bursts
/// of consecutive minutes with hour-scale gaps — the bursty, mostly-idle
/// shape real template traffic has. Laid out from time 0, then shifted by
/// a uniform offset that keeps it inside the 30-day span, so histories end
/// across the whole span and those ending in its last days keep a minute
/// rung, as a live controller's recent templates do.
struct Burst {
  Timestamp start = 0;
  int buckets = 0;
};

std::vector<Burst> MakeSchedule(Rng& rng) {
  std::vector<Burst> bursts;
  Timestamp t = 0;
  for (int remaining = static_cast<int>(rng.UniformInt(30, 200));
       remaining > 0;) {
    int burst = static_cast<int>(
        std::min<int64_t>(remaining, rng.UniformInt(5, 30)));
    bursts.push_back({t, burst});
    remaining -= burst;
    t += burst * kSecondsPerMinute +
         rng.UniformInt(1, 600) * kSecondsPerMinute;
  }
  // At most 40 bursts with gaps of at most 630 minutes: the schedule spans
  // under 18 days, so the offset range is never empty.
  const Burst& last = bursts.back();
  Timestamp end = last.start + last.buckets * kSecondsPerMinute;
  Timestamp offset = rng.UniformInt(0, kSpan - kSecondsPerHour - end);
  for (Burst& b : bursts) b.start += offset;
  return bursts;
}

double NextCount(Rng& rng) { return static_cast<double>(rng.UniformInt(1, 30)); }

/// Builds one compressed history from a schedule, compacted the way the
/// maintenance loop leaves it under default options.
void FillHistory(const std::vector<Burst>& bursts, uint64_t seed,
                 ArrivalHistory* h) {
  Rng rng(seed);
  for (const Burst& b : bursts) {
    Timestamp t = b.start;
    for (int i = 0; i < b.buckets; ++i, t += kSecondsPerMinute) {
      h->Record(t, NextCount(rng));
    }
  }
  h->Compact(kRecentStart);
}

/// Tight-fit dense model of the same post-compaction coverage: the v1
/// representation held one double per minute bucket from the recent rung's
/// start to its end plus one per archive hour. Uses exact spans,
/// capacity == size — a floor on what dense would really allocate.
size_t DenseModelBytes(const ArrivalHistory& h) {
  size_t buckets = 0;
  // Span bounds are cheap (cached scalars); rung windows are not needed —
  // dense storage is one slot per covered bucket regardless of value.
  Timestamp first = h.FirstTime();
  if (first == 0 && h.Total() == 0.0) return 2 * sizeof(TimeSeries);
  Timestamp end = std::max(h.last_arrival() + kSecondsPerMinute, kRecentStart);
  if (end > kRecentStart) {
    buckets += static_cast<size_t>((end - kRecentStart) / kSecondsPerMinute);
  }
  if (first < kRecentStart) {
    buckets += static_cast<size_t>(
        (AlignDown(kRecentStart + kSecondsPerHour - 1, kSecondsPerHour) -
         AlignDown(first, kSecondsPerHour)) /
        kSecondsPerHour);
  }
  return buckets * sizeof(double) + 2 * sizeof(TimeSeries);
}

/// Actually materializes the dense twin (minute vector over the recent
/// span, hour vector over the archive span) and returns its HeapBytes —
/// the anchor measurement for DenseModelBytes.
size_t DenseMeasuredBytes(const ArrivalHistory& h) {
  Timestamp first = h.FirstTime();
  if (first == 0 && h.Total() == 0.0) return 2 * sizeof(TimeSeries);
  Timestamp end = std::max(h.last_arrival() + kSecondsPerMinute, kRecentStart);
  TimeSeries recent(kRecentStart, kSecondsPerMinute);
  if (end > kRecentStart) {
    recent.Reset(kRecentStart, kSecondsPerMinute,
                 static_cast<size_t>((end - kRecentStart) / kSecondsPerMinute));
  }
  TimeSeries archive(AlignDown(first, kSecondsPerHour), kSecondsPerHour);
  if (first < kRecentStart) {
    archive.Reset(AlignDown(first, kSecondsPerHour), kSecondsPerHour,
                  static_cast<size_t>(
                      (AlignDown(kRecentStart + kSecondsPerHour - 1,
                                 kSecondsPerHour) -
                       AlignDown(first, kSecondsPerHour)) /
                      kSecondsPerHour));
  }
  return recent.HeapBytes() + archive.HeapBytes() + 2 * sizeof(TimeSeries);
}

struct HistorySweepResult {
  size_t templates = 0;
  size_t with_minute_rung = 0;  ///< histories with an arrival after kRecentStart
  size_t compressed_bytes = 0;
  size_t dense_model_bytes = 0;
  size_t rss_delta_bytes = 0;
  double build_seconds = 0.0;
  size_t encode_bytes = 0;  ///< checkpoint text of every history
  double encode_seconds = 0.0;
};

HistorySweepResult RunHistorySweep(size_t templates) {
  HistorySweepResult r;
  r.templates = templates;
  size_t rss_before = CurrentRssBytes();
  Stopwatch watch;
  std::vector<ArrivalHistory> histories(templates);
  for (size_t i = 0; i < templates; ++i) {
    Rng rng(0x486973746f727921ULL ^ i);
    auto schedule = MakeSchedule(rng);
    FillHistory(schedule, 0xC0FFEE ^ i, &histories[i]);
  }
  r.build_seconds = watch.ElapsedSeconds();
  for (const auto& h : histories) {
    if (h.last_arrival() >= kRecentStart) ++r.with_minute_rung;
    r.compressed_bytes += h.StorageBytes();
    r.dense_model_bytes += DenseModelBytes(h);
  }
  r.rss_delta_bytes = CurrentRssBytes() - rss_before;
  // What a full checkpoint spends on the histories: each one's snapshot
  // payload through EncodeTo, into one buffer cleared between histories.
  std::string encoded;
  watch.Restart();
  for (const auto& h : histories) {
    encoded.clear();
    h.EncodeTo(&encoded);
    r.encode_bytes += encoded.size();
  }
  r.encode_seconds = watch.ElapsedSeconds();
  return r;
}

// --- probe sweep ------------------------------------------------------------

/// `sampled_threshold`: SIZE_MAX keeps the exact center scan, 0 forces
/// sampled probing (RestoreState plans on the restored template count).
OnlineClusterer MakeClusterer(size_t sampled_threshold, size_t clusters,
                              MetricsRegistry* metrics) {
  OnlineClusterer::Options options;
  options.sampled_probe_template_threshold = sampled_threshold;
  options.metrics = metrics;
  OnlineClusterer clusterer(options);

  Rng rng(0x50726f6265ULL);
  std::map<ClusterId, OnlineClusterer::Cluster> state;
  for (size_t k = 0; k < clusters; ++k) {
    OnlineClusterer::Cluster c;
    c.id = static_cast<ClusterId>(k + 1);
    c.center.resize(288);
    for (double& v : c.center) {
      v = static_cast<double>(rng.UniformInt(0, 40));
    }
    c.members.insert(static_cast<TemplateId>(k + 1));
    c.volume = 1.0;
    state.emplace(c.id, std::move(c));
  }
  Status st = clusterer.RestoreState(std::move(state),
                                     static_cast<ClusterId>(clusters + 1), 0);
  if (!st.ok()) std::fprintf(stderr, "RestoreState: %s\n", st.ToString().c_str());
  return clusterer;
}

std::vector<ArrivalRateFeature::Feature> MakeProbes(size_t n,
                                                    size_t clusters) {
  // Half the probes are perturbed copies of real centers (a near-match
  // exists), half are fresh noise (usually no match above rho) — both
  // sides of the assignment decision get timed.
  Rng rng(0x46656174ULL);
  Rng centers(0x50726f6265ULL);
  std::vector<std::vector<double>> center_values(clusters);
  for (size_t k = 0; k < clusters; ++k) {
    center_values[k].resize(288);
    for (double& v : center_values[k]) {
      v = static_cast<double>(centers.UniformInt(0, 40));
    }
  }
  std::vector<ArrivalRateFeature::Feature> probes(n);
  for (size_t i = 0; i < n; ++i) {
    probes[i].values.resize(288);
    if (i % 2 == 0 && clusters > 0) {
      const auto& base =
          center_values[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(clusters) - 1))];
      for (size_t d = 0; d < 288; ++d) {
        probes[i].values[d] = base[d] + static_cast<double>(
                                            rng.UniformInt(0, 4)) -
                              2.0;
        probes[i].values[d] = std::max(0.0, probes[i].values[d]);
      }
    } else {
      for (double& v : probes[i].values) {
        v = static_cast<double>(rng.UniformInt(0, 40));
      }
    }
  }
  return probes;
}

struct ProbeSweepResult {
  size_t templates = 0;
  size_t clusters = 0;
  double exact_rebuild_ms = 0.0;
  double sampled_rebuild_ms = 0.0;
  double exact_probe_us = 0.0;
  double sampled_probe_us = 0.0;
  double agreement = 1.0;
};

ProbeSweepResult RunProbeSweep(size_t templates) {
  ProbeSweepResult r;
  r.templates = templates;
  r.clusters = std::max<size_t>(16, templates / 200);
  MetricsRegistry metrics;
  constexpr size_t kProbes = 256;
  auto probes = MakeProbes(kProbes, r.clusters);

  Stopwatch watch;
  OnlineClusterer exact = MakeClusterer(SIZE_MAX, r.clusters, &metrics);
  r.exact_rebuild_ms = watch.ElapsedSeconds() * 1e3;
  watch.Restart();
  OnlineClusterer sampled = MakeClusterer(0, r.clusters, &metrics);
  r.sampled_rebuild_ms = watch.ElapsedSeconds() * 1e3;

  std::vector<ClusterId> exact_answers(kProbes), sampled_answers(kProbes);
  watch.Restart();
  for (size_t i = 0; i < kProbes; ++i) {
    exact_answers[i] = exact.ProbeBest(probes[i]);
  }
  r.exact_probe_us = watch.ElapsedSeconds() * 1e6 / kProbes;
  watch.Restart();
  for (size_t i = 0; i < kProbes; ++i) {
    sampled_answers[i] = sampled.ProbeBest(probes[i]);
  }
  r.sampled_probe_us = watch.ElapsedSeconds() * 1e6 / kProbes;

  size_t agree = 0;
  for (size_t i = 0; i < kProbes; ++i) {
    if (exact_answers[i] == sampled_answers[i]) ++agree;
  }
  r.agreement = static_cast<double>(agree) / kProbes;
  return r;
}

// --- report -----------------------------------------------------------------

void ReportSummary() {
  bench::PrintHeader("Memory-scale arrival histories",
                     "compressed tiered storage + sampled similarity "
                     "(DESIGN.md §15)");
  bool fast = bench::FastMode();
  std::vector<size_t> sweep =
      fast ? std::vector<size_t>{2'000, 10'000}
           : std::vector<size_t>{10'000, 100'000, 1'000'000};

  // Anchor: materialize the dense twins at the smallest N and compare the
  // tight-fit model against real vector allocations.
  {
    size_t n = sweep.front() / 2;
    size_t model = 0, measured = 0;
    for (size_t i = 0; i < n; ++i) {
      Rng rng(0x486973746f727921ULL ^ i);
      auto schedule = MakeSchedule(rng);
      ArrivalHistory h;
      FillHistory(schedule, 0xC0FFEE ^ i, &h);
      model += DenseModelBytes(h);
      measured += DenseMeasuredBytes(h);
    }
    std::printf("#KV dense_anchor_templates %zu\n", n);
    std::printf("#KV dense_anchor_model_bytes %zu\n", model);
    std::printf("#KV dense_anchor_measured_bytes %zu\n", measured);
    std::printf(
        "dense model anchor (%zu templates): model %.1f MB vs measured "
        "%.1f MB (model/measured %.3f)\n",
        n, model / 1048576.0, measured / 1048576.0,
        static_cast<double>(model) / static_cast<double>(measured));
  }

  std::vector<HistorySweepResult> history_results;
  for (size_t n : sweep) {
    HistorySweepResult r = RunHistorySweep(n);
    history_results.push_back(r);
    std::printf("#KV history_templates_%zu %zu\n", n, n);
    std::printf("#KV minute_rung_share_%zu %.3f\n", n,
                static_cast<double>(r.with_minute_rung) /
                    static_cast<double>(n));
    std::printf("#KV compressed_bytes_%zu %zu\n", n, r.compressed_bytes);
    std::printf("#KV dense_model_bytes_%zu %zu\n", n, r.dense_model_bytes);
    std::printf("#KV dense_over_compressed_%zu %.2f\n", n,
                static_cast<double>(r.dense_model_bytes) /
                    static_cast<double>(r.compressed_bytes));
    std::printf("#KV rss_delta_mb_%zu %.1f\n", n,
                r.rss_delta_bytes / 1048576.0);
    std::printf("#KV history_build_seconds_%zu %.2f\n", n, r.build_seconds);
    std::printf("#KV history_encode_bytes_%zu %zu\n", n, r.encode_bytes);
    std::printf("#KV history_encode_ms_%zu %.1f\n", n,
                r.encode_seconds * 1e3);
    std::printf(
        "histories n=%zu: compressed %.1f MB (rss delta %.1f MB), dense "
        "model %.1f MB -> %.1fx, minute rung in %.1f%%, built in %.1fs\n",
        n, r.compressed_bytes / 1048576.0, r.rss_delta_bytes / 1048576.0,
        r.dense_model_bytes / 1048576.0,
        static_cast<double>(r.dense_model_bytes) /
            static_cast<double>(r.compressed_bytes),
        100.0 * static_cast<double>(r.with_minute_rung) /
            static_cast<double>(n),
        r.build_seconds);
    std::printf("histories n=%zu: encoded %.1f MB in %.1f ms (%.0f MB/s)\n", n,
                r.encode_bytes / 1048576.0, r.encode_seconds * 1e3,
                r.encode_bytes / 1048576.0 / r.encode_seconds);
  }

  // Acceptance: 10x the templates at < 2x the dense history bytes.
  if (history_results.size() >= 2) {
    const auto& big = history_results.back();
    const auto& ref = history_results[history_results.size() - 2];
    double ratio = static_cast<double>(big.compressed_bytes) /
                   static_cast<double>(ref.dense_model_bytes);
    std::printf("#KV compressed_%zu_over_dense_%zu %.2f\n", big.templates,
                ref.templates, ratio);
    std::printf(
        "acceptance: compressed@%zu = %.2fx dense@%zu history bytes "
        "(target < 2.0)\n",
        big.templates, ratio, ref.templates);
  }

  for (size_t n : sweep) {
    ProbeSweepResult r = RunProbeSweep(n);
    const char* winner =
        r.sampled_probe_us + r.sampled_rebuild_ms * 1e3 / 256 <
                r.exact_probe_us + r.exact_rebuild_ms * 1e3 / 256
            ? "sampled"
            : "exact";
    std::printf("#KV probe_clusters_%zu %zu\n", n, r.clusters);
    std::printf("#KV exact_rebuild_ms_%zu %.2f\n", n, r.exact_rebuild_ms);
    std::printf("#KV sampled_rebuild_ms_%zu %.2f\n", n, r.sampled_rebuild_ms);
    std::printf("#KV exact_probe_us_%zu %.1f\n", n, r.exact_probe_us);
    std::printf("#KV sampled_probe_us_%zu %.1f\n", n, r.sampled_probe_us);
    std::printf("#KV probe_agreement_%zu %.3f\n", n, r.agreement);
    std::printf("#KV probe_winner_%zu %s\n", n, winner);
    std::printf(
        "probe n=%zu (K=%zu): exact rebuild %.1f ms + %.1f us/probe, "
        "sampled rebuild %.1f ms + %.1f us/probe, agreement %.1f%% -> %s\n",
        n, r.clusters, r.exact_rebuild_ms, r.exact_probe_us, r.sampled_rebuild_ms,
        r.sampled_probe_us, 100.0 * r.agreement, winner);
  }
}

// --- google-benchmark smoke microbenches ------------------------------------

void BM_CompressedRecord(benchmark::State& state) {
  // Steady-state Record throughput into one compressed history (append
  // path, bursty schedule).
  Rng rng(1);
  auto schedule = MakeSchedule(rng);
  for (auto _ : state) {
    ArrivalHistory h;
    Rng counts(2);
    size_t records = 0;
    for (const Burst& b : schedule) {
      Timestamp t = b.start;
      for (int i = 0; i < b.buckets; ++i, t += kSecondsPerMinute) {
        h.Record(t, NextCount(counts));
        ++records;
      }
    }
    benchmark::DoNotOptimize(h);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(records));
  }
}
BENCHMARK(BM_CompressedRecord);

void BM_ProbeExact(benchmark::State& state) {
  MetricsRegistry metrics;
  size_t clusters = static_cast<size_t>(state.range(0));
  OnlineClusterer clusterer = MakeClusterer(SIZE_MAX, clusters, &metrics);
  auto probes = MakeProbes(64, clusters);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.ProbeBest(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_ProbeExact)->Arg(512);

void BM_ProbeSampled(benchmark::State& state) {
  MetricsRegistry metrics;
  size_t clusters = static_cast<size_t>(state.range(0));
  OnlineClusterer clusterer = MakeClusterer(0, clusters, &metrics);
  auto probes = MakeProbes(64, clusters);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.ProbeBest(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_ProbeSampled)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ReportSummary();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
