// Resilience-layer benchmarks (DESIGN.md §13): the cost of the bounded
// Forecast path and what a caller actually observes while maintenance is
// wedged in housekeeping, holding the state lock exclusively. The headline numbers are the bounded-forecast latency
// percentiles against the 1ms budget, uncontended and with a stalled
// writer — the latter is the scenario the degradation ladder exists for:
// the caller pays at most half the budget waiting for the state lock and
// then serves the lock-free fallback snapshot.
//
// Caveat for committed results: on a single-core host the hammering thread
// is preempted at scheduler-tick granularity (milliseconds), so the stalled
// p99 measures host noise on top of the ladder; tests/chaos_test.cc scales
// its assertion budget accordingly and the #KV lines below record the host
// parallelism next to the percentiles.
//
// Lines prefixed "#KV key value" are machine-readable; tools/bench_to_json.py
// collects them (plus the google-benchmark JSON) into BENCH_resilience.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/chaos.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/qb5000.h"
#include "preprocessor/templatizer.h"

using namespace qb5000;

namespace {

constexpr Timestamp kTrainTime = 3 * kSecondsPerDay;
constexpr double kBudgetSeconds = 0.001;

/// A controller with three days of sinusoidal history on two templates,
/// trained once — the same shape the chaos sweep uses, so the bench and the
/// regression tests measure the identical serving path.
QueryBot5000 MakeTrainedBot() {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 bot(config);
  auto a = Templatize("SELECT a FROM t WHERE id = 1");
  auto b = Templatize("SELECT b FROM u WHERE id = 2");
  for (int h = 0; h < 3 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 100 * (1.5 + std::sin(2 * M_PI * t));
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    if (!bot.IngestTemplatized(*a, ts, rate).ok() ||
        !bot.IngestTemplatized(*b, ts, rate / 2).ok()) {
      std::fprintf(stderr, "ingest refused at hour %d\n", h);
    }
  }
  Status st = bot.RunMaintenance(kTrainTime, /*force=*/true);
  if (!st.ok()) std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
  return bot;
}

double Percentile(std::vector<double>& sorted_in_place, double p) {
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  size_t n = sorted_in_place.size();
  if (n == 0) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return sorted_in_place[std::min(rank, n) - 1];
}

/// Bounded forecasts against an idle controller: the TimedReaderLock
/// acquires on the fast path and the full rung serves.
std::vector<double> UncontendedLatencies(QueryBot5000& bot, int samples) {
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    ForecastRung rung = ForecastRung::kFull;
    Stopwatch call;
    auto f = bot.Forecast(kTrainTime, kSecondsPerHour, kBudgetSeconds, &rung);
    latencies.push_back(call.ElapsedSeconds());
    benchmark::DoNotOptimize(f);
  }
  return latencies;
}

/// Bounded forecasts while a maintenance pass is wedged in housekeeping
/// holding the state lock exclusively (a chaos stall): every call should
/// give up the lock wait at budget/2 and serve the fallback rung.
std::vector<double> StalledLatencies(QueryBot5000& bot, double stall_seconds) {
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall,
                             "maintenance.housekeep", /*nth=*/0,
                             stall_seconds);
  std::vector<double> latencies;
  bool stall_fired = true;
  ThreadPool pool(2);
  pool.Run(2, [&](size_t task) {
    if (task == 0) {
      Status st = bot.RunMaintenance(kTrainTime + kSecondsPerDay,
                                     /*force=*/true);
      if (!st.ok()) {
        std::fprintf(stderr, "retrain: %s\n", st.ToString().c_str());
      }
      return;
    }
    // Bounded: a stall that never fires would otherwise spin here forever.
    Stopwatch wait;
    while (!ChaosHarness::Global().stall_active()) {
      if (wait.ElapsedSeconds() > 30.0) {
        stall_fired = false;
        return;
      }
      std::this_thread::yield();
    }
    Stopwatch guard;
    while (guard.ElapsedSeconds() < stall_seconds * 0.8) {
      ForecastRung rung = ForecastRung::kFull;
      Stopwatch call;
      auto f = bot.Forecast(kTrainTime, kSecondsPerHour, kBudgetSeconds,
                            &rung);
      latencies.push_back(call.ElapsedSeconds());
      benchmark::DoNotOptimize(f);
    }
  });
  ChaosHarness::Global().Reset();
  if (!stall_fired) {
    std::fprintf(stderr,
                 "the stall armed at maintenance.housekeep never fired\n");
    std::exit(1);
  }
  return latencies;
}

void ReportSummary() {
  QueryBot5000 bot = MakeTrainedBot();
  int samples = bench::FastMode() ? 200 : 2000;
  double stall_seconds = bench::FastMode() ? 0.5 : 2.0;

  auto uncontended = UncontendedLatencies(bot, samples);
  double un_p50 = Percentile(uncontended, 50.0);
  double un_p99 = Percentile(uncontended, 99.0);

  auto stalled = StalledLatencies(bot, stall_seconds);
  double st_p50 = Percentile(stalled, 50.0);
  double st_p99 = Percentile(stalled, 99.0);

  uint64_t fallbacks =
      bot.Metrics().GetCounter("core.forecast_rung_fallback_total")->value();
  std::printf("#KV hardware_threads %zu\n", GetThreadCount());
  std::printf("#KV budget_seconds %g\n", kBudgetSeconds);
  std::printf("#KV uncontended_samples %zu\n", uncontended.size());
  std::printf("#KV uncontended_p50_seconds %.6f\n", un_p50);
  std::printf("#KV uncontended_p99_seconds %.6f\n", un_p99);
  std::printf("#KV stalled_samples %zu\n", stalled.size());
  std::printf("#KV stalled_p50_seconds %.6f\n", st_p50);
  std::printf("#KV stalled_p99_seconds %.6f\n", st_p99);
  std::printf("#KV fallback_forecasts_served %llu\n",
              static_cast<unsigned long long>(fallbacks));
  std::printf(
      "bounded forecast (budget %.0fus): uncontended p50 %.0fus p99 %.0fus; "
      "stalled-maintenance p50 %.0fus p99 %.0fus over %zu calls "
      "(%llu served from the fallback rung)\n",
      kBudgetSeconds * 1e6, un_p50 * 1e6, un_p99 * 1e6, st_p50 * 1e6,
      st_p99 * 1e6, stalled.size(),
      static_cast<unsigned long long>(fallbacks));
}

void BM_ForecastUnbounded(benchmark::State& state) {
  QueryBot5000 bot = MakeTrainedBot();
  for (auto _ : state) {
    auto f = bot.Forecast(kTrainTime, kSecondsPerHour);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForecastUnbounded);

void BM_ForecastBoundedUncontended(benchmark::State& state) {
  QueryBot5000 bot = MakeTrainedBot();
  for (auto _ : state) {
    ForecastRung rung = ForecastRung::kFull;
    auto f = bot.Forecast(kTrainTime, kSecondsPerHour, kBudgetSeconds, &rung);
    benchmark::DoNotOptimize(f);
    benchmark::DoNotOptimize(rung);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForecastBoundedUncontended);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ReportSummary();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
