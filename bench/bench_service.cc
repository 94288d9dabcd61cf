// Always-on service benchmarks (DESIGN.md §14): what ingest throughput and
// forecast latency actually cost once the controller runs as a service —
// producers enqueue into the bounded service queue, a background thread drains,
// trains, and writes periodic checkpoints, and Forecast reads the
// epoch-swapped snapshot. The acceptance bars (tracked in EXPERIMENTS.md):
// sustained enqueue throughput within 5% of the standalone service (no
// training, no checkpointing) while maintenance and checkpoints run
// continuously, and bounded Forecast p99 inside the PR 7 budget serving the
// full rung — the ladder should no longer fire on retrains, only on true
// overload.
//
// Caveat for committed results: the 5% bar is not met even on a 4-thread
// host, and the ratio varies widely between runs. The producer keeps the
// queue non-empty, so the service thread drains nearly the whole feed in one
// round and runs maintenance and the checkpoint only when the queue
// empties; the ratio prices those one or two passes, serial with the drain
// on the service thread, against a feed of a fraction of a second
// (EXPERIMENTS.md). The #KV lines record the host parallelism and the
// round, publication and checkpoint-write counts next to every headline
// figure.
//
// Lines prefixed "#KV key value" are machine-readable; tools/bench_to_json.py
// collects them (plus the google-benchmark JSON) into BENCH_service.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/qb5000.h"

using namespace qb5000;

namespace {

constexpr size_t kDistinct = 64;
constexpr size_t kBatch = 64;
constexpr double kBudgetSeconds = 0.001;  // the PR 7 bounded-forecast budget

/// Same repeat-heavy statement mix as bench_ingest (point lookups,
/// updates, a join tail) so the service numbers are comparable with the
/// synchronous ingest-path numbers.
std::string MakeStatement(size_t t, Rng& rng) {
  std::string tbl = std::to_string(t);
  switch (t % 4) {
    case 0:
      return "SELECT * FROM orders_" + tbl +
             " WHERE id = " + std::to_string(rng.UniformInt(1, 100000));
    case 1:
      return "SELECT status, total FROM orders_" + tbl +
             " WHERE customer_id = " +
             std::to_string(rng.UniformInt(1, 100000)) + " AND region = 'r" +
             std::to_string(rng.UniformInt(1, 8)) + "'";
    case 2:
      return "UPDATE orders_" + tbl + " SET status = 's" +
             std::to_string(rng.UniformInt(1, 5)) +
             "' WHERE id = " + std::to_string(rng.UniformInt(1, 100000));
    default:
      return "SELECT o.id, o.total, c.name FROM orders_" + tbl +
             " o JOIN customers c ON o.customer_id = c.id WHERE o.region = "
             "'r" +
             std::to_string(rng.UniformInt(1, 8)) + "' AND o.total > " +
             std::to_string(rng.UniformInt(1, 10000)) +
             " ORDER BY o.ts DESC LIMIT 50";
  }
}

std::vector<std::string> MakeTrace(size_t n, size_t variants, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> pool;
  pool.reserve(kDistinct * variants);
  for (size_t t = 0; t < kDistinct; ++t) {
    for (size_t v = 0; v < variants; ++v) pool.push_back(MakeStatement(t, rng));
  }
  std::vector<std::string> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.push_back(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  return trace;
}

QueryBot5000::Config ServiceConfig(Timestamp maintenance_period) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  config.maintenance_period_seconds = maintenance_period;
  return config;
}

/// Enqueues `trace` in kBatch-sized chunks, each batch `ts_step` seconds
/// after the previous, retrying kOverloaded with a yield (the documented
/// caller policy). Returns the producer-side wall seconds including the
/// final drain-to-empty.
double FeedTimed(QueryBot5000& bot, const std::vector<std::string>& trace,
                 Timestamp ts_start, Timestamp ts_step) {
  std::vector<QueryArrival> batch;
  batch.reserve(kBatch);
  Timestamp ts = ts_start;
  Stopwatch timer;
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    batch.clear();
    size_t end = std::min(trace.size(), i + kBatch);
    for (size_t j = i; j < end; ++j) batch.push_back({trace[j], ts, 1.0});
    while (true) {
      Status st = bot.EnqueueBatch(batch);
      if (st.ok()) break;
      std::this_thread::yield();
    }
    ts += ts_step;
  }
  bot.DrainForTest();
  return timer.ElapsedSeconds();
}

double Percentile(std::vector<double>& sorted_in_place, double p) {
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  size_t n = sorted_in_place.size();
  if (n == 0) return 0.0;
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return sorted_in_place[std::min(rank, n) - 1];
}

/// The headline comparison. Standalone: the service drains with maintenance
/// and checkpointing off — pure queue hand-off plus templatization. Loaded:
/// the same trace with a retrain due every `maintenance_period` of arrival
/// time and a checkpoint due every checkpoint period (the service
/// thread runs them whenever the queue empties), with a reader thread
/// issuing a bounded Forecast every millisecond — the planner-style cadence
/// of the paper's consumer, paced so the throughput delta isolates the
/// background duties rather than a busy-looping reader (which on a
/// single-core host would just measure the scheduler splitting one CPU
/// three ways).
void ReportSummary() {
  size_t n = bench::FastMode() ? 16384 : 131072;
  auto trace = MakeTrace(n, 8, 11);
  // 30s of arrival time per batch: a 131072-arrival run spans ~17 hours of
  // virtual time, so a 600s maintenance period and checkpoint period are
  // due again every time the queue empties during the feed.
  constexpr Timestamp kStep = 30;
  constexpr Timestamp kPeriod = 600;
  const Timestamp warm_end = kSecondsPerDay;

  // Standalone: background drain only.
  double standalone_seconds;
  {
    QueryBot5000 bot(ServiceConfig(/*maintenance_period=*/365 *
                                   kSecondsPerDay));
    QueryBot5000::ServiceOptions opts;
    opts.queue_capacity = 1024;
    opts.background = true;
    opts.auto_maintenance = false;
    if (!bot.StartService(opts).ok()) return;
    // Warm the template cache so both runs measure the steady state.
    (void)FeedTimed(bot, MakeTrace(4096, 8, 11), 0, kStep);
    standalone_seconds = FeedTimed(bot, trace, warm_end, kStep);
    (void)bot.StopService();
  }

  // Loaded: training + periodic checkpointing + a forecast reader.
  double loaded_seconds;
  std::vector<double> latencies;
  uint64_t full_rung = 0, lower_rung = 0;
  uint64_t epochs, checkpoint_writes, bg_rounds, stalls;
  {
    QueryBot5000 bot(ServiceConfig(/*maintenance_period=*/kPeriod));
    const std::string path = "/tmp/qb5000_bench_service_ckpt.qbc";
    QueryBot5000::ServiceOptions opts;
    opts.queue_capacity = 1024;
    opts.background = true;
    opts.auto_maintenance = true;
    opts.checkpoint_path = path;
    opts.checkpoint_period_seconds = kPeriod;
    if (!bot.StartService(opts).ok()) return;
    (void)FeedTimed(bot, MakeTrace(4096, 8, 11), 0, kStep);

    std::atomic<bool> feeding{true};  // lint:raw-atomic-ok (bench stop flag)
    ThreadPool pool(2);
    pool.Run(2, [&](size_t task) {
      if (task == 0) {
        loaded_seconds = FeedTimed(bot, trace, warm_end, kStep);
        feeding.store(false, std::memory_order_release);
        return;
      }
      while (feeding.load(std::memory_order_acquire)) {
        ForecastRung rung = ForecastRung::kFull;
        Stopwatch call;
        auto f = bot.Forecast(warm_end, kSecondsPerHour, kBudgetSeconds,
                              &rung);
        latencies.push_back(call.ElapsedSeconds());
        if (f.ok() && rung == ForecastRung::kFull) {
          ++full_rung;
        } else {
          ++lower_rung;
        }
        benchmark::DoNotOptimize(f);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    epochs = bot.model_epoch();
    checkpoint_writes =
        bot.Metrics().GetCounter("checkpoint.writes_total")->value();
    bg_rounds = bot.Metrics().GetCounter("core.bg_rounds_total")->value();
    stalls =
        bot.Metrics().GetCounter("core.queue_enqueue_stalls_total")->value();
    (void)bot.StopService();
  }

  double standalone_qps = static_cast<double>(n) / standalone_seconds;
  double loaded_qps = static_cast<double>(n) / loaded_seconds;
  double p50 = Percentile(latencies, 50.0);
  double p99 = Percentile(latencies, 99.0);
  double full_fraction =
      latencies.empty()
          ? 0.0
          : static_cast<double>(full_rung) /
                static_cast<double>(full_rung + lower_rung);

  std::printf("#KV hardware_threads %zu\n", GetThreadCount());
  std::printf("#KV arrivals %zu\n", n);
  std::printf("#KV standalone_qps %.0f\n", standalone_qps);
  std::printf("#KV loaded_qps %.0f\n", loaded_qps);
  std::printf("#KV loaded_over_standalone %.4f\n",
              loaded_qps / standalone_qps);
  std::printf("#KV model_epochs %llu\n",
              static_cast<unsigned long long>(epochs));
  std::printf("#KV checkpoint_writes %llu\n",
              static_cast<unsigned long long>(checkpoint_writes));
  std::printf("#KV bg_rounds %llu\n",
              static_cast<unsigned long long>(bg_rounds));
  std::printf("#KV enqueue_stalls %llu\n",
              static_cast<unsigned long long>(stalls));
  std::printf("#KV budget_seconds %g\n", kBudgetSeconds);
  std::printf("#KV forecast_samples %zu\n", latencies.size());
  std::printf("#KV forecast_p50_seconds %.6f\n", p50);
  std::printf("#KV forecast_p99_seconds %.6f\n", p99);
  std::printf("#KV forecast_full_rung_fraction %.4f\n", full_fraction);
  std::printf(
      "service ingest: standalone %.2fM q/s, with continuous training + "
      "checkpoints %.2fM q/s (%.1f%%); forecast under load p50 %.0fus "
      "p99 %.0fus over %zu calls, %.1f%% full rung "
      "(%llu retrains, %llu checkpoint writes)\n",
      standalone_qps / 1e6, loaded_qps / 1e6,
      100.0 * loaded_qps / standalone_qps, p50 * 1e6, p99 * 1e6,
      latencies.size(), 100.0 * full_fraction,
      static_cast<unsigned long long>(epochs),
      static_cast<unsigned long long>(checkpoint_writes));
}

/// Producer+consumer cost of one batch through the queue in foreground
/// mode — the queue-layer overhead a caller pays over calling IngestBatch
/// directly (BM_ServiceSyncIngestBatch below).
void BM_ServiceEnqueueDrainBatch(benchmark::State& state) {
  auto trace = MakeTrace(kBatch * 256, 8, 21);
  QueryBot5000 bot(ServiceConfig(365 * kSecondsPerDay));
  QueryBot5000::ServiceOptions opts;
  opts.queue_capacity = 16;
  opts.background = false;
  opts.auto_maintenance = false;
  if (!bot.StartService(opts).ok()) return;
  std::vector<QueryArrival> batch(kBatch);
  size_t i = 0;
  Timestamp ts = 0;
  for (auto _ : state) {
    for (size_t j = 0; j < kBatch; ++j) {
      batch[j] = {trace[(i + j) % trace.size()], ts, 1.0};
    }
    if (!bot.EnqueueBatch(batch).ok()) {
      bot.DrainForTest();
      (void)bot.EnqueueBatch(batch);
    }
    i = (i + kBatch) % trace.size();
    ++ts;
  }
  bot.DrainForTest();
  (void)bot.StopService();
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ServiceEnqueueDrainBatch);

void BM_ServiceSyncIngestBatch(benchmark::State& state) {
  auto trace = MakeTrace(kBatch * 256, 8, 21);
  QueryBot5000 bot(ServiceConfig(365 * kSecondsPerDay));
  std::vector<QueryArrival> batch(kBatch);
  size_t i = 0;
  Timestamp ts = 0;
  for (auto _ : state) {
    for (size_t j = 0; j < kBatch; ++j) {
      batch[j] = {trace[(i + j) % trace.size()], ts, 1.0};
    }
    auto ids = bot.IngestBatch(batch);
    benchmark::DoNotOptimize(ids);
    i = (i + kBatch) % trace.size();
    ++ts;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ServiceSyncIngestBatch);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ReportSummary();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
