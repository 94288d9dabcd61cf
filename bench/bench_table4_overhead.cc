// Table 4: Computation & Storage Overhead — per-component timing and
// storage of QB5000: Pre-Processor templatization cost per query, daily
// Clusterer update cost, model training/prediction time (CPU), and the
// sizes of the arrival-rate history, clustering state, and models, plus
// the forecast input gather per cluster size. Includes google-benchmark
// microbenchmarks for the hot paths.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clusterer/online_clusterer.h"
#include "common/check.h"
#include "common/metrics.h"
#include "forecaster/dataset.h"
#include "forecaster/kernel_regression.h"
#include "forecaster/linear.h"
#include "forecaster/neural.h"
#include "preprocessor/templatizer.h"

using namespace qb5000;
using namespace qb5000::bench;

namespace {

// --- google-benchmark microbenchmarks (hot paths) --------------------------

void BM_TemplatizeSelect(benchmark::State& state) {
  std::string sql =
      "SELECT arrival_minute FROM stop_times WHERE stop_id = 1277 AND "
      "route_id = 31 ORDER BY arrival_minute LIMIT 5";
  for (auto _ : state) {
    auto out = Templatize(sql);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TemplatizeSelect);

void BM_PreProcessorIngest(benchmark::State& state) {
  PreProcessor pre;
  int i = 0;
  for (auto _ : state) {
    int seq = i++;
    auto id = pre.Ingest(
        "SELECT status FROM applications WHERE applicant_id = " +
            std::to_string(seq % 10000),
        (seq % 100000) * 60);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_PreProcessorIngest);

// --- Table 4-style component report ----------------------------------------

void ComponentReport() {
  std::printf("\n--- component overhead (BusTracker, %d days) ---\n",
              FastMode() ? 7 : 14);
  int days = FastMode() ? 7 : 14;

  // Pre-Processor: time per raw query and history storage per day.
  auto workload = MakeBusTracker();
  auto events =
      workload.Materialize(0, 2 * kSecondsPerHour, 10 * kSecondsPerMinute, 3,
                           /*volume_scale=*/0.05);
  PreProcessor pre_timing;
  Stopwatch ingest_timer;
  for (const auto& event : events) {
    pre_timing.Ingest(event.sql, event.timestamp).ok();
  }
  double per_query_ms =
      events.empty() ? 0.0
                     : 1000.0 * ingest_timer.ElapsedSeconds() /
                           static_cast<double>(events.size());

  auto prepared = Prepare(MakeBusTracker(), days, kSecondsPerMinute);
  double history_mb_per_day =
      static_cast<double>(prepared.pre.HistoryStorageBytes()) / (1024.0 * 1024.0) /
      days;

  // Clusterer: one daily update.
  Stopwatch cluster_timer;
  prepared.clusterer.Update(prepared.pre, prepared.end);
  double cluster_seconds = cluster_timer.ElapsedSeconds();
  double cluster_kb = 0;
  for (const auto& [id, cluster] : prepared.clusterer.clusters()) {
    (void)id;
    cluster_kb += static_cast<double>(cluster.center.size() * sizeof(double)) / 1024.0;
  }

  // Models: train/predict on the top clusters.
  auto series = TopClusterSeries(prepared, 0.95, 5, kSecondsPerHour, 0,
                                 prepared.end);
  auto dataset = BuildDataset(series, 24, 1);
  if (!dataset.ok()) {
    std::printf("model dataset failed\n");
    return;
  }
  ModelOptions opts;
  opts.num_series = series.size();
  opts.max_epochs = FastMode() ? 10 : 40;
  LinearRegressionModel lr(opts);
  RnnModel rnn(opts);
  KernelRegressionModel kr(opts);
  Stopwatch model_timer;
  lr.Fit(dataset->x, dataset->y).ok();
  double lr_train = model_timer.ElapsedSeconds();
  model_timer.Restart();
  rnn.Fit(dataset->x, dataset->y).ok();
  double rnn_train = model_timer.ElapsedSeconds();
  model_timer.Restart();
  kr.Fit(dataset->x, dataset->y).ok();
  double kr_fit = model_timer.ElapsedSeconds();
  Vector probe = dataset->x.Row(0);
  model_timer.Restart();
  for (int i = 0; i < 100; ++i) benchmark::DoNotOptimize(kr.Predict(probe));
  double kr_predict = model_timer.ElapsedSeconds() / 100.0;

  double lr_kb = static_cast<double>((dataset->x.cols() + 1) *
                                     dataset->y.cols() * sizeof(double)) /
                 1024.0;
  double kr_mb = static_cast<double>((dataset->x.rows() *
                                      (dataset->x.cols() + dataset->y.cols())) *
                                     sizeof(double)) /
                 (1024.0 * 1024.0);

  // Machine-readable lines for tools/bench_to_json.py (BENCH_table4.json).
  std::printf("#KV pre_ms_per_query %.4f\n", per_query_ms);
  std::printf("#KV history_mb_per_day %.4f\n", history_mb_per_day);
  std::printf("#KV cluster_update_seconds %.3f\n", cluster_seconds);
  std::printf("#KV cluster_state_kb %.1f\n", cluster_kb);
  std::printf("#KV lr_train_seconds %.3f\n", lr_train);
  std::printf("#KV rnn_train_seconds %.3f\n", rnn_train);
  std::printf("#KV kr_fit_seconds %.3f\n", kr_fit);
  std::printf("#KV kr_predict_seconds %.5f\n", kr_predict);
  std::printf("#KV lr_model_kb %.1f\n", lr_kb);
  std::printf("#KV kr_data_mb %.1f\n", kr_mb);

  std::printf("%-28s %12s %14s\n", "component", "computation", "storage");
  std::printf("%-28s %9.3f ms/query %10.2f MB/day\n", "Pre-Processor",
              per_query_ms, history_mb_per_day);
  std::printf("%-28s %10.2f s/day  %11.1f KB\n", "Clusterer", cluster_seconds,
              cluster_kb);
  std::printf("%-28s %10.3f s      %11.1f KB\n", "LR model (train)", lr_train,
              lr_kb);
  std::printf("%-28s %10.2f s      %11s\n", "RNN model (train, CPU)", rnn_train,
              "~28 KB");
  std::printf("%-28s fit %6.3f s / %6.4f s per prediction; data %.1f MB\n",
              "KR model", kr_fit, kr_predict, kr_mb);
  std::printf("\npaper (Table 4): pre-processing ~0.05 ms/query; clustering\n"
              "3-15 s/day; LR trains in fractions of a second; RNN dominates\n"
              "training cost (tens to hundreds of seconds on CPU); KR has no\n"
              "training but carries its training data (MBs).\n");
}

// --- forecast gather per cluster size ---------------------------------------

// Median wall time, in microseconds, of CenterSeries over the last 24 hours
// at 1-hour buckets for one cluster of `members` templates: the gather
// behind each forecast of a cluster, which reads every member's history.
// Each member has 31 days of minute arrivals, compacted at the default
// 7-day horizon: active 60 of every 90 minutes (phase-shifted per member,
// so runs of an hour split by 30-minute gaps), with hashed counts of 0-4
// that leave explicit zero buckets inside the runs.
double CenterSeriesMedianUs(size_t members) {
  constexpr Timestamp kEnd = 31 * kSecondsPerDay;
  constexpr int kWarmup = 10;
  constexpr int kCalls = 300;
  PreProcessor pre;
  OnlineClusterer::Cluster cluster;
  cluster.id = 1;
  for (size_t m = 0; m < members; ++m) {
    auto templatized =
        Templatize("SELECT c FROM t" + std::to_string(m) + " WHERE id = 1");
    QB_CHECK(templatized.ok());
    for (Timestamp t = 0; t < kEnd; t += kSecondsPerMinute) {
      uint64_t minute = static_cast<uint64_t>(t / kSecondsPerMinute) + 37 * m;
      if (minute % 90 >= 60) continue;
      uint64_t count = ((minute * 2654435761u) >> 9) % 5;
      if (count == 0) continue;
      cluster.members.insert(pre.IngestTemplatized(
          *templatized, t, static_cast<double>(count)));
    }
  }
  pre.CompactBefore(kEnd);
  OnlineClusterer clusterer;
  QB_CHECK(clusterer.RestoreState({{1, std::move(cluster)}}, 2, kEnd).ok());

  std::vector<double> us;
  us.reserve(kCalls);
  for (int i = 0; i < kWarmup + kCalls; ++i) {
    Stopwatch watch;
    auto series = clusterer.CenterSeries(pre, 1, kSecondsPerHour,
                                         kEnd - kSecondsPerDay, kEnd);
    double elapsed = watch.ElapsedSeconds();
    QB_CHECK(series.ok());
    benchmark::DoNotOptimize(series);
    if (i >= kWarmup) us.push_back(1e6 * elapsed);
  }
  std::nth_element(us.begin(), us.begin() + kCalls / 2, us.end());
  return us[kCalls / 2];
}

void GatherReport() {
  std::printf("\n--- forecast gather per cluster size (CenterSeries, 1 h "
              "buckets over the last 24 h; median of 300 calls) ---\n");
  for (size_t members : {8, 64, 512}) {
    double us = CenterSeriesMedianUs(members);
    std::printf("#KV center_series_us_%zu %.2f\n", members, us);
    std::printf("%4zu members: %9.2f us per call, %6.3f us per member\n",
                members, us, us / static_cast<double>(members));
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Table 4: Computation & Storage Overhead",
              "Table 4 (per-component time and space)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ComponentReport();
  GatherReport();
  return 0;
}
