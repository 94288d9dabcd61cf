// Trace replay: the file-based interface to QB5000. Feed it a trace file
// of "epoch_seconds,sql" lines (as a DBMS query hook would produce) and it
// runs the full pipeline and prints hourly forecasts for the trailing day.
//
// Usage:
//   example_trace_replay --generate <file>   write a demo BusTracker trace
//   example_trace_replay <file>              replay a trace and forecast
//   example_trace_replay --checkpoint <ckpt> <file>
//       replay the first half through an always-on checkpointing service
//       (a full checkpoint each period and at shutdown), simulate a kill,
//       restore from the checkpoint, replay the rest — demonstrating crash
//       recovery
//
// Add --metrics-out <file> to any replay to dump the pipeline's metrics
// registry (MetricsRegistry::ExportText, README "Observability") after the
// run: per-stage counters, gauges, and latency histograms.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "core/checkpoint.h"
#include "core/qb5000.h"
#include "workload/workload.h"

using namespace qb5000;

namespace {

/// Set by --metrics-out; the finished pipeline's registry is dumped here.
const char* g_metrics_out = nullptr;

void DumpMetrics(const QueryBot5000& bot) {
  if (g_metrics_out == nullptr) return;
  Status st =
      WriteStringToFile(nullptr, bot.Metrics().ExportText(), g_metrics_out);
  if (!st.ok()) {
    std::printf("cannot write metrics to %s: %s\n", g_metrics_out,
                st.ToString().c_str());
  } else {
    std::printf("metrics written to %s\n", g_metrics_out);
  }
}

int GenerateTrace(const char* path) {
  auto workload = MakeBusTracker({.seed = 3, .volume_scale = 0.5});
  // Eight days of individual queries at a replayable volume.
  auto events = workload.Materialize(0, 8 * kSecondsPerDay,
                                     10 * kSecondsPerMinute, 11,
                                     /*volume_scale=*/0.002);
  std::ostringstream out;
  for (const auto& event : events) {
    out << event.timestamp << ',' << event.sql << '\n';
  }
  Status st = WriteStringToFile(nullptr, out.str(), path);
  if (!st.ok()) {
    std::printf("cannot write %s: %s\n", path, st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", events.size(), path);
  return 0;
}

QueryBot5000::Config ReplayConfig() {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kEnsemble;
  config.forecaster.model.max_epochs = 20;
  config.horizons = {kSecondsPerHour, kSecondsPerDay};
  return config;
}

struct ReplayCounts {
  size_t accepted = 0;
  size_t rejected = 0;
  Timestamp last_ts = 0;
};

ReplayCounts Feed(QueryBot5000& bot, const std::vector<TraceEvent>& events,
                  size_t from, size_t to) {
  ReplayCounts counts;
  for (size_t i = from; i < to && i < events.size(); ++i) {
    if (bot.Ingest(events[i].sql, events[i].timestamp).ok()) {
      ++counts.accepted;
      counts.last_ts = std::max(counts.last_ts, events[i].timestamp);
    } else {
      ++counts.rejected;
    }
  }
  return counts;
}

int PrintForecasts(QueryBot5000& bot, Timestamp last_ts) {
  Status st = bot.RunMaintenance(last_ts, /*force=*/true);
  if (!st.ok()) {
    std::printf("maintenance failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%zu clusters; modeling %zu\n", bot.clusterer().clusters().size(),
              bot.ModeledClusters().size());
  for (int64_t horizon : {kSecondsPerHour, kSecondsPerDay}) {
    auto forecast = bot.Forecast(last_ts, horizon);
    if (!forecast.ok()) {
      std::printf("forecast +%ldh failed: %s\n",
                  static_cast<long>(horizon / kSecondsPerHour),
                  forecast.status().ToString().c_str());
      continue;
    }
    std::printf("forecast +%2ldh:", static_cast<long>(horizon / kSecondsPerHour));
    double total = 0;
    for (size_t i = 0; i < forecast->clusters.size(); ++i) {
      std::printf("  cluster %ld -> %.0f q/h",
                  static_cast<long>(forecast->clusters[i]),
                  forecast->queries_per_interval[i]);
      total += forecast->queries_per_interval[i];
    }
    std::printf("  (total %.0f q/h)\n", total);
  }
  return 0;
}

std::vector<TraceEvent> LoadTrace(const char* path) {
  auto data = ReadFileToString(nullptr, path);
  if (!data.ok()) {
    std::printf("cannot read %s: %s (hint: --generate %s first)\n", path,
                data.status().ToString().c_str(), path);
    return {};
  }
  std::vector<TraceEvent> events;
  std::istringstream in(*data);
  std::string line;
  while (std::getline(in, line)) {
    size_t comma = line.find(',');
    if (comma == std::string::npos) continue;
    TraceEvent event;
    event.timestamp = std::strtoll(line.substr(0, comma).c_str(), nullptr, 10);
    event.sql = line.substr(comma + 1);
    events.push_back(std::move(event));
  }
  return events;
}

int Replay(const char* path) {
  std::vector<TraceEvent> events = LoadTrace(path);
  if (events.empty()) return 1;
  QueryBot5000 bot(ReplayConfig());
  ReplayCounts counts = Feed(bot, events, 0, events.size());
  std::printf("replayed %zu queries (%zu rejected), %zu templates, last at %s\n",
              counts.accepted, counts.rejected,
              bot.preprocessor().num_templates(),
              FormatTimestamp(counts.last_ts).c_str());
  if (counts.accepted == 0) return 1;
  int rc = PrintForecasts(bot, counts.last_ts);
  DumpMetrics(bot);
  return rc;
}

/// Feeds a slice of the trace through the producer-side service API in
/// 64-query chunks, retrying kOverloaded — the documented backpressure
/// contract for the always-on deployment.
ReplayCounts FeedService(QueryBot5000& bot,
                         const std::vector<TraceEvent>& events, size_t from,
                         size_t to) {
  ReplayCounts counts;
  constexpr size_t kChunk = 64;
  std::vector<QueryArrival> batch;
  for (size_t i = from; i < to && i < events.size(); i += kChunk) {
    batch.clear();
    for (size_t j = i; j < to && j < events.size() && j < i + kChunk; ++j) {
      batch.push_back({events[j].sql, events[j].timestamp, 1.0});
    }
    while (true) {
      Status st = bot.EnqueueBatch(batch);
      if (st.ok()) {
        counts.accepted += batch.size();
        counts.last_ts = std::max(counts.last_ts, batch.back().ts);
        break;
      }
      if (st.code() != StatusCode::kOverloaded) {
        counts.rejected += batch.size();
        break;
      }
      std::this_thread::yield();  // queue full: let the drain catch up
    }
  }
  return counts;
}

/// Replays with a simulated crash in the middle — in always-on service
/// mode. The first process runs a background-checkpointing service that
/// writes a full checkpoint each period of arrival time, and a direct
/// RunMaintenance call before shutdown clusters the first half; the final
/// write at StopService carries those clusters (DESIGN.md §14). The process
/// then "dies"; Restore brings back templates, clusters and the maintenance
/// clock, retrains the models, and the second half resumes where the dead
/// service stopped.
int ReplayWithCheckpoint(const char* ckpt_path, const char* trace_path) {
  std::vector<TraceEvent> events = LoadTrace(trace_path);
  if (events.empty()) return 1;
  size_t half = events.size() / 2;

  ReplayCounts first;
  {
    QueryBot5000 bot(ReplayConfig());
    QueryBot5000::ServiceOptions opts;
    opts.queue_capacity = 256;
    opts.background = true;
    opts.auto_maintenance = false;  // we drive maintenance directly below
    opts.checkpoint_path = ckpt_path;
    opts.checkpoint_period_seconds = 6 * kSecondsPerHour;
    Status st = bot.StartService(opts);
    if (!st.ok()) {
      std::printf("start service failed: %s\n", st.ToString().c_str());
      return 1;
    }
    first = FeedService(bot, events, 0, half);
    bot.DrainForTest();  // settle the queue so the printed counts are final
    std::printf("first half: %zu queries, %zu templates (service mode)\n",
                first.accepted, bot.preprocessor().num_templates());
    // Caller-driven maintenance while the checkpointing service runs: its
    // clusters and evictions land in the final write below, so the restore
    // brings the clusters back and cannot resurrect evicted templates.
    st = bot.RunMaintenance(first.last_ts, /*force=*/true);
    if (!st.ok()) {
      std::printf("maintenance failed: %s\n", st.ToString().c_str());
      return 1;
    }
    st = bot.StopService();  // writes the final checkpoint
    if (!st.ok()) {
      std::printf("stop service failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("service checkpointed to %s at %s -- simulating a crash now\n",
                ckpt_path, FormatTimestamp(first.last_ts).c_str());
  }  // the process "dies" here: everything in memory is gone

  RestoreReport report;
  auto restored = QueryBot5000::Restore(ckpt_path, ReplayConfig(), nullptr,
                                        &report);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("restored: %zu templates, %zu clusters%s%s%s\n",
              restored->preprocessor().num_templates(),
              restored->clusterer().clusters().size(),
              report.used_backup ? " [from .bak]" : "",
              report.reclustered ? " [re-clustered]" : "",
              report.forecaster_trained ? " [models retrained]" : "");
  if (!report.detail.empty()) {
    std::printf("restore notes: %s\n", report.detail.c_str());
  }

  ReplayCounts second = Feed(*restored, events, half, events.size());
  std::printf("second half: %zu queries, %zu templates, last at %s\n",
              second.accepted, restored->preprocessor().num_templates(),
              FormatTimestamp(second.last_ts).c_str());
  int rc = PrintForecasts(*restored, second.last_ts);
  DumpMetrics(*restored);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull --metrics-out <file> out of the argument list; the remaining
  // positional arguments keep their existing meanings.
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      g_metrics_out = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() == 2 && std::strcmp(args[0], "--generate") == 0) {
    return GenerateTrace(args[1]);
  }
  if (args.size() == 3 && std::strcmp(args[0], "--checkpoint") == 0) {
    return ReplayWithCheckpoint(args[1], args[2]);
  }
  if (args.size() == 1) return Replay(args[0]);
  std::printf(
      "usage: %s [--generate | --checkpoint <ckpt>] [--metrics-out <file>] "
      "<trace-file>\n",
      argv[0]);
  // With no arguments, run the full demo round trip in a temp file,
  // including the kill/restore cycle.
  const char* demo = "/tmp/qb5000_demo_trace.csv";
  if (GenerateTrace(demo) != 0) return 1;
  return ReplayWithCheckpoint("/tmp/qb5000_demo_ckpt.qbc", demo);
}
