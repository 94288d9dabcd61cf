// Always-on service mode (DESIGN.md §14), proved against the synchronous
// pipeline it replaces:
//   * equivalence — every workload generator fed through EnqueueBatch +
//     the service drain produces bit-identical template ids, arrival
//     histories, forecasts, and preprocessor counters to the same trace fed
//     through IngestBatch, with 1 pool thread and 1 producer and with 8 of
//     each (the queue adds buffering, never drift);
//   * lifecycle — start/stop/backpressure contracts, including the final
//     checkpoint write on StopService, the arrival-count check at every
//     controller ingest entry point, and the refusal of synchronous ingest
//     while a service runs;
//   * durability — a checkpointing service's periodic full writes restore
//     to exactly the live state: templates, parameter samples, fractional
//     totals, evictions, clusters and the maintenance clock;
//   * concurrency — producers and Forecast readers hammer a background
//     service under TSan without data races or lost arrivals, and
//     concurrent synchronous IngestBatch calls lose no arrival.
#include <sys/stat.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/qb5000.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

std::string TestDir() {
  std::string dir = ::testing::TempDir() + "qb5000_service_test";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveCheckpointFiles(Env* env, const std::string& path) {
  for (const std::string& p : {path, AtomicFileWriter::BackupPath(path),
                               AtomicFileWriter::TempPath(path)}) {
    if (env->FileExists(p)) {
      ASSERT_TRUE(env->DeleteFile(p).ok());
    }
  }
}

/// Restores the previous global thread count when the test exits.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetThreadCount()) {}
  ~ThreadCountGuard() { SetThreadCount(saved_); }

 private:
  size_t saved_;
};

/// Small, fast, but fully representative pipeline configuration. The
/// maintenance period is pushed out past every trace used here so the
/// service never auto-runs maintenance mid-feed — equivalence tests force
/// it at the same instant on both paths instead.
QueryBot5000::Config QuietConfig() {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.clusterer.feature.num_samples = 48;
  config.clusterer.feature.window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  config.maintenance_period_seconds = 365 * kSecondsPerDay;
  return config;
}

constexpr size_t kBatch = 64;
constexpr Timestamp kTraceEnd = 2 * kSecondsPerDay;

std::vector<TraceEvent> MakeTrace(const SyntheticWorkload& workload) {
  return workload.Materialize(0, kTraceEnd, 10 * kSecondsPerMinute,
                              /*seed=*/7, /*volume_scale=*/1.0,
                              /*max_per_step=*/2);
}

std::vector<QueryArrival> ToArrivals(const std::vector<TraceEvent>& trace,
                                     size_t from, size_t count,
                                     double arrival_count = 1.0) {
  std::vector<QueryArrival> batch;
  batch.reserve(count);
  for (size_t i = from; i < from + count && i < trace.size(); ++i) {
    batch.push_back({trace[i].sql, trace[i].timestamp, arrival_count});
  }
  return batch;
}

void FeedSync(QueryBot5000& bot, const std::vector<TraceEvent>& trace) {
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = ToArrivals(trace, i, kBatch);
    auto ids = bot.IngestBatch(batch);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  }
}

/// Feeds the same batches through the producer-side service API, retrying
/// kOverloaded — that is the documented backpressure contract, and with a
/// small queue it actually fires.
void FeedService(QueryBot5000& bot, const std::vector<TraceEvent>& trace,
                 size_t from = 0, size_t to = SIZE_MAX) {
  size_t end = std::min(to, trace.size());
  for (size_t i = from; i < end; i += kBatch) {
    auto batch = ToArrivals(trace, i, std::min(kBatch, end - i));
    while (true) {
      Status st = bot.EnqueueBatch(batch);
      if (st.ok()) break;
      ASSERT_EQ(st.code(), StatusCode::kOverloaded) << st.ToString();
      if (!bot.service_running()) FAIL() << "service died mid-feed";
      std::this_thread::yield();
    }
  }
}

/// A template's parameter sample as text: how many arrivals the reservoir
/// saw, then each kept literal list as (type, length-prefixed text) pairs.
std::string EncodedSamples(const PreProcessor::TemplateInfo& info) {
  std::ostringstream out;
  out << "seen " << info.param_samples.seen();
  for (const std::vector<sql::Literal>& literals : info.param_samples.items()) {
    out << '\n';
    for (const sql::Literal& literal : literals) {
      out << static_cast<int>(literal.type) << ' ' << literal.text.size()
          << ':' << literal.text << ' ';
    }
  }
  return out.str();
}

/// Manual-mode service options that checkpoint to `path`: a full write on
/// the first drain, then one per `period` of arrival time.
QueryBot5000::ServiceOptions ManualCheckpointOptions(
    const std::string& path, int64_t period = kSecondsPerHour) {
  QueryBot5000::ServiceOptions sopts;
  sopts.background = false;
  sopts.checkpoint_path = path;
  sopts.checkpoint_period_seconds = period;
  return sopts;
}

/// Asserts that `restored` holds exactly the live bot's templates: the same
/// ids and, per template, the same fingerprint, last_seen, full history
/// encoding, history total, total_queries and parameter samples.
void ExpectSameTemplates(const QueryBot5000& live, const QueryBot5000& restored) {
  const std::vector<TemplateId> ids = live.preprocessor().TemplateIds();
  ASSERT_EQ(restored.preprocessor().TemplateIds(), ids);
  for (TemplateId id : ids) {
    const auto* a = live.preprocessor().GetTemplate(id);
    const auto* b = restored.preprocessor().GetTemplate(id);
    EXPECT_EQ(b->fingerprint, a->fingerprint) << "template " << id;
    EXPECT_EQ(b->last_seen, a->last_seen) << "template " << id;
    std::string history_a, history_b;
    a->history.EncodeTo(&history_a);
    b->history.EncodeTo(&history_b);
    EXPECT_EQ(history_b, history_a) << "template " << id;
    EXPECT_EQ(b->history.Total(), a->history.Total()) << "template " << id;
    EXPECT_EQ(b->total_queries, a->total_queries) << "template " << id;
    EXPECT_EQ(EncodedSamples(*b), EncodedSamples(*a)) << "template " << id;
  }
}

/// The equivalence oracle: identical templates, identical histories,
/// identical forecasts. Exact comparisons throughout — the service path
/// must be a pure buffering layer in front of the same pipeline.
void ExpectSamePipelineState(QueryBot5000& service_bot, QueryBot5000& sync_bot,
                             Timestamp end) {
  auto sync_ids = sync_bot.preprocessor().TemplateIds();
  auto service_ids = service_bot.preprocessor().TemplateIds();
  ASSERT_EQ(service_ids, sync_ids);
  EXPECT_DOUBLE_EQ(service_bot.preprocessor().total_queries(),
                   sync_bot.preprocessor().total_queries());
  for (TemplateId id : sync_ids) {
    const auto* a = sync_bot.preprocessor().GetTemplate(id);
    const auto* b = service_bot.preprocessor().GetTemplate(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->fingerprint, a->fingerprint) << "template " << id;
    EXPECT_EQ(b->text, a->text) << "template " << id;
    EXPECT_EQ(b->first_seen, a->first_seen) << "template " << id;
    EXPECT_EQ(b->last_seen, a->last_seen) << "template " << id;
    EXPECT_DOUBLE_EQ(b->history.Total(), a->history.Total())
        << "template " << id;
    auto sa = a->history.Series(kSecondsPerHour, 0, end);
    auto sb = b->history.Series(kSecondsPerHour, 0, end);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(sb->size(), sa->size());
    for (size_t i = 0; i < sa->size(); ++i) {
      EXPECT_DOUBLE_EQ(sb->values()[i], sa->values()[i])
          << "template " << id << " bucket " << i;
    }
  }

  auto fa = sync_bot.Forecast(end, kSecondsPerHour);
  auto fb = service_bot.Forecast(end, kSecondsPerHour);
  ASSERT_EQ(fb.ok(), fa.ok()) << fb.status().ToString();
  if (fa.ok()) {
    ASSERT_EQ(fb->clusters, fa->clusters);
    EXPECT_EQ(fb->interval_seconds, fa->interval_seconds);
    ASSERT_EQ(fb->queries_per_interval.size(), fa->queries_per_interval.size());
    for (size_t i = 0; i < fa->queries_per_interval.size(); ++i) {
      EXPECT_DOUBLE_EQ(fb->queries_per_interval[i],
                       fa->queries_per_interval[i])
          << "cluster index " << i;
    }
  }
}

// --- golden-trace equivalence -----------------------------------------------

/// The preprocessor's counter lines from a counters-only export. Counters
/// are the deterministic section of the metrics contract (histograms carry
/// timings); byte-comparing them is the strongest "exact counters" oracle
/// the service drain can be held to.
std::string PreprocessorCounterLines(const MetricsRegistry& metrics) {
  MetricsRegistry::ExportOptions counters_only;
  counters_only.counters_only = true;
  std::istringstream in(metrics.ExportText(counters_only));
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    // Export lines read "counter <name> <value>" (metrics.h).
    if (line.rfind("counter preprocessor.", 0) == 0) out += line + "\n";
  }
  return out;
}

/// Feeds `trace` through EnqueueBatch from `producers` real threads while an
/// atomic ticket keeps the *global chunk order* deterministic: chunk c is
/// pushed only after chunks 0..c-1 are in the queue. Every push still crosses
/// a real thread boundary into the service queue (and retries kOverloaded), but
/// the service consumes the exact sequence FeedSync applies — the property
/// that makes byte-identity against synchronous ingest assertable.
void FeedServiceTicketed(QueryBot5000& bot,
                         const std::vector<TraceEvent>& trace,
                         size_t producers) {
  const size_t num_chunks = (trace.size() + kBatch - 1) / kBatch;
  std::atomic<size_t> turn{0};  // lint:raw-atomic-ok (test ticket)
  ThreadPool pool(producers);
  pool.Run(producers, [&](size_t p) {
    for (size_t c = p; c < num_chunks; c += producers) {
      auto batch = ToArrivals(trace, c * kBatch, kBatch);
      while (turn.load(std::memory_order_acquire) != c) {
        std::this_thread::yield();
      }
      while (true) {
        Status st = bot.EnqueueBatch(batch);
        if (st.ok()) break;
        ASSERT_EQ(st.code(), StatusCode::kOverloaded) << st.ToString();
        if (!bot.service_running()) FAIL() << "service died mid-feed";
        std::this_thread::yield();
      }
      turn.store(c + 1, std::memory_order_release);
    }
  });
}

/// The parameter is both the global thread-pool size and the number of
/// producer threads: (1, 1) and (8, 8). At either end the service must be a
/// pure buffering layer — template ids, histories, forecasts, and the
/// preprocessor counter export all byte-identical to synchronous ingest of
/// the same trace.
class ServiceEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(ServiceEquivalence, MatchesSynchronousIngestOnAllWorkloads) {
  ThreadCountGuard guard;
  SetThreadCount(GetParam());
  const size_t producers = GetParam();
  struct Named {
    const char* name;
    SyntheticWorkload workload;
  };
  const WorkloadOptions options{.seed = 13, .volume_scale = 0.2};
  Named workloads[] = {{"bustracker", MakeBusTracker(options)},
                       {"admissions", MakeAdmissions(options)},
                       {"mooc", MakeMooc(options)},
                       {"noisy_composite", MakeNoisyComposite(options)}};
  for (const Named& entry : workloads) {
    SCOPED_TRACE(entry.name);
    const std::vector<TraceEvent> trace = MakeTrace(entry.workload);
    ASSERT_FALSE(trace.empty());

    QueryBot5000 sync_bot(QuietConfig());
    FeedSync(sync_bot, trace);
    ASSERT_TRUE(sync_bot.RunMaintenance(kTraceEnd, /*force=*/true).ok());

    QueryBot5000 service_bot(QuietConfig());
    // A deliberately small queue so the Overloaded/retry path is exercised
    // while the background thread drains concurrently. Maintenance stays
    // caller-driven on both paths so the comparison is ingest-for-ingest:
    // both bots run it exactly once, forced, at the same instant below.
    QueryBot5000::ServiceOptions sopts;
    sopts.queue_capacity = 8;
    sopts.background = true;
    sopts.auto_maintenance = false;
    ASSERT_TRUE(service_bot.StartService(sopts).ok());
    FeedServiceTicketed(service_bot, trace, producers);
    service_bot.DrainForTest();
    ASSERT_TRUE(service_bot.RunMaintenance(kTraceEnd, /*force=*/true).ok());
    ASSERT_TRUE(service_bot.StopService().ok());

    ExpectSamePipelineState(service_bot, sync_bot, kTraceEnd);
    if (kMetricsEnabled) {
      // Exact counters: hits, misses, creations, parse failures.
      EXPECT_EQ(PreprocessorCounterLines(service_bot.Metrics()),
                PreprocessorCounterLines(sync_bot.Metrics()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ServiceEquivalence,
                         ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// --- fuzz differential: service drain vs per-query loop ----------------------

/// Adversarial arrival stream for the service drain: heavy duplication of a
/// small template set (the same key recurring within and across chunks),
/// literal rewrites (cache hits under different raw bytes), corrupted
/// statements (rejects), and 7-second timestamp steps so same-minute
/// aggregation runs keep crossing chunk and minute boundaries.
std::vector<TraceEvent> MakeServiceFuzzTrace(int iterations, uint64_t seed) {
  static const char* const kCorpus[] = {
      "SELECT * FROM orders WHERE id = 42",
      "SELECT name, total FROM orders WHERE total > 10.5 AND region = 'east'",
      "SELECT id FROM users WHERE name LIKE 'a%' OR age BETWEEN 18 AND 65",
      "SELECT * FROM trips WHERE route_id IN (1, 2, 3) LIMIT 50",
      "INSERT INTO orders (id, total, region) VALUES (1, 9.99, 'west')",
      "UPDATE users SET age = 30, name = 'bob' WHERE id = 7",
      "DELETE FROM events WHERE ts < 1600000000",
      "SELECT a.id FROM a WHERE ((a.x = 1 OR a.y = 2) AND a.z = 'q')",
  };
  Rng rng(seed);
  std::vector<TraceEvent> events;
  events.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    std::string sql = kCorpus[rng.UniformInt(0, std::size(kCorpus) - 1)];
    switch (rng.UniformInt(0, 3)) {
      case 0:  // exact repeat
        break;
      case 1:  // rewrite digits: raw string differs, template key does not
        for (char& c : sql) {
          if (c >= '0' && c <= '9') {
            c = static_cast<char>('0' + rng.UniformInt(0, 9));
          }
        }
        break;
      case 2:  // shout-case repeat (normalizer canonicalizes case)
        for (char& c : sql) c = static_cast<char>(std::toupper(c));
        break;
      default: {  // corrupt one byte (often a reject or a fallback)
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(sql.size()) - 1));
        sql[at] = static_cast<char>(rng.UniformInt(1, 255));
        break;
      }
    }
    events.push_back(
        TraceEvent{static_cast<Timestamp>(i) * 7, std::move(sql)});
  }
  return events;
}

TEST(ServiceTest, DrainFuzzDifferentialMatchesPerQueryLoop) {
  const std::vector<TraceEvent> trace = MakeServiceFuzzTrace(3000, 20260809);
  const Timestamp end = static_cast<Timestamp>(trace.size()) * 7;

  // Baseline: the naive per-query loop.
  QueryBot5000 sync_bot(QuietConfig());
  for (const TraceEvent& e : trace) {
    (void)sync_bot.Ingest(e.sql, e.timestamp);  // rejects must match too
  }

  // Service: random producer-batch boundaries (1..96 arrivals) and a tiny
  // queue — consecutive chunks keep colliding on the same templates and the
  // same minute buckets.
  QueryBot5000 service_bot(QuietConfig());
  QueryBot5000::ServiceOptions sopts;
  sopts.queue_capacity = 4;
  sopts.background = true;
  sopts.auto_maintenance = false;
  ASSERT_TRUE(service_bot.StartService(sopts).ok());
  Rng rng(4242);
  size_t at = 0;
  while (at < trace.size()) {
    size_t len = static_cast<size_t>(rng.UniformInt(1, 96));
    auto batch = ToArrivals(trace, at, len);
    while (true) {
      Status st = service_bot.EnqueueBatch(batch);
      if (st.ok()) break;
      ASSERT_EQ(st.code(), StatusCode::kOverloaded) << st.ToString();
      std::this_thread::yield();
    }
    at += batch.size();
  }
  service_bot.DrainForTest();
  ASSERT_TRUE(service_bot.StopService().ok());

  Status sync_mnt = sync_bot.RunMaintenance(end, /*force=*/true);
  Status service_mnt = service_bot.RunMaintenance(end, /*force=*/true);
  ASSERT_EQ(service_mnt.ok(), sync_mnt.ok())
      << service_mnt.ToString() << " vs " << sync_mnt.ToString();
  ExpectSamePipelineState(service_bot, sync_bot, end);
  if (kMetricsEnabled) {
    EXPECT_EQ(PreprocessorCounterLines(service_bot.Metrics()),
              PreprocessorCounterLines(sync_bot.Metrics()));
  }
}

// --- lifecycle ---------------------------------------------------------------

TEST(ServiceTest, LifecycleContracts) {
  QueryBot5000 bot(QuietConfig());
  std::vector<QueryArrival> one{{"SELECT 1", kSecondsPerHour, 1.0}};

  // Not running: producer calls are rejected, stop is an error.
  EXPECT_EQ(bot.EnqueueBatch(one).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(bot.StopService().ok());
  EXPECT_FALSE(bot.service_running());

  QueryBot5000::ServiceOptions foreground;
  foreground.background = false;
  ASSERT_TRUE(bot.StartService(foreground).ok());
  EXPECT_TRUE(bot.service_running());
  EXPECT_FALSE(bot.StartService(foreground).ok())
      << "double start must fail";

  ASSERT_TRUE(bot.EnqueueBatch(one).ok());
  bot.DrainForTest();
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(), 1.0);

  ASSERT_TRUE(bot.StopService().ok());
  EXPECT_FALSE(bot.service_running());
  // Synchronous mode works again after teardown.
  EXPECT_TRUE(bot.Ingest("SELECT 1", 2 * kSecondsPerHour).ok());

  // Restartable: a second service session on the same controller.
  QueryBot5000::ServiceOptions background;
  background.background = true;
  ASSERT_TRUE(bot.StartService(background).ok());
  ASSERT_TRUE(bot.EnqueueBatch(one).ok());
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(), 3.0);
}

// While a service runs, EnqueueBatch is the only ingest path: the service
// owns ingest, and its arrival clock, retry gate and checkpoint cadence
// advance only with the chunks it drains. Each synchronous entry point
// refuses with kFailedPrecondition and ingests nothing, and a restore
// matches the live state.
TEST(ServiceTest, SyncIngestIsRefusedWhileServiceRuns) {
  const std::string path = TestDir() + "/sync_during_service.qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();

  QueryBot5000 bot(config);
  ASSERT_TRUE(bot.StartService(ManualCheckpointOptions(path)).ok());

  const char* const kSqlA = "SELECT a FROM t WHERE id = 1";
  const char* const kSqlB = "SELECT b FROM u WHERE id = 2";
  QueryArrival first[] = {{kSqlA, 0, 1.0}};
  ASSERT_TRUE(bot.EnqueueBatch(first).ok());
  bot.DrainForTest();
  ASSERT_TRUE(Env::Default()->FileExists(path)) << "first write missing";

  const Timestamp ts = kSecondsPerHour;
  EXPECT_EQ(bot.Ingest(kSqlB, ts).code(), StatusCode::kFailedPrecondition);
  QueryArrival batch[] = {{kSqlB, ts, 1.0}};
  EXPECT_EQ(bot.IngestBatch(batch).status().code(),
            StatusCode::kFailedPrecondition);
  auto tmpl = Templatize(kSqlB);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_EQ(bot.IngestTemplatized(*tmpl, ts).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
  EXPECT_EQ(bot.preprocessor().total_queries(), 1.0);

  QueryArrival second[] = {{kSqlB, 2 * kSecondsPerHour, 1.0}};
  ASSERT_TRUE(bot.EnqueueBatch(second).ok());
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameTemplates(bot, *restored);
  EXPECT_EQ(restored->preprocessor().total_queries(), 2.0);
}

TEST(ServiceTest, BackgroundMaintenancePublishesEpochs) {
  QueryBot5000::Config config = QuietConfig();
  config.maintenance_period_seconds = kSecondsPerDay;
  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions sopts;
  sopts.background = true;
  ASSERT_TRUE(bot.StartService(sopts).ok());
  EXPECT_EQ(bot.model_epoch(), 0u);

  auto workload = MakeBusTracker({.seed = 3, .volume_scale = 0.2});
  const std::vector<TraceEvent> trace = MakeTrace(workload);
  FeedService(bot, trace);
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());

  // Two days of virtual time against a one-day period: the background
  // thread must have run maintenance and published at least once, without
  // anyone calling RunMaintenance.
  EXPECT_TRUE(bot.maintenance_has_run());
  EXPECT_GE(bot.model_epoch(), 1u);
  if (kMetricsEnabled) {
    EXPECT_EQ(bot.Metrics().GetGauge("core.model_epoch")->value(),
              static_cast<double>(bot.model_epoch()));
  }
}

TEST(ServiceTest, ConcurrentProducersAndForecastReaders) {
  QueryBot5000::Config config = QuietConfig();
  config.maintenance_period_seconds = kSecondsPerHour;  // churn publications
  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions sopts;
  sopts.queue_capacity = 16;
  sopts.background = true;
  ASSERT_TRUE(bot.StartService(sopts).ok());

  auto workload = MakeBusTracker({.seed = 5, .volume_scale = 0.2});
  const std::vector<TraceEvent> trace = MakeTrace(workload);
  ASSERT_GE(trace.size(), 8u);
  constexpr size_t kProducers = 4;
  constexpr size_t kReaders = 2;
  const size_t shard = trace.size() / kProducers;

  ThreadPool pool(kProducers + kReaders);
  pool.Run(kProducers + kReaders, [&](size_t task) {
    if (task < kProducers) {
      size_t from = task * shard;
      size_t to = task + 1 == kProducers ? trace.size() : from + shard;
      FeedService(bot, trace, from, to);
      return;
    }
    // Reader lane: bounded forecasts race the drain and the epoch swaps.
    // Failures (nothing modeled yet) are fine; crashes and races are not.
    for (int i = 0; i < 200; ++i) {
      (void)bot.Forecast(kTraceEnd, kSecondsPerHour, /*budget_seconds=*/0.01);
      (void)bot.model_epoch();
    }
  });

  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());
  // Every arrival admitted exactly once: kOverloaded retries never double
  // apply and the queue never drops a chunk it accepted.
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(),
                   static_cast<double>(trace.size()));
}

/// Four producers call QueryBot5000::IngestBatch at once, with no service
/// running, on interleaved 64-arrival slices of the fuzz trace, whose
/// corrupted statements keep creating templates in every slice. Concurrent
/// batches keep probing and parsing keys that another batch inserts first,
/// so their speculative parses are thrown away. Template ids then follow
/// the interleaving, but per fingerprint every history must equal a
/// sequential feed of the same slices, each template must be created once,
/// and every ingest must be counted as exactly one hit or miss.
TEST(ServiceTest, ConcurrentSyncBatchesMatchSequentialTotals) {
  const std::vector<TraceEvent> trace = MakeServiceFuzzTrace(4096, 77);
  const size_t num_slices = (trace.size() + kBatch - 1) / kBatch;

  QueryBot5000 sequential(QuietConfig());
  FeedSync(sequential, trace);

  QueryBot5000 bot(QuietConfig());
  constexpr size_t kProducers = 4;
  ThreadPool pool(kProducers);
  pool.Run(kProducers, [&](size_t p) {
    for (size_t c = p; c < num_slices; c += kProducers) {
      auto ids = bot.IngestBatch(ToArrivals(trace, c * kBatch, kBatch));
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    }
  });

  auto by_fingerprint = [](const QueryBot5000& b) {
    std::map<std::string, const PreProcessor::TemplateInfo*> out;
    for (TemplateId id : b.preprocessor().TemplateIds()) {
      const auto* info = b.preprocessor().GetTemplate(id);
      out[info->fingerprint] = info;
    }
    return out;
  };
  auto want = by_fingerprint(sequential);
  auto got = by_fingerprint(bot);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [fingerprint, w] : want) {
    SCOPED_TRACE(fingerprint);
    auto it = got.find(fingerprint);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second->history.Total(), w->history.Total());
    std::string history_got, history_want;
    it->second->history.EncodeTo(&history_got);
    w->history.EncodeTo(&history_want);
    EXPECT_EQ(history_got, history_want);
    EXPECT_EQ(it->second->last_seen, w->last_seen);
  }
  if (kMetricsEnabled) {
    auto counter = [](const QueryBot5000& b, const char* name) {
      return b.Metrics().GetCounter(name)->value();
    };
    EXPECT_EQ(counter(bot, "preprocessor.templates_created_total"), want.size());
    for (const char* name :
         {"preprocessor.ingests_total", "preprocessor.parse_failures_total"}) {
      EXPECT_EQ(counter(bot, name), counter(sequential, name)) << name;
    }
    EXPECT_EQ(counter(bot, "preprocessor.cache_hits_total") +
                  counter(bot, "preprocessor.cache_misses_total"),
              counter(bot, "preprocessor.ingests_total"));
  }
}

// --- durability --------------------------------------------------------------

TEST(ServiceTest, ServiceCheckpointRestoresExactLiveState) {
  const std::string path = TestDir() + "/service_roundtrip.qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();

  QueryBot5000 bot(config);
  ASSERT_TRUE(
      bot.StartService(ManualCheckpointOptions(path, 6 * kSecondsPerHour))
          .ok());

  auto workload = MakeBusTracker({.seed = 11, .volume_scale = 0.2});
  const std::vector<TraceEvent> trace = MakeTrace(workload);
  // The first drain writes the first checkpoint; later drains cross
  // checkpoint periods and rewrite it, and StopService writes it once more.
  const size_t half = trace.size() / 2;
  FeedService(bot, trace, 0, half);
  bot.DrainForTest();
  ASSERT_TRUE(Env::Default()->FileExists(path)) << "first write missing";
  FeedService(bot, trace, half);
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());
  EXPECT_FALSE(Env::Default()->FileExists(path + ".delta"))
      << "the service writes full checkpoints only";

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(report.used_backup);
  EXPECT_FALSE(report.reclustered) << report.detail;

  // The final write closes the gap completely: restored state equals the
  // live bot at shutdown, not the state of the last periodic write.
  EXPECT_DOUBLE_EQ(restored->preprocessor().total_queries(),
                   bot.preprocessor().total_queries());
  ExpectSameTemplates(bot, *restored);
}

// The checkpoint persists the live grand and per-type totals, so a restore
// reproduces them bit for bit even when fractional counts make the sums
// depend on the order of the arrivals.
TEST(ServiceTest, ServiceRestoreIsExactForFractionalCounts) {
  const std::string path = TestDir() + "/fractional_service.qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();

  QueryBot5000 bot(config);
  ASSERT_TRUE(bot.StartService(ManualCheckpointOptions(path)).ok());

  auto workload = MakeBusTracker({.seed = 11, .volume_scale = 0.2});
  const std::vector<TraceEvent> trace = MakeTrace(workload);
  ASSERT_GE(trace.size(), 6 * kBatch);
  for (size_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(bot.EnqueueBatch(ToArrivals(trace, c * kBatch, kBatch, 0.1)).ok());
    bot.DrainForTest();
  }
  ASSERT_TRUE(bot.StopService().ok());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameTemplates(bot, *restored);
  EXPECT_EQ(restored->preprocessor().total_queries(),
            bot.preprocessor().total_queries());
  for (auto type :
       {sql::StatementType::kSelect, sql::StatementType::kInsert,
        sql::StatementType::kUpdate, sql::StatementType::kDelete}) {
    EXPECT_EQ(restored->preprocessor().QueriesOfType(type),
              bot.preprocessor().QueriesOfType(type));
  }
}

// A restore brings back what the live bot holds besides its templates: the
// clusterer, the controller's maintenance clock and modeled clusters, and
// every template's parameter samples. Hourly writes against a 6-hour
// maintenance period put the service's passes between writes, and the final
// write at StopService follows the last of them.
TEST(ServiceTest, ServiceRestoreMatchesLiveClustererAndController) {
  const std::string path = TestDir() + "/clusterer_controller.qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();
  config.maintenance_period_seconds = 6 * kSecondsPerHour;

  QueryBot5000 bot(config);
  ASSERT_TRUE(bot.StartService(ManualCheckpointOptions(path)).ok());
  auto workload = MakeBusTracker({.seed = 11, .volume_scale = 0.2});
  const std::vector<TraceEvent> trace = MakeTrace(workload);
  for (size_t i = 0; i < trace.size(); i += kBatch) {
    ASSERT_TRUE(bot.EnqueueBatch(ToArrivals(trace, i, kBatch)).ok());
    bot.DrainForTest();
  }
  ASSERT_TRUE(bot.StopService().ok());
  ASSERT_TRUE(bot.maintenance_has_run());
  ASSERT_FALSE(bot.clusterer().clusters().empty());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(report.reclustered) << report.detail;
  EXPECT_FALSE(report.controller_defaults) << report.detail;
  EXPECT_EQ(restored->last_maintenance(), bot.last_maintenance());
  EXPECT_EQ(restored->forecaster().modeled_clusters(),
            bot.forecaster().modeled_clusters());
  const auto& live_clusters = bot.clusterer().clusters();
  const auto& restored_clusters = restored->clusterer().clusters();
  EXPECT_EQ(restored_clusters.size(), live_clusters.size());
  for (const auto& [id, cluster] : live_clusters) {
    auto it = restored_clusters.find(id);
    if (it == restored_clusters.end()) {
      ADD_FAILURE() << "cluster " << id << " missing after restore";
      continue;
    }
    EXPECT_EQ(it->second.members, cluster.members) << "cluster " << id;
  }
  ExpectSameTemplates(bot, *restored);
}

// A maintenance pass run while a checkpointing service runs evicts idle
// templates, and the service's next write (periodic, or the final one at
// StopService) carries the eviction, so a restore does not resurrect
// templates the live process dropped. The pass has two drivers, checked
// apart: a caller with auto_maintenance off, so only its pass can evict, and
// the service's own pass with no caller pass at all.
void ExpectEvictionSurvivesRestore(const std::string& name, bool caller_pass) {
  const std::string path = TestDir() + "/" + name + ".qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();
  config.template_eviction_seconds = 2 * kSecondsPerHour;

  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions sopts = ManualCheckpointOptions(path);
  sopts.auto_maintenance = !caller_pass;
  ASSERT_TRUE(bot.StartService(sopts).ok());

  auto feed_hours = [&](const char* sql, Timestamp from_h, Timestamp to_h) {
    for (Timestamp h = from_h; h < to_h; ++h) {
      QueryArrival a[] = {{sql, h * kSecondsPerHour, 1.0}};
      ASSERT_TRUE(bot.EnqueueBatch(a).ok());
    }
  };
  // Phase 1: the soon-idle template; lands in the first checkpoint.
  feed_hours("SELECT a FROM t WHERE id = 1", 0, 3);
  bot.DrainForTest();
  ASSERT_TRUE(Env::Default()->FileExists(path)) << "first write missing";
  const std::vector<TemplateId> phase1_ids = bot.preprocessor().TemplateIds();
  ASSERT_EQ(phase1_ids.size(), 1u);
  const TemplateId idle_id = phase1_ids[0];

  // Phase 2: a fresh template only. With auto_maintenance on, the service's
  // own pass after this drain evicts the idle template (last seen hour 2,
  // cutoff 21h).
  feed_hours("SELECT b FROM u WHERE id = 2", 12, 24);
  bot.DrainForTest();

  if (caller_pass) {
    ASSERT_NE(bot.preprocessor().GetTemplate(idle_id), nullptr)
        << "precondition: only the caller's pass may evict";
    // The caller-driven pass evicts the idle template (cutoff 22h).
    ASSERT_TRUE(
        bot.RunMaintenance(24 * kSecondsPerHour, /*force=*/true).ok());
  }
  ASSERT_EQ(bot.preprocessor().GetTemplate(idle_id), nullptr)
      << "precondition: maintenance must have evicted the idle template";
  ASSERT_EQ(bot.preprocessor().num_templates(), 1u);
  ASSERT_TRUE(bot.StopService().ok());  // the final write

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The first write held the idle template and a later one dropped it:
  // restore must match the live bot, evicted template absent.
  EXPECT_EQ(restored->preprocessor().GetTemplate(idle_id), nullptr)
      << "restore resurrected an evicted template";
  ExpectSameTemplates(bot, *restored);
}

TEST(ServiceTest, DirectMaintenanceEvictionSurvivesRestore) {
  ExpectEvictionSurvivesRestore("maintenance_during_service",
                                /*caller_pass=*/true);
}

TEST(ServiceTest, ServiceMaintenanceEvictionSurvivesRestore) {
  ExpectEvictionSurvivesRestore("service_maintenance",
                                /*caller_pass=*/false);
}

std::vector<double> HistoryTotals(const QueryBot5000& bot) {
  std::vector<double> totals;
  for (TemplateId id : bot.preprocessor().TemplateIds()) {
    totals.push_back(bot.preprocessor().GetTemplate(id)->history.Total());
  }
  return totals;
}

// Ingest, IngestBatch, IngestTemplatized, and EnqueueBatch refuse a NaN,
// infinite, or negative arrival count with kInvalidArgument — checked before
// the service-running refusal — and ingest nothing from the call. An
// accepted NaN or infinity would poison the template's history total, and
// the checkpoint's text stream cannot parse it back, so no later checkpoint
// would restore; a negative count would erase arrivals. Zero and fractional
// counts stay valid.
TEST(ServiceTest, RejectsNonFiniteAndNegativeCountsAtEveryEntryPoint) {
  const std::string path = TestDir() + "/bad_counts.qbc";
  RemoveCheckpointFiles(Env::Default(), path);
  QueryBot5000::Config config = QuietConfig();

  QueryBot5000 bot(config);
  ASSERT_TRUE(bot.StartService(ManualCheckpointOptions(path)).ok());

  const char* const kSqlA = "SELECT a FROM t WHERE id = 1";
  const char* const kSqlB = "SELECT b FROM u WHERE id = 2";
  auto feed_hours = [&](Timestamp from_h, Timestamp to_h) {
    for (Timestamp h = from_h; h < to_h; ++h) {
      QueryArrival a[] = {{kSqlA, h * kSecondsPerHour, 100.5},
                          {kSqlB, h * kSecondsPerHour, h % 6 == 0 ? 0.0 : 50}};
      ASSERT_TRUE(bot.EnqueueBatch(a).ok());
    }
  };
  feed_hours(0, 72);
  bot.DrainForTest();
  ASSERT_TRUE(Env::Default()->FileExists(path)) << "first write missing";
  const double total_before = bot.preprocessor().total_queries();
  const std::vector<double> totals_before = HistoryTotals(bot);
  ASSERT_EQ(totals_before.size(), 2u);

  const Timestamp ts = 72 * kSecondsPerHour;
  auto tmpl = Templatize(kSqlA);
  ASSERT_TRUE(tmpl.ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1e6}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(bot.Ingest(kSqlA, ts, bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bot.IngestTemplatized(*tmpl, ts, bad).code(),
              StatusCode::kInvalidArgument);
    // One bad count refuses the whole batch, its valid neighbour included.
    QueryArrival batch[] = {{kSqlA, ts, 1.0}, {kSqlB, ts, bad}};
    EXPECT_EQ(bot.IngestBatch(batch).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(bot.EnqueueBatch(batch).code(), StatusCode::kInvalidArgument);
  }
  bot.DrainForTest();
  EXPECT_EQ(bot.preprocessor().total_queries(), total_before);
  EXPECT_EQ(HistoryTotals(bot), totals_before);

  feed_hours(73, 80);
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameTemplates(bot, *restored);
}

}  // namespace
}  // namespace qb5000
