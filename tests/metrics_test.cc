// The observability core (common/metrics.h): instrument semantics, the
// log-scale histogram's bucket math, registry registration and export
// stability, checkpoint round-trips — and the lock-cheap concurrency
// contract: writers on ThreadPool workers never lose an update and never
// tear an export, verified with exact final counts (run under TSan in CI).
#include "common/metrics.h"

#include <atomic>
#include <cmath>

#include "common/finite.h"
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/qb5000.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {
namespace {

TEST(Metrics, CounterAddsAndReads) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.events_total");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  // In a QB5000_METRICS=OFF build Add() is a compiled-out no-op.
  EXPECT_EQ(c->value(), kMetricsEnabled ? 42u : 0u);
}

TEST(Metrics, GaugeHoldsLastWrite) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.level");
  EXPECT_EQ(g->value(), 0.0);
  g->Set(0.25);
  g->Set(-3.5);
  EXPECT_EQ(g->value(), kMetricsEnabled ? -3.5 : 0.0);
  // Restore() is the checkpoint path and works even with metrics off.
  g->Restore(1.5);
  EXPECT_EQ(g->value(), 1.5);
}

TEST(Metrics, RegistrationReturnsStableDistinctPointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.a");
  Counter* b = registry.GetCounter("test.b");
  EXPECT_NE(a, b);
  // Same name: same instrument, across many registrations (deque storage
  // must not invalidate earlier pointers as the registry grows).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("test.filler_" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("test.a"), a);
  // Counter / gauge / histogram namespaces are independent.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("test.a")),
            static_cast<void*>(a));
}

TEST(Metrics, HistogramBucketMath) {
  // Bucket i's inclusive upper bound is 1e-9 * 2^i; the last bucket is
  // open-ended. This layout is a stability contract (DESIGN.md §10).
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 1e-9);
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(10), 1e-9 * 1024);
  EXPECT_FALSE(
      qb5000::IsFinite(Histogram::UpperBound(Histogram::kNumBuckets - 1)));

  EXPECT_EQ(Histogram::BucketIndex(1e-9), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.5e-9), 1u);
  // Exact bounds land in their own bucket, one past goes up.
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    double bound = Histogram::UpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << bound;
    EXPECT_EQ(Histogram::BucketIndex(std::nextafter(
                  bound, std::numeric_limits<double>::infinity())),
              i + 1)
        << bound;
  }
  // Degenerate observations never index out of range.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
}

TEST(Metrics, HistogramObserveAccumulates) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.latency_seconds");
  h->Observe(1e-9);
  h->Observe(0.5);
  h->Observe(0.5);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 1.0 + 1e-9);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(Histogram::BucketIndex(0.5)), 2u);
}

TEST(Metrics, ScopedTimerObservesOnceAndNullIsInert) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.scope_seconds");
  { ScopedTimer timer(h); }
  { ScopedTimer timer(nullptr); }
  if (kMetricsEnabled) {
    EXPECT_EQ(h->count(), 1u);
    EXPECT_GE(h->sum(), 0.0);
  } else {
    EXPECT_EQ(h->count(), 0u);
  }
}

TEST(Metrics, StopwatchMeasuresEvenWhenMetricsDisabled) {
  // Stopwatch is the sanctioned ad-hoc timing API (qb_lint raw-chrono-timing
  // bans steady_clock::now() elsewhere); it must work in every build.
  Stopwatch sw;
  double first = sw.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(sw.ElapsedSeconds(), first);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(Metrics, ExportTextIsSortedAndRegistrationOrderIndependent) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  MetricsRegistry forward;
  forward.GetCounter("a.hits_total")->Add(3);
  forward.GetGauge("b.level")->Set(1.5);
  forward.GetHistogram("c.lat_seconds")->Observe(1e-9);

  MetricsRegistry reverse;
  reverse.GetHistogram("c.lat_seconds")->Observe(1e-9);
  reverse.GetGauge("b.level")->Set(1.5);
  reverse.GetCounter("a.hits_total")->Add(3);

  std::string text = forward.ExportText();
  EXPECT_EQ(text, reverse.ExportText());
  EXPECT_EQ(text,
            "counter a.hits_total 3\n"
            "gauge b.level 1.5\n"
            "histogram c.lat_seconds count=1 sum=1e-09 buckets=0:1\n");

  MetricsRegistry::ExportOptions counters_only;
  counters_only.counters_only = true;
  EXPECT_EQ(forward.ExportText(counters_only), "counter a.hits_total 3\n");
}

TEST(Metrics, ExportJsonListsAllInstrumentKinds) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  MetricsRegistry registry;
  registry.GetCounter("x.n_total")->Add(7);
  registry.GetGauge("x.ratio")->Set(0.5);
  registry.GetHistogram("x.t_seconds")->Observe(1e-9);
  EXPECT_EQ(registry.ExportJson(),
            "{\"counters\":{\"x.n_total\":7},"
            "\"gauges\":{\"x.ratio\":0.5},"
            "\"histograms\":{\"x.t_seconds\":"
            "{\"count\":1,\"sum\":1e-09,\"buckets\":{\"0\":1}}}}");
}

TEST(Metrics, SerializeRestoreRoundTripsCountersAndGauges) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  MetricsRegistry source;
  source.GetCounter("p.q_total")->Add(123456789);
  source.GetGauge("p.ratio")->Set(0.123456789012345678);  // needs %.17g
  source.GetHistogram("p.t_seconds")->Observe(1.0);  // must NOT persist

  MetricsRegistry target;
  Status st = target.RestoreState(source.SerializeState());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(target.GetCounter("p.q_total")->value(), 123456789u);
  EXPECT_EQ(target.GetGauge("p.ratio")->value(),
            source.GetGauge("p.ratio")->value());
  EXPECT_EQ(target.GetHistogram("p.t_seconds")->count(), 0u);
}

TEST(Metrics, RestoreStateRejectsGarbageWithoutPartialApply) {
  MetricsRegistry registry;
  registry.GetCounter("keep.me_total")->Add(5);
  EXPECT_FALSE(registry.RestoreState("not-metrics").ok());
  EXPECT_FALSE(registry.RestoreState("metrics-v1\ncounters 2\na 1\n").ok());
  // The failed restores parsed fully before applying: nothing changed.
  EXPECT_EQ(registry.GetCounter("keep.me_total")->value(),
            kMetricsEnabled ? 5u : 0u);
}

TEST(Metrics, ResetZeroesEverything) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("r.n_total");
  Gauge* g = registry.GetGauge("r.level");
  Histogram* h = registry.GetHistogram("r.t_seconds");
  c->Add(9);
  g->Set(2.0);
  h->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0.0);
  EXPECT_EQ(h->bucket(Histogram::BucketIndex(0.5)), 0u);
}

/// Restores the previous global thread count when the test exits.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetThreadCount()) {}
  ~ThreadCountGuard() { SetThreadCount(saved_); }

 private:
  size_t saved_;
};

// The concurrency contract, with exact accounting: writers hammer shared
// instruments from ThreadPool workers while another lane exports and
// registers new instruments mid-flight. Relaxed atomics may reorder but
// must not lose updates; the registry's shared_mutex must keep export and
// registration safe against each other. CI runs this under TSan.
TEST(Metrics, ConcurrentHammerLosesNoUpdates) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  ThreadCountGuard guard;
  constexpr size_t kWriters = 8;
  constexpr uint64_t kOpsPerWriter = 20000;

  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("hammer.hits_total");
  Histogram* lat = registry.GetHistogram("hammer.lat_seconds");
  Gauge* level = registry.GetGauge("hammer.level");

  std::atomic<size_t> writers_done{0};  // lint:raw-atomic-ok (test scaffolding)
  ThreadPool pool(kWriters + 1);
  pool.Run(kWriters + 1, [&](size_t task) {
    if (task == kWriters) {
      // Reader lane: export and register new names until every writer
      // finished, racing the hot-path mutations.
      uint64_t exports = 0;
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        std::string text = registry.ExportText();
        EXPECT_NE(text.find("counter hammer.hits_total "), std::string::npos);
        registry.GetCounter("hammer.reader_" + std::to_string(exports % 32));
        ++exports;
      }
      EXPECT_GT(exports, 0u);
      return;
    }
    for (uint64_t i = 0; i < kOpsPerWriter; ++i) {
      hits->Add();
      lat->Observe(1e-6);
      level->Set(static_cast<double>(i));
    }
    writers_done.fetch_add(1, std::memory_order_release);
  });

  // Exact final counts: every increment landed exactly once.
  EXPECT_EQ(hits->value(), kWriters * kOpsPerWriter);
  EXPECT_EQ(lat->count(), kWriters * kOpsPerWriter);
  EXPECT_EQ(lat->bucket(Histogram::BucketIndex(1e-6)),
            kWriters * kOpsPerWriter);
  // sum accumulates 160k rounded additions; allow accumulation error but
  // not a lost update (one miss would be off by a full 1e-6).
  EXPECT_NEAR(lat->sum(),
              1e-6 * static_cast<double>(kWriters) *
                  static_cast<double>(kOpsPerWriter),
              1e-7);
  EXPECT_EQ(level->value(), static_cast<double>(kOpsPerWriter - 1));
}

// Racing first-registrations of the same name must agree on one instrument.
TEST(Metrics, ConcurrentRegistrationConverges) {
  ThreadCountGuard guard;
  MetricsRegistry registry;
  constexpr size_t kLanes = 8;
  std::array<Counter*, kLanes> seen{};
  ThreadPool pool(kLanes);
  pool.Run(kLanes, [&](size_t lane) {
    for (int name = 0; name < 64; ++name) {
      Counter* c = registry.GetCounter("race." + std::to_string(name));
      if (name == 0) seen[lane] = c;
      c->Add();
    }
  });
  for (size_t lane = 1; lane < kLanes; ++lane) {
    EXPECT_EQ(seen[lane], seen[0]);
  }
  if (kMetricsEnabled) {
    EXPECT_EQ(registry.GetCounter("race.0")->value(), kLanes);
  }
}

// ---------------------------------------------------------------------------
// Ingest instrumentation (DESIGN.md §11): hit/miss counters are exact.
// ---------------------------------------------------------------------------

TEST(Metrics, IngestHitMissCountersAreExact) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry registry;
  PreProcessor::Options options;
  options.metrics = &registry;
  PreProcessor pre(options);

  // 1 miss (first sight) + 32 hits of the same template; literal values
  // vary so the raw strings differ while the normalized key does not.
  ASSERT_TRUE(pre.Ingest("SELECT * FROM t WHERE x = 0", 0).ok());
  for (int i = 1; i <= 32; ++i) {
    std::string sql = "SELECT * FROM t WHERE x = " + std::to_string(i);
    ASSERT_TRUE(pre.Ingest(sql, i).ok());
  }
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_misses_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_hits_total")->value(), 32u);
  EXPECT_EQ(registry.GetCounter("preprocessor.ingests_total")->value(), 33u);
  // One reject: normalization fails, neither hit nor miss moves.
  EXPECT_FALSE(pre.Ingest("SELECT 'oops", 40).ok());
  EXPECT_EQ(registry.GetCounter("preprocessor.parse_failures_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_misses_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_hits_total")->value(), 32u);
}

// Service-mode instrumentation, exact counts end to end: the queue-depth
// gauge tracks the queue, every rejected enqueue is one stall, every working
// drain round is one bg round, and every model publication is one epoch.
// Manual mode (background=false) makes each number deterministic.
TEST(Metrics, ServiceQueueAndEpochCountsAreExact) {
  if (!kMetricsEnabled) GTEST_SKIP() << "instruments are no-ops";
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;  // closed form: fast, exact
  config.horizons = {kSecondsPerHour};
  // The capacity is exact, a power of two or not.
  for (size_t capacity : {size_t{4}, size_t{5}}) {
    SCOPED_TRACE("queue_capacity " + std::to_string(capacity));
    QueryBot5000 bot(config);
    // auto_maintenance off: the drain round is pure ingest, so its metric
    // footprint is exactly one bg round — maintenance is forced explicitly
    // below where the epoch is asserted.
    QueryBot5000::ServiceOptions sopts;
    sopts.queue_capacity = capacity;
    sopts.background = false;
    sopts.auto_maintenance = false;
    ASSERT_TRUE(bot.StartService(sopts).ok());
    Gauge* depth = bot.Metrics().GetGauge("core.queue_depth");
    Counter* stalls =
        bot.Metrics().GetCounter("core.queue_enqueue_stalls_total");
    Counter* rounds = bot.Metrics().GetCounter("core.bg_rounds_total");
    Gauge* epoch_gauge = bot.Metrics().GetGauge("core.model_epoch");

    auto one_at = [](size_t hour) {
      return std::vector<QueryArrival>{{"SELECT x FROM t WHERE id = 1",
                                        Timestamp(hour) * kSecondsPerHour,
                                        1.0}};
    };
    for (size_t i = 0; i < capacity; ++i) {
      ASSERT_TRUE(bot.EnqueueBatch(one_at(i)).ok()) << "enqueue " << i;
      EXPECT_EQ(depth->value(), static_cast<double>(i + 1));
    }
    // Queue full: the next enqueue is exactly one stall.
    EXPECT_EQ(bot.EnqueueBatch(one_at(capacity)).code(),
              StatusCode::kOverloaded);
    EXPECT_EQ(stalls->value(), 1u);
    EXPECT_EQ(depth->value(), static_cast<double>(capacity));
    EXPECT_EQ(rounds->value(), 0u);

    // One drain applies every chunk in one working round, and the queue
    // accepts again.
    bot.DrainForTest();
    EXPECT_EQ(depth->value(), 0.0);
    EXPECT_EQ(rounds->value(), 1u);
    EXPECT_EQ(stalls->value(), 1u) << "drain must not count as a stall";
    ASSERT_TRUE(bot.EnqueueBatch(one_at(capacity)).ok());
    EXPECT_EQ(depth->value(), 1.0);
    bot.DrainForTest();
    EXPECT_EQ(rounds->value(), 2u);

    // No maintenance has run: epoch is still zero.
    EXPECT_EQ(bot.model_epoch(), 0u);
    EXPECT_EQ(epoch_gauge->value(), 0.0);
    // One forced maintenance pass = exactly one model publication. The
    // train status does not matter: a failed train still publishes (the
    // rollback bookkeeping is part of the swapped snapshot).
    (void)bot.RunMaintenance(Timestamp(capacity + 1) * kSecondsPerHour,
                             /*force=*/true);
    EXPECT_EQ(bot.model_epoch(), 1u);
    EXPECT_EQ(epoch_gauge->value(), 1.0);
    ASSERT_TRUE(bot.StopService().ok());
  }
}

TEST(Metrics, CacheDisabledCountsEverythingAsMiss) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry registry;
  PreProcessor::Options options;
  options.metrics = &registry;
  options.template_cache_capacity = 0;
  PreProcessor pre(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pre.Ingest("SELECT * FROM t WHERE x = 1", i).ok());
  }
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_misses_total")->value(), 5u);
  EXPECT_EQ(registry.GetCounter("preprocessor.cache_hits_total")->value(), 0u);
  EXPECT_EQ(pre.cache_size(), 0u);
}

}  // namespace
}  // namespace qb5000
