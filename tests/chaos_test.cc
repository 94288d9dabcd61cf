// Runtime chaos sweep (DESIGN.md §13): every fault class the ChaosHarness
// can inject — NaN gradients, clock jumps, stage stalls, allocation
// failures — plus an I/O crash via FaultInjectingEnv, must land the pipeline
// in a *documented degraded state*: forecasts stay finite, ingest never
// deadlocks, rollback restores last-good outputs bit-exactly, and
// deadline-bounded forecasts meet their budget by walking down the ladder.
//
// Faults are deterministic (kind, site, N-th probe), so every test here is a
// regression test, not a flake generator. Each test Reset()s the global
// harness in teardown.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/chaos.h"
#include "common/finite.h"
#include "common/io.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/qb5000.h"
#include "preprocessor/templatizer.h"

namespace qb5000 {
namespace {

// Sanitizer instrumentation slows wall-clock-bounded paths; the ladder
// contract is unchanged but the budget scales with the build flavor.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kBudgetScale = 10.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kBudgetScale = 10.0;
#else
constexpr double kBudgetScale = 1.0;
#endif
#else
constexpr double kBudgetScale = 1.0;
#endif

// Wall-clock budgets additionally scale on hosts with a single hardware
// thread: a CPU-bound spinner there gets preempted at the scheduler tick
// (milliseconds), so a 1ms bound measures host noise, not the ladder.
// The latency-asserting tests are also RUN_SERIAL in ctest (see
// tests/CMakeLists.txt): sharing the core with a parallel test neighbor
// adds whole scheduler quanta to p99 and measures ctest, not the code.
// bench_resilience records the unscaled numbers with the same caveat.
double HostBudgetScale() {
  return GetThreadCount() <= 1 ? 10.0 * kBudgetScale : kBudgetScale;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { ChaosHarness::Global().Reset(); }

  /// A controller with three days of sinusoidal history on two templates,
  /// trained once (the last-good round). Small model knobs keep the neural
  /// components cheap while still exercising the Adam path.
  static QueryBot5000 BuildTrainedBot(ModelKind kind) {
    QueryBot5000::Config config;
    config.forecaster.kind = kind;
    config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
    config.forecaster.model.embedding_dim = 6;
    config.forecaster.model.hidden_dim = 6;
    config.forecaster.model.num_layers = 1;
    config.forecaster.model.max_epochs = 4;
    config.horizons = {kSecondsPerHour};
    QueryBot5000 bot(config);
    FeedSinusoid(bot, 0, 3 * 24);
    auto st = bot.RunMaintenance(kTrainTime, /*force=*/true);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return bot;
  }

  static void FeedSinusoid(QueryBot5000& bot, int from_hour, int to_hour) {
    auto a = Templatize("SELECT a FROM t WHERE id = 1");
    auto b = Templatize("SELECT b FROM u WHERE id = 2");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (int h = from_hour; h < to_hour; ++h) {
      double t = static_cast<double>(h) / 24.0;
      double rate = 100 * (1.5 + std::sin(2 * M_PI * t));
      Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
      bot.IngestTemplatized(*a, ts, rate);
      bot.IngestTemplatized(*b, ts, rate / 2);
    }
  }

  static constexpr Timestamp kTrainTime = 3 * kSecondsPerDay;
};

// ---------------------------------------------------------------------------
// Fault class 1: NaN gradient (diverged training). The health gate must
// reject the poisoned staged models and keep serving last-good bit-exactly.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, NanGradientRollsBackToLastGoodBitExactly) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kHybrid);
  auto before = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Poison the very first optimizer step of the retrain round. The NaN
  // spreads through the moment estimates into the parameters, every epoch's
  // validation loss is NaN, and the trainer reports divergence instead of
  // returning its random init as "trained".
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kNanGradient, "adam.step",
                             /*nth=*/0);
  Status st = bot.RunMaintenance(kTrainTime + kSecondsPerHour, /*force=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("diverged"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(ChaosHarness::Global().fires_total(), 1);

  const RecoveryReport& recovery = bot.forecaster().last_recovery();
  EXPECT_TRUE(recovery.rolled_back);
  EXPECT_FALSE(recovery.discarded);
  ASSERT_EQ(recovery.failed_horizons.size(), 1u);
  EXPECT_EQ(recovery.failed_horizons[0], kSecondsPerHour);
  EXPECT_EQ(bot.Metrics().GetCounter("forecaster.rollbacks_total")->value(),
            kMetricsEnabled ? 1u : 0u);

  // Rollback restores last-good outputs bit-exactly (same inputs, same
  // committed models), and nothing non-finite ever reaches a caller.
  auto after = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->queries_per_interval.size(),
            before->queries_per_interval.size());
  for (size_t i = 0; i < after->queries_per_interval.size(); ++i) {
    EXPECT_EQ(after->queries_per_interval[i], before->queries_per_interval[i]);
    EXPECT_TRUE(IsFinite(after->queries_per_interval[i]));
  }
}

TEST_F(ChaosTest, NanGradientOnFirstRoundLeavesForecasterUntrained) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kEnsemble;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.forecaster.model.embedding_dim = 6;
  config.forecaster.model.hidden_dim = 6;
  config.forecaster.model.num_layers = 1;
  config.forecaster.model.max_epochs = 4;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 bot(config);
  FeedSinusoid(bot, 0, 3 * 24);

  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kNanGradient, "adam.step",
                             /*nth=*/0);
  // No last-good set exists: the diverged first round is a real error and
  // the forecaster stays untrained (discarded, not rolled back).
  Status st = bot.RunMaintenance(kTrainTime, /*force=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(bot.forecaster().trained());
  const RecoveryReport& recovery = bot.forecaster().last_recovery();
  EXPECT_TRUE(recovery.discarded);
  EXPECT_FALSE(recovery.rolled_back);
  EXPECT_EQ(bot.Metrics().GetCounter("forecaster.rollbacks_total")->value(),
            0u);
  EXPECT_FALSE(bot.Forecast(kTrainTime, kSecondsPerHour).ok());
}

TEST_F(ChaosTest, MseBlowUpTriggersHealthGateRollback) {
  // The health gate's second line of defense: a staged model whose
  // in-sample MSE explodes versus the previous round's (same clusters) is
  // rejected even though its parameters are finite. Round 1 trains on a
  // perfectly regular workload (tiny MSE); round 2 retrains after the
  // workload turns into violent alternation the linear model cannot fit.
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  // A short input window keeps rows >> parameters (44 vs 5); with the
  // default 24 the hourly dataset has as many parameters as rows and LR
  // interpolates even noise exactly, hiding the blow-up this test stages.
  config.forecaster.input_window = 4;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 bot(config);
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int h = 0; h < 3 * 24; ++h) {
    bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                          100.0);  // constant: LR fits it near-exactly
  }
  ASSERT_TRUE(bot.RunMaintenance(kTrainTime, /*force=*/true).ok());
  auto before = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(before.ok());

  // Two days of deterministic hash-noise (a strict alternation would be
  // linearly learnable — only two distinct input rows). No window-linear
  // model fits this, so the staged log-space MSE lands orders of magnitude
  // above round 1's near-zero, tripping the (generous) 16x gate.
  for (int h = 3 * 24; h < 5 * 24; ++h) {
    double u = std::sin(static_cast<double>(h) * 12.9898) * 43758.5453;
    u -= std::floor(u);  // uniform-ish in [0, 1)
    bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                          1.0 + 49999.0 * u);
  }
  Status st = bot.RunMaintenance(5 * kSecondsPerDay, /*force=*/true);
  // A gate rejection with a last-good set is a *degraded success*: an error
  // would make the controller retrain (and re-reject) every pass.
  EXPECT_TRUE(st.ok()) << st.ToString();
  const RecoveryReport& recovery = bot.forecaster().last_recovery();
  EXPECT_TRUE(recovery.health_check_failed);
  EXPECT_TRUE(recovery.rolled_back);
  ASSERT_EQ(recovery.failed_horizons.size(), 1u);
  EXPECT_EQ(recovery.failed_horizons[0], kSecondsPerHour);
  EXPECT_EQ(bot.Metrics().GetCounter("forecaster.rollbacks_total")->value(),
            kMetricsEnabled ? 1u : 0u);
  EXPECT_EQ(
      bot.Metrics().GetCounter("forecaster.health_failures_total")->value(),
      kMetricsEnabled ? 1u : 0u);
  // Last-good models keep serving, finite and non-negative.
  auto after = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(after.ok());
  for (double v : after->queries_per_interval) {
    EXPECT_TRUE(IsFinite(v));
    EXPECT_GE(v, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Fault class 2: clock jumps through the maintenance entry point.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ForwardClockJumpDoesNotMassEvictTemplates) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kLr);
  size_t templates_before = bot.preprocessor().num_templates();
  ASSERT_GE(templates_before, 2u);

  // The next maintenance pass sees a +90 day step (NTP/VM resume). Without
  // the housekeeping clamp this would put every template past the 30-day
  // eviction threshold and wipe the pipeline.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kClockJump,
                             "maintenance.clock", /*nth=*/0,
                             /*param=*/90.0 * kSecondsPerDay);
  Status st = bot.RunMaintenance(kTrainTime + kSecondsPerDay);
  EXPECT_EQ(ChaosHarness::Global().fires_total(), 1);
  EXPECT_EQ(bot.preprocessor().num_templates(), templates_before);
  // Whatever training did at the stepped time, the pipeline stays sane:
  // either a clean error or a forecast with finite values.
  if (st.ok() && bot.forecaster().trained()) {
    auto f = bot.Forecast(bot.last_maintenance(), kSecondsPerHour);
    if (f.ok()) {
      for (double v : f->queries_per_interval) {
        EXPECT_TRUE(IsFinite(v));
        EXPECT_GE(v, 0.0);
      }
    }
  }
}

TEST_F(ChaosTest, BackwardClockJumpReanchorsMaintenanceTimer) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kLr);
  ASSERT_EQ(bot.last_maintenance(), kTrainTime);

  // The pass at +1d observes a clock regressed by 2 days: the timer must
  // re-anchor to the regressed clock rather than staying armed in its
  // future (which would silently disable periodic maintenance).
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kClockJump,
                             "maintenance.clock", /*nth=*/0,
                             /*param=*/-2.0 * kSecondsPerDay);
  ASSERT_TRUE(bot.RunMaintenance(kTrainTime + kSecondsPerDay).ok());
  EXPECT_EQ(ChaosHarness::Global().fires_total(), 1);
  EXPECT_LE(bot.last_maintenance(), kTrainTime - kSecondsPerDay);
  // One period past the regressed time, maintenance is due again.
  ASSERT_TRUE(bot.RunMaintenance(kTrainTime).ok());
  EXPECT_EQ(bot.last_maintenance(), kTrainTime);
}

// ---------------------------------------------------------------------------
// Fault class 3: stalls. A wedged maintenance thread (holding the state
// lock exclusively) must not make bounded forecasts miss their budget: the
// ladder's fallback rung serves lock-free from the snapshot.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, BoundedForecastMeetsBudgetWhileMaintenanceStalls) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kLr);
  const double kBudget = 0.001 * HostBudgetScale();
  // The stall must outlast enough bounded calls for a meaningful p99: each
  // call costs ~budget/2 in lock wait, so scale the stall with the budget
  // (which is itself scaled up under sanitizers and on single-core hosts).
  const double kStallSeconds = std::max(1.0, 40.0 * kBudget);
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "maintenance.train",
                             /*nth=*/0, /*param=*/kStallSeconds);

  std::vector<double> latencies;
  uint64_t fallbacks_before =
      bot.Metrics().GetCounter("core.forecast_rung_fallback_total")->value();
  Status maintenance_status;
  ThreadPool pool(2);
  pool.Run(2, [&](size_t task) {
    if (task == 0) {
      // Holds the state lock exclusively for the whole stall.
      maintenance_status =
          bot.RunMaintenance(kTrainTime + kSecondsPerDay, /*force=*/true);
      return;
    }
    // Start hammering exactly when the victim stage is wedged; no timing
    // guesses. (On a single-core host the stall sleeps, so we still run.)
    while (!ChaosHarness::Global().stall_active()) {
      std::this_thread::yield();
    }
    Stopwatch stall_guard;
    for (int i = 0; i < 100 && stall_guard.ElapsedSeconds() <
                                   kStallSeconds * 0.8; ++i) {
      ForecastRung rung = ForecastRung::kFull;
      Stopwatch call;
      auto f = bot.Forecast(kTrainTime, kSecondsPerHour, kBudget, &rung);
      latencies.push_back(call.ElapsedSeconds());
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      EXPECT_EQ(rung, ForecastRung::kFallback);
      for (double v : f->queries_per_interval) {
        EXPECT_TRUE(IsFinite(v));
        EXPECT_GE(v, 0.0);
      }
    }
  });
  EXPECT_TRUE(maintenance_status.ok()) << maintenance_status.ToString();

  ASSERT_GE(latencies.size(), 20u);
  if (kMetricsEnabled) {
    EXPECT_GT(
        bot.Metrics().GetCounter("core.forecast_rung_fallback_total")->value(),
        fallbacks_before);
  }
  // p99 stays under the budget: the lock wait is capped at half the budget
  // and the fallback rung is a lock-free snapshot copy. (Nearest-rank p99:
  // rank ceil(0.99 * n).)
  std::sort(latencies.begin(), latencies.end());
  size_t rank = (latencies.size() * 99 + 99) / 100;
  double p99 = latencies[rank - 1];
  EXPECT_LE(p99, kBudget) << "p99=" << p99 << "s over " << latencies.size()
                          << " bounded forecasts";
  // And the stalled maintenance pass itself completed normally afterwards.
  auto f = bot.Forecast(kTrainTime + kSecondsPerDay, kSecondsPerHour);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
}

TEST_F(ChaosTest, GatherStallDegradesToLinearRung) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kHybrid);
  // The input gather stalls past the whole budget: the deadline check after
  // it must skip the RNN/KR stages and serve the linear-only rung.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "forecast.gather",
                             /*nth=*/0, /*param=*/0.05 * kBudgetScale);
  ForecastRung rung = ForecastRung::kFull;
  auto f = bot.Forecast(kTrainTime, kSecondsPerHour, 0.02 * kBudgetScale,
                        &rung);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kLinearOnly);
  EXPECT_EQ(
      bot.Metrics().GetCounter("core.forecast_rung_linear_total")->value(),
      kMetricsEnabled ? 1u : 0u);
  for (double v : f->queries_per_interval) {
    EXPECT_TRUE(IsFinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST_F(ChaosTest, KrStageStallDegradesToLinearRung) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kHybrid);
  // Gather fits in budget; HYBRID's KR correction stage stalls past it.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "forecast.kr",
                             /*nth=*/0, /*param=*/0.05 * kBudgetScale);
  ForecastRung rung = ForecastRung::kFull;
  auto f = bot.Forecast(kTrainTime, kSecondsPerHour, 0.02 * kBudgetScale,
                        &rung);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kLinearOnly);
  EXPECT_EQ(
      bot.Metrics().GetCounter("core.forecast_rung_linear_total")->value(),
      kMetricsEnabled ? 1u : 0u);
}

TEST_F(ChaosTest, GatherStallWithoutLinearRungFallsToSnapshot) {
  // A pure-neural deployment has no linear rung: exhausting the budget must
  // fall through to the controller's history-average snapshot instead.
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kRnn);
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "forecast.gather",
                             /*nth=*/0, /*param=*/0.05 * kBudgetScale);
  ForecastRung rung = ForecastRung::kFull;
  auto f = bot.Forecast(kTrainTime, kSecondsPerHour, 0.02 * kBudgetScale,
                        &rung);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kFallback);
  EXPECT_EQ(
      bot.Metrics().GetCounter("core.forecast_rung_fallback_total")->value(),
      kMetricsEnabled ? 1u : 0u);
  for (double v : f->queries_per_interval) {
    EXPECT_TRUE(IsFinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST_F(ChaosTest, UnboundedForecastServesFullRung) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kHybrid);
  ForecastRung rung = ForecastRung::kFallback;
  auto f = bot.Forecast(kTrainTime, kSecondsPerHour, /*budget_seconds=*/0.0,
                        &rung);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kFull);
  EXPECT_EQ(bot.Metrics().GetCounter("core.forecast_rung_full_total")->value(),
            kMetricsEnabled ? 1u : 0u);
}

// ---------------------------------------------------------------------------
// Fault class 4: allocation failure mid-training.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TrainingAllocFailureKeepsLastGoodServing) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kLr);
  auto before = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(before.ok());

  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kAllocFail,
                             "forecaster.train", /*nth=*/0);
  Status st = bot.RunMaintenance(kTrainTime + kSecondsPerDay, /*force=*/true);
  // Unlike a health-gate rollback, a fit-path failure is surfaced: the
  // round did not complete and the caller may want to alert. Last-good
  // models still serve.
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(bot.forecaster().trained());
  EXPECT_TRUE(bot.forecaster().last_recovery().rolled_back);
  EXPECT_EQ(bot.Metrics().GetCounter("forecaster.rollbacks_total")->value(),
            kMetricsEnabled ? 1u : 0u);

  auto after = bot.Forecast(kTrainTime, kSecondsPerHour);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->queries_per_interval.size(),
            before->queries_per_interval.size());
  for (size_t i = 0; i < after->queries_per_interval.size(); ++i) {
    EXPECT_EQ(after->queries_per_interval[i], before->queries_per_interval[i]);
  }
}

TEST_F(ChaosTest, StaleModeledClusterDegradesToFallbackUntilRetrained) {
  // Re-clustering dissolves a modeled cluster, then the training round that
  // would follow it fails: the last-good models still name the dissolved
  // cluster. Bounded forecasts must degrade to the (already refreshed)
  // fallback snapshot instead of failing on the unknown cluster.
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  config.template_eviction_seconds = 2 * kSecondsPerDay;
  QueryBot5000 bot(config);
  auto day = Templatize("SELECT a FROM t WHERE id = 1");
  auto night = Templatize("SELECT b FROM u WHERE id = 2");
  ASSERT_TRUE(day.ok());
  ASSERT_TRUE(night.ok());
  auto feed = [&](int from_hour, int to_hour, bool with_night) {
    for (int h = from_hour; h < to_hour; ++h) {
      double wave = std::sin(2 * M_PI * static_cast<double>(h) / 24.0);
      Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
      bot.IngestTemplatized(*day, ts, 100 * (1.5 + wave));
      if (with_night) bot.IngestTemplatized(*night, ts, 100 * (1.5 - wave));
    }
  };
  feed(0, 4 * 24, /*with_night=*/true);
  Timestamp first_pass = 4 * kSecondsPerDay;
  ASSERT_TRUE(bot.RunMaintenance(first_pass, /*force=*/true).ok());
  ASSERT_EQ(bot.forecaster().modeled_clusters().size(), 2u);

  // Three more days of the day-shaped template only: the night template
  // idles past the eviction window and its cluster dissolves.
  feed(4 * 24, 7 * 24, /*with_night=*/false);
  Timestamp now = 7 * kSecondsPerDay;
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kAllocFail,
                             "forecaster.train", /*nth=*/0);
  Status st = bot.RunMaintenance(now, /*force=*/true);
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_EQ(bot.clusterer().clusters().size(), 1u);
  ASSERT_EQ(bot.forecaster().modeled_clusters().size(), 2u);

  ForecastRung rung = ForecastRung::kFull;
  auto bounded = bot.Forecast(now, kSecondsPerHour, 0.5, &rung);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kFallback);
  ASSERT_EQ(bounded->queries_per_interval.size(), 1u);
  for (double v : bounded->queries_per_interval) {
    EXPECT_TRUE(IsFinite(v));
    EXPECT_GE(v, 0.0);
  }
  auto unbounded = bot.Forecast(now, kSecondsPerHour);
  ASSERT_FALSE(unbounded.ok());
  EXPECT_EQ(unbounded.status().code(), StatusCode::kFailedPrecondition);

  // The next successful round retrains on the surviving cluster and the
  // full rung serves again.
  ASSERT_TRUE(bot.RunMaintenance(now, /*force=*/true).ok());
  rung = ForecastRung::kFallback;
  auto recovered = bot.Forecast(now, kSecondsPerHour, 0.5, &rung);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rung, ForecastRung::kFull);
  EXPECT_EQ(recovered->clusters.size(), 1u);
}

// ---------------------------------------------------------------------------
// Backpressure: a parked in-flight batch holds its backlog reservation, so
// concurrent arrivals beyond the bound shed with kOverloaded — and the shed
// is accounted, retryable, and leaves no state behind.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, AdmissionGateShedsConcurrentArrivalsUnderBacklog) {
  QueryBot5000::Config config;
  config.max_pending_arrivals = 4;
  QueryBot5000 bot(config);

  std::vector<QueryArrival> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({"SELECT a FROM t WHERE id = 1", kSecondsPerHour, 1.0});
  }
  // Park the batch after admission: it overshoots the bound (documented —
  // one oversized batch against an idle pipeline is always admitted) and
  // holds 8 pending slots while stalled.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "ingest.batch",
                             /*nth=*/0, /*param=*/1.0);

  Status shed_status;
  Result<std::vector<TemplateId>> batch_ids = Status::Internal("unset");
  ThreadPool pool(2);
  pool.Run(2, [&](size_t task) {
    if (task == 0) {
      batch_ids = bot.IngestBatch(batch);
      return;
    }
    while (!ChaosHarness::Global().stall_active()) {
      std::this_thread::yield();
    }
    // Backlog is 8 >= 4: this arrival must shed, not block.
    shed_status = bot.Ingest("SELECT b FROM u WHERE id = 2", kSecondsPerHour);
  });

  ASSERT_TRUE(batch_ids.ok()) << batch_ids.status().ToString();
  EXPECT_EQ(batch_ids->size(), 8u);
  EXPECT_EQ(shed_status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(bot.Metrics().GetCounter("core.sheds_total")->value(),
            kMetricsEnabled ? 1u : 0u);
  // The shed arrival left no trace; the admitted batch fully landed.
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(), 8.0);
  // Once the batch drains, the same arrival is admitted (retry works).
  EXPECT_TRUE(
      bot.Ingest("SELECT b FROM u WHERE id = 2", kSecondsPerHour).ok());
  EXPECT_EQ(bot.Metrics().GetCounter("core.sheds_total")->value(),
            kMetricsEnabled ? 1u : 0u);
}

TEST_F(ChaosTest, AdmissionGateOffMeansUnbounded) {
  QueryBot5000::Config config;
  config.max_pending_arrivals = 0;  // gate off
  QueryBot5000 bot(config);
  std::vector<QueryArrival> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({"SELECT a FROM t WHERE id = 1", kSecondsPerHour, 1.0});
  }
  auto ids = bot.IngestBatch(batch);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(bot.Metrics().GetCounter("core.sheds_total")->value(), 0u);
}

// ---------------------------------------------------------------------------
// Fault class 5: I/O crash (FaultInjectingEnv, the filesystem seam of the
// same taxonomy). A crashed checkpoint write must leave the previous
// checkpoint restorable — the durability ladder (DESIGN.md §8) backs the
// runtime ladder here.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, CheckpointCrashLeavesPreviousCheckpointRestorable) {
  QueryBot5000 bot = BuildTrainedBot(ModelKind::kLr);
  std::string path = ::testing::TempDir() + "qb5000_chaos_ckpt";
  FaultInjectingEnv env(nullptr);
  ASSERT_TRUE(bot.Checkpoint(path, &env).ok());
  int64_t ops_per_checkpoint = env.ops_issued();
  ASSERT_GT(ops_per_checkpoint, 0);

  // Crash the middle of the next checkpoint write.
  env.Reset();
  env.InjectFault(FaultInjectingEnv::FaultKind::kCrash,
                  ops_per_checkpoint / 2);
  FeedSinusoid(bot, 3 * 24, 4 * 24);
  Status st = bot.Checkpoint(path, &env);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(env.crashed());

  // The previous checkpoint still restores a working pipeline.
  env.Reset();
  QueryBot5000::Config config = bot.config();
  auto restored = QueryBot5000::Restore(path, config, &env);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->preprocessor().num_templates(),
            bot.preprocessor().num_templates());
  auto f = restored->Forecast(kTrainTime, kSecondsPerHour);
  if (f.ok()) {
    for (double v : f->queries_per_interval) EXPECT_TRUE(IsFinite(v));
  }
}

// ---------------------------------------------------------------------------
// Fault class 5b: crash mid delta-checkpoint append (service mode). The
// incremental sidecar rides the same durability ladder as the full
// checkpoint: killing the writer at ANY I/O op must restore either the
// state as of the last committed write (base, or base+prior delta) or the
// state including the new delta — never a half state, never a salvage.
// ---------------------------------------------------------------------------

// Feeds hours [from_hour, to_hour) of the two-template sinusoid through the
// service queue, one batch per hour. Capacity is sized so TryPush never
// sheds in manual (foreground) mode.
void EnqueueSinusoidHours(QueryBot5000& bot, int from_hour, int to_hour) {
  static constexpr const char* kSqlA = "SELECT a FROM t WHERE id = 1";
  static constexpr const char* kSqlB = "SELECT b FROM u WHERE id = 2";
  for (int h = from_hour; h < to_hour; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 100 * (1.5 + std::sin(2 * M_PI * t));
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    QueryArrival arrivals[2];
    arrivals[0] = {kSqlA, ts, rate};
    arrivals[1] = {kSqlB, ts, rate / 2};
    ASSERT_TRUE(bot.EnqueueBatch(arrivals).ok());
  }
}

// The synchronous twin of EnqueueSinusoidHours: same batches through
// IngestBatch, so batch-granular counters match the service-fed bot.
void IngestSinusoidHours(QueryBot5000& bot, int from_hour, int to_hour) {
  static constexpr const char* kSqlA = "SELECT a FROM t WHERE id = 1";
  static constexpr const char* kSqlB = "SELECT b FROM u WHERE id = 2";
  for (int h = from_hour; h < to_hour; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 100 * (1.5 + std::sin(2 * M_PI * t));
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    QueryArrival arrivals[2];
    arrivals[0] = {kSqlA, ts, rate};
    arrivals[1] = {kSqlB, ts, rate / 2};
    ASSERT_TRUE(bot.IngestBatch(arrivals).ok());
  }
}

void RemoveServiceCheckpointFiles(const std::string& path) {
  Env* env = Env::Default();
  for (const std::string& base : {path, path + ".delta"}) {
    for (const char* suffix : {"", ".bak", ".tmp"}) {
      (void)env->DeleteFile(base + suffix);
    }
  }
}

// A wedged background drain (the `service.drain` stall site) must not leak
// back to producers as blocking: the ring absorbs what fits, EnqueueBatch
// sheds kOverloaded immediately past that, and once the stall clears every
// accepted arrival lands.
TEST_F(ChaosTest, ServiceDrainStallShedsButNeverBlocksProducers) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions opts;
  opts.queue_capacity = 4;
  opts.background = true;
  opts.auto_maintenance = false;
  ASSERT_TRUE(bot.StartService(opts).ok());

  const double stall_seconds = 0.5;
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "service.drain",
                             /*nth=*/0, stall_seconds);
  QueryArrival one[] = {{"SELECT a FROM t WHERE id = 1", 0, 1.0}};
  ASSERT_TRUE(bot.EnqueueBatch(one).ok());  // wakes the drain into the stall
  while (!ChaosHarness::Global().stall_active()) {
    std::this_thread::yield();
  }
  // The consumer is wedged holding the popped chunk; the ring has 4 free
  // slots. Fill them, then verify the 5th sheds fast instead of blocking
  // for the rest of the stall.
  double accepted = 1.0;
  for (int i = 0; i < 4; ++i) {
    QueryArrival a[] = {{"SELECT a FROM t WHERE id = 1",
                         static_cast<Timestamp>(i + 1), 1.0}};
    ASSERT_TRUE(bot.EnqueueBatch(a).ok());
    accepted += 1.0;
  }
  QueryArrival extra[] = {{"SELECT a FROM t WHERE id = 1", 5, 1.0}};
  Stopwatch shed;
  Status st = bot.EnqueueBatch(extra);
  EXPECT_EQ(st.code(), StatusCode::kOverloaded) << st.ToString();
  EXPECT_LT(shed.ElapsedSeconds(), stall_seconds / 2) << "producer blocked";
  if (kMetricsEnabled) {
    EXPECT_GE(
        bot.Metrics().GetCounter("core.queue_enqueue_stalls_total")->value(),
        1u);
  }

  // Retry the shed batch until the drain resumes and frees a slot, then
  // everything accepted must land exactly once.
  while (!bot.EnqueueBatch(extra).ok()) {
    std::this_thread::yield();
  }
  accepted += 1.0;
  bot.DrainForTest();
  EXPECT_NEAR(bot.preprocessor().total_queries(), accepted, 1e-9);
  ASSERT_TRUE(bot.StopService().ok());
}

// ---------------------------------------------------------------------------
// Fault class 3b/4b: the sharded drain's two chaos sites. `service.shard`
// stalls one parallel prep; `service.merge` fails the ordered merge's
// allocation probe. Both must degrade without ever reordering the merge —
// template ids are assigned at merge time, so any reorder shows up as a
// state divergence from a synchronously-fed twin.
// ---------------------------------------------------------------------------

// Each batch introduces a structurally new template (a fresh column name —
// literals alone would templatize together), so template ids encode the
// exact merge order: a single swapped pair of chunks diverges the state.
std::string OrderProbeSql(int n) {
  return "SELECT c" + std::to_string(n) + " FROM order_probe WHERE k = 1";
}

void ExpectSameTemplateState(const QueryBot5000& service_bot,
                             const QueryBot5000& sync_bot) {
  ASSERT_EQ(service_bot.preprocessor().TemplateIds(),
            sync_bot.preprocessor().TemplateIds());
  for (TemplateId id : sync_bot.preprocessor().TemplateIds()) {
    const auto* a = service_bot.preprocessor().GetTemplate(id);
    const auto* b = sync_bot.preprocessor().GetTemplate(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->fingerprint, b->fingerprint) << "template " << id;
    EXPECT_EQ(a->text, b->text) << "template " << id;
    EXPECT_EQ(a->first_seen, b->first_seen) << "template " << id;
    EXPECT_EQ(a->last_seen, b->last_seen) << "template " << id;
    EXPECT_DOUBLE_EQ(a->history.Total(), b->history.Total())
        << "template " << id;
  }
  EXPECT_DOUBLE_EQ(service_bot.preprocessor().total_queries(),
                   sync_bot.preprocessor().total_queries());
}

TEST_F(ChaosTest, ServiceShardStallDelaysButNeverReordersMerge) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 sync_bot(config);
  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions opts;
  opts.queue_capacity = 64;
  opts.background = false;  // DrainForTest runs the sharded drain inline
  opts.auto_maintenance = false;
  opts.drain_workers = 4;
  ASSERT_TRUE(bot.StartService(opts).ok());

  // One of the first claimed preps wedges for 0.3s while its siblings finish
  // in microseconds: the ordered merge must *wait* at the stalled index (the
  // head-of-line counter proves it) rather than skip ahead.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kStall, "service.shard",
                             /*nth=*/0, /*param=*/0.3);
  for (int n = 0; n < 24; ++n) {  // > one run's chunk cap: spans two runs
    std::string sql = OrderProbeSql(n);
    QueryArrival batch[] = {{sql, static_cast<Timestamp>(n) * kSecondsPerHour,
                             1.0}};
    ASSERT_TRUE(bot.EnqueueBatch(batch).ok());
    ASSERT_TRUE(sync_bot.IngestBatch(batch).ok());
  }
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());

  EXPECT_EQ(ChaosHarness::Global().fires_total(), 1);
  // No merge-wait assertion: the drain loop *helps* prepare unclaimed
  // chunks while the stalled one is in flight, so whether it ever truly
  // blocks depends on scheduling. The invariant under test is ordering,
  // not stalling.
  ExpectSameTemplateState(bot, sync_bot);
}

TEST_F(ChaosTest, ServiceMergeAllocFailRetriesWithoutLossOrReorder) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  QueryBot5000 sync_bot(config);
  QueryBot5000 bot(config);
  QueryBot5000::ServiceOptions opts;
  opts.queue_capacity = 64;
  opts.background = false;
  opts.auto_maintenance = false;
  opts.drain_workers = 2;
  ASSERT_TRUE(bot.StartService(opts).ok());

  // Phase 1: train once so there are committed models to protect. The twin
  // is fed identical batches through IngestBatch so batch-granular counters
  // stay comparable.
  EnqueueSinusoidHours(bot, 0, 2 * 24);
  bot.DrainForTest();
  IngestSinusoidHours(sync_bot, 0, 2 * 24);
  ASSERT_TRUE(bot.RunMaintenance(2 * kSecondsPerDay, /*force=*/true).ok());
  ASSERT_TRUE(sync_bot.RunMaintenance(2 * kSecondsPerDay, /*force=*/true).ok());
  auto before = bot.Forecast(2 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Phase 2: the merge's allocation probe fails on the round's third chunk.
  // The round aborts there, the unmerged tail re-queues in order, and the
  // retry round lands everything exactly once — counters and template state
  // as if the fault never happened, previous models still serving.
  ChaosHarness::Global().Arm(ChaosHarness::OpKind::kAllocFail, "service.merge",
                             /*nth=*/2);
  for (int n = 0; n < 12; ++n) {
    std::string sql = OrderProbeSql(n);
    QueryArrival batch[] = {
        {sql, 2 * kSecondsPerDay + static_cast<Timestamp>(n) * kSecondsPerHour,
         1.0}};
    ASSERT_TRUE(bot.EnqueueBatch(batch).ok());
    ASSERT_TRUE(sync_bot.IngestBatch(batch).ok());
  }
  bot.DrainForTest();
  ASSERT_TRUE(bot.StopService().ok());

  EXPECT_EQ(ChaosHarness::Global().fires_total(), 1);
  ExpectSameTemplateState(bot, sync_bot);
  if (kMetricsEnabled) {
    // Exactly-once merge despite the aborted round: one batch counted per
    // chunk fed (2 * 48 sinusoid hours + 12 probes on the service side vs
    // the same batches synchronously).
    EXPECT_EQ(bot.Metrics().GetCounter("preprocessor.batches_total")->value(),
              sync_bot.Metrics()
                  .GetCounter("preprocessor.batches_total")
                  ->value());
  }
  // The fault touched ingest only: committed models keep serving bit-exactly.
  auto after = bot.Forecast(2 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->queries_per_interval.size(),
            before->queries_per_interval.size());
  for (size_t i = 0; i < after->queries_per_interval.size(); ++i) {
    EXPECT_EQ(after->queries_per_interval[i], before->queries_per_interval[i]);
  }
}

TEST_F(ChaosTest, ServiceDeltaCheckpointCrashSweepLeavesOldOrNew) {
  const std::string path =
      ::testing::TempDir() + "qb5000_service_delta_sweep.qbc";
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};

  FaultInjectingEnv env(nullptr);
  // One service session: phase A establishes the full base (first periodic
  // write of a session is always full), phase B lands in exactly one delta
  // append. Foreground mode keeps the op sequence deterministic; the
  // maintenance loop is off because training does no I/O and would only
  // slow the sweep.
  auto run_session = [&](QueryBot5000& bot, double* old_total,
                         int64_t* delta_ops) {
    QueryBot5000::ServiceOptions opts;
    opts.queue_capacity = 64;
    opts.background = false;
    opts.auto_maintenance = false;
    opts.checkpoint_path = path;
    opts.checkpoint_period_seconds = kSecondsPerHour;
    opts.compact_every = 1000;  // never promote: phase B must stay a delta
    opts.env = &env;
    ASSERT_TRUE(bot.StartService(opts).ok());
    EnqueueSinusoidHours(bot, 0, 12);
    bot.DrainForTest();  // writes the full base checkpoint
    if (old_total != nullptr) {
      *old_total = bot.preprocessor().total_queries();
    }
    env.Reset();  // faults (and op counting) cover only the delta append
    EnqueueSinusoidHours(bot, 12, 24);
    bot.DrainForTest();  // one delta write; clears dirty when it commits
    if (delta_ops != nullptr) *delta_ops = env.ops_issued();
    // Not dirty after a clean delta commit, so StopService adds no I/O; on
    // a crashed env its retry fails without landing partial state.
    (void)bot.StopService();
  };

  // Clean run: measure the delta append's op count and both totals.
  RemoveServiceCheckpointFiles(path);
  double old_total = 0.0;
  int64_t total_ops = 0;
  {
    QueryBot5000 bot(config);
    run_session(bot, &old_total, &total_ops);
    ASSERT_GT(total_ops, 0);
    ASSERT_EQ(env.ops_issued(), total_ops) << "StopService re-wrote";
    RestoreReport report;
    auto restored = QueryBot5000::Restore(path, config, &env, &report);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(report.delta_applied);
    EXPECT_NEAR(restored->preprocessor().total_queries(),
                bot.preprocessor().total_queries(), 1e-9);
  }
  double new_total = 0.0;
  {
    QueryBot5000 reference(config);
    double ignored;
    run_session(reference, &ignored, nullptr);
    new_total = reference.preprocessor().total_queries();
  }
  ASSERT_NE(old_total, new_total);

  for (auto kind : {FaultInjectingEnv::FaultKind::kCrash,
                    FaultInjectingEnv::FaultKind::kTornWrite}) {
    for (int64_t op = 0; op < total_ops; ++op) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   " crash at op " + std::to_string(op));
      RemoveServiceCheckpointFiles(path);
      QueryBot5000 bot(config);
      QueryBot5000::ServiceOptions opts;
      opts.queue_capacity = 64;
      opts.background = false;
      opts.auto_maintenance = false;
      opts.checkpoint_path = path;
      opts.checkpoint_period_seconds = kSecondsPerHour;
      opts.compact_every = 1000;
      opts.env = &env;
      ASSERT_TRUE(bot.StartService(opts).ok());
      EnqueueSinusoidHours(bot, 0, 12);
      bot.DrainForTest();
      env.Reset();
      env.InjectFault(kind, op);
      EnqueueSinusoidHours(bot, 12, 24);
      bot.DrainForTest();
      EXPECT_TRUE(env.crashed());
      (void)bot.StopService();

      env.Reset();  // the restarted process sees a healthy filesystem
      RestoreReport report;
      auto restored = QueryBot5000::Restore(path, config, &env, &report);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      double got = restored->preprocessor().total_queries();
      bool is_old = std::fabs(got - old_total) < 1e-9;
      bool is_new = std::fabs(got - new_total) < 1e-9;
      EXPECT_TRUE(is_old || is_new) << "half state restored: " << got;
      EXPECT_FALSE(report.reclustered) << report.detail;
      EXPECT_FALSE(report.controller_defaults) << report.detail;
    }
  }
}

// ---------------------------------------------------------------------------
// Harness mechanics worth pinning: determinism of the N-th-probe contract.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, NthProbeFiresExactlyOnce) {
  auto& chaos = ChaosHarness::Global();
  chaos.Arm(ChaosHarness::OpKind::kAllocFail, "site.a", /*nth=*/2);
  EXPECT_FALSE(chaos.FailAlloc("site.a"));  // probe 0
  EXPECT_FALSE(chaos.FailAlloc("site.b"));  // other site: not counted
  EXPECT_FALSE(chaos.FailAlloc("site.a"));  // probe 1
  EXPECT_TRUE(chaos.FailAlloc("site.a"));   // probe 2: fires
  EXPECT_FALSE(chaos.FailAlloc("site.a"));  // one-shot
  EXPECT_EQ(chaos.fires_total(), 1);
  chaos.Reset();
  EXPECT_FALSE(chaos.FailAlloc("site.a"));  // disarmed after Reset
}

TEST_F(ChaosTest, ClockJumpProbeShiftsOnlyTheArmedProbe) {
  auto& chaos = ChaosHarness::Global();
  chaos.Arm(ChaosHarness::OpKind::kClockJump, "clock.site", /*nth=*/1,
            /*param=*/100.0);
  EXPECT_EQ(chaos.MaybeJumpClock("clock.site", 1000), 1000);  // probe 0
  EXPECT_EQ(chaos.MaybeJumpClock("clock.site", 1000), 1100);  // probe 1
  EXPECT_EQ(chaos.MaybeJumpClock("clock.site", 1000), 1000);  // one-shot
}

}  // namespace
}  // namespace qb5000
