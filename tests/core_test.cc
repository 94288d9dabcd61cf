#include <cmath>

#include <gtest/gtest.h>

#include "core/qb5000.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

QueryBot5000::Config FastConfig() {
  QueryBot5000::Config config;
  config.clusterer.feature.num_samples = 96;
  config.clusterer.feature.window_seconds = 3 * kSecondsPerDay;
  config.forecaster.interval_seconds = kSecondsPerHour;
  config.forecaster.input_window = 24;
  config.forecaster.training_window_seconds = 7 * kSecondsPerDay;
  config.forecaster.kind = ModelKind::kLr;  // fast model for tests
  config.horizons = {kSecondsPerHour, 12 * kSecondsPerHour};
  return config;
}

TEST(QueryBot5000Test, EndToEndForecastOnBusTracker) {
  QueryBot5000 bot(FastConfig());
  auto workload = MakeBusTracker({.seed = 41, .volume_scale = 0.5});

  // Feed 8 days of history (aggregated), then run maintenance.
  PreProcessor scratch;  // unused; exercise the bot path below
  for (const auto& stream : workload.streams()) {
    Rng rng(42);
    auto tmpl = Templatize(stream.make_sql(rng));
    ASSERT_TRUE(tmpl.ok());
    for (int h = 0; h < 8 * 24; ++h) {
      Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
      double rate = stream.rate_per_minute(ts) * 60.0;
      if (rate > 0) {
        ASSERT_TRUE(bot.IngestTemplatized(*tmpl, ts, rate).ok());
      }
    }
  }
  ASSERT_TRUE(bot.RunMaintenance(8 * kSecondsPerDay, /*force=*/true).ok());
  EXPECT_FALSE(bot.ModeledClusters().empty());
  EXPECT_TRUE(bot.forecaster().trained());

  auto forecast = bot.Forecast(8 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast->clusters.size(), forecast->queries_per_interval.size());
  double total = 0;
  for (double v : forecast->queries_per_interval) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);
}

TEST(QueryBot5000Test, ForecastTracksDiurnalShape) {
  QueryBot5000 bot(FastConfig());
  // Single synthetic diurnal stream, so the forecast is easy to check.
  auto tmpl = Templatize("SELECT x FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int h = 0; h < 14 * 24; ++h) {
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(
        bot.IngestTemplatized(*tmpl, ts, 600.0 * (1.5 + std::sin(2 * M_PI * t))).ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(14 * kSecondsPerDay, true).ok());
  // Predict one hour ahead from two day phases inside the recorded history
  // (data exists through day 14 hour 0): the phase heading into the daily
  // peak (hour 6) must forecast more traffic than the one heading into the
  // trough (hour 18).
  auto peak = bot.Forecast(13 * kSecondsPerDay + 5 * kSecondsPerHour,
                           kSecondsPerHour);
  auto trough = bot.Forecast(13 * kSecondsPerDay + 17 * kSecondsPerHour,
                             kSecondsPerHour);
  ASSERT_TRUE(peak.ok() && trough.ok());
  EXPECT_GT(peak->queries_per_interval[0],
            2.0 * trough->queries_per_interval[0]);
}

TEST(QueryBot5000Test, MaintenanceRespectsPeriodAndTrigger) {
  auto config = FastConfig();
  config.maintenance_period_seconds = kSecondsPerDay;
  QueryBot5000 bot(config);
  auto tmpl = Templatize("SELECT x FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int h = 0; h < 10 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                                      100.0 * (1.5 + std::sin(2 * M_PI * t)))
                    .ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(10 * kSecondsPerDay, true).ok());
  size_t clusters_before = bot.clusterer().clusters().size();
  // Within the period and without new templates: no-op.
  ASSERT_TRUE(bot.RunMaintenance(10 * kSecondsPerDay + kSecondsPerHour).ok());
  EXPECT_EQ(bot.clusterer().clusters().size(), clusters_before);
  EXPECT_EQ(bot.clusterer().last_update_time(), 10 * kSecondsPerDay);

  // A flood of brand-new templates fires the shift trigger early.
  for (int k = 0; k < 8; ++k) {
    auto fresh = Templatize("SELECT y" + std::to_string(k) +
                            " FROM shiny WHERE id = 1");
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(
        bot.IngestTemplatized(*fresh, 10 * kSecondsPerDay + 2 * kSecondsPerHour, 50)
            .ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(10 * kSecondsPerDay + 3 * kSecondsPerHour).ok());
  EXPECT_EQ(bot.clusterer().last_update_time(),
            10 * kSecondsPerDay + 3 * kSecondsPerHour);
}

TEST(QueryBot5000Test, ForecastBeforeTrainingFails) {
  QueryBot5000 bot(FastConfig());
  EXPECT_FALSE(bot.Forecast(0, kSecondsPerHour).ok());
}

TEST(QueryBot5000Test, IngestRawSqlPath) {
  QueryBot5000 bot(FastConfig());
  ASSERT_TRUE(bot.Ingest("SELECT a FROM t WHERE id = 3", 60).ok());
  ASSERT_TRUE(bot.Ingest("SELECT a FROM t WHERE id = 9", 120).ok());
  EXPECT_FALSE(bot.Ingest("SELECT 'broken", 180).ok());
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(), 2.0);
}

TEST(QueryBot5000Test, ModeledClustersRespectCoverageTarget) {
  auto config = FastConfig();
  config.coverage_target = 0.5;  // low target: one big cluster suffices
  config.max_modeled_clusters = 5;
  QueryBot5000 bot(config);
  // One dominant template and two tiny ones with different shapes.
  auto big = Templatize("SELECT a FROM big WHERE id = 1");
  auto small1 = Templatize("SELECT b FROM small1 WHERE id = 1");
  auto small2 = Templatize("SELECT c FROM small2 WHERE id = 1");
  ASSERT_TRUE(big.ok() && small1.ok() && small2.ok());
  for (int h = 0; h < 5 * 24; ++h) {
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(
        bot.IngestTemplatized(*big, ts, 1000.0 * (1.5 + std::sin(2 * M_PI * t))).ok());
    ASSERT_TRUE(
        bot.IngestTemplatized(*small1, ts, 5.0 * (1.5 + std::cos(2 * M_PI * t))).ok());
    ASSERT_TRUE(
        bot.IngestTemplatized(*small2, ts, 5.0 * (1.5 + std::sin(4 * M_PI * t + 1.0)))
            .ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(5 * kSecondsPerDay, true).ok());
  EXPECT_EQ(bot.ModeledClusters().size(), 1u);
}

}  // namespace
}  // namespace qb5000
