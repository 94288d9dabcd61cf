// Cross-module integration tests: full pipeline scenarios that exercise
// the Pre-Processor, Clusterer, Forecaster, mini-DBMS, and advisor
// together the way the benches and a real deployment do.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/checkpoint.h"
#include "core/qb5000.h"
#include "dbms/loader.h"
#include "forecaster/evaluation.h"
#include "tuning/index_advisor.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

QueryBot5000::Config PipelineConfig() {
  QueryBot5000::Config config;
  config.clusterer.feature.num_samples = 128;
  config.clusterer.feature.window_seconds = 5 * kSecondsPerDay;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 7 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour, 12 * kSecondsPerHour};
  return config;
}

TEST(PipelineIntegration, MoocAdaptsAcrossFeatureRelease) {
  // Run the full pipeline across MOOC's day-45 release: the bot must pick
  // up the new templates, re-cluster, and keep forecasting.
  auto workload = MakeMooc({.seed = 3, .volume_scale = 0.5});
  QueryBot5000 bot(PipelineConfig());

  // Days 30..44: pre-release.
  ASSERT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(),
                                  30 * kSecondsPerDay, 44 * kSecondsPerDay,
                                  10 * kSecondsPerMinute, 5)
                  .ok());
  ASSERT_TRUE(bot.RunMaintenance(44 * kSecondsPerDay, true).ok());
  size_t templates_before = bot.preprocessor().num_templates();
  auto pre_release = bot.Forecast(44 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(pre_release.ok());

  // Days 44..60: the release lands and new features ramp up.
  ASSERT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(),
                                  44 * kSecondsPerDay, 60 * kSecondsPerDay,
                                  10 * kSecondsPerMinute, 6)
                  .ok());
  ASSERT_TRUE(bot.RunMaintenance(60 * kSecondsPerDay, true).ok());
  EXPECT_GT(bot.preprocessor().num_templates(), templates_before + 3);
  auto post_release = bot.Forecast(60 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(post_release.ok());
  // The post-release modeled clusters must now carry templates that did
  // not exist before the release (quiz/forum traffic) — whether as new
  // clusters or absorbed into existing ones (they share the student
  // diurnal shape, so absorption is the expected outcome).
  bool new_template_modeled = false;
  for (ClusterId id : post_release->clusters) {
    const auto& cluster = bot.clusterer().clusters().at(id);
    for (TemplateId member : cluster.members) {
      const auto* info = bot.preprocessor().GetTemplate(member);
      if (info != nullptr && info->first_seen >= 44 * kSecondsPerDay) {
        new_template_modeled = true;
      }
    }
  }
  EXPECT_TRUE(new_template_modeled);
  (void)pre_release;
}

TEST(PipelineIntegration, ForecastAccuracyDegradesGracefullyWithHorizon) {
  // End-to-end HYBRID evaluation through the Forecaster facade on
  // BusTracker: 1-hour predictions must beat 12-hour ones on log MSE.
  auto workload = MakeBusTracker({.seed = 4, .volume_scale = 0.5});
  PreProcessor pre;
  ASSERT_TRUE(workload
                  .FeedAggregated(pre, 0, 21 * kSecondsPerDay,
                                  10 * kSecondsPerMinute, 7)
                  .ok());
  OnlineClusterer::Options copts;
  copts.feature.num_samples = 128;
  copts.feature.window_seconds = 7 * kSecondsPerDay;
  OnlineClusterer clusterer(copts);
  clusterer.Update(pre, 21 * kSecondsPerDay);
  auto top = clusterer.TopClustersByVolume(3);
  ASSERT_FALSE(top.empty());
  std::vector<TimeSeries> series;
  for (ClusterId id : top) {
    auto center =
        clusterer.CenterSeries(pre, id, kSecondsPerHour, 0, 21 * kSecondsPerDay);
    ASSERT_TRUE(center.ok());
    series.push_back(std::move(*center));
  }
  ModelOptions opts;
  auto short_h = EvaluateModel(ModelKind::kLr, series, 24, 1, 0.7, opts);
  auto long_h = EvaluateModel(ModelKind::kLr, series, 24, 12, 0.7, opts);
  ASSERT_TRUE(short_h.ok() && long_h.ok());
  EXPECT_LT(short_h->log_mse, long_h->log_mse);
}

TEST(PipelineIntegration, ForecastDrivenAdvisorBeatsNoIndexes) {
  // The example_index_advisor flow as a test: forecast, advise, build,
  // verify the replay gets faster end-to-end.
  auto workload = MakeBusTracker({.seed = 5, .volume_scale = 0.4});
  dbms::Database db;
  Rng rng(6);
  ASSERT_TRUE(dbms::LoadWorkloadSchema(db, workload, rng, 0.1).ok());

  QueryBot5000 bot(PipelineConfig());
  Timestamp now = 7 * kSecondsPerDay + 8 * kSecondsPerHour;
  ASSERT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(), 0, now,
                                  10 * kSecondsPerMinute, 8)
                  .ok());
  ASSERT_TRUE(bot.RunMaintenance(now, true).ok());
  auto forecast = bot.Forecast(now, kSecondsPerHour);
  ASSERT_TRUE(forecast.ok());

  std::vector<AdvisorQuery> predicted;
  for (size_t i = 0; i < forecast->clusters.size(); ++i) {
    const auto& cluster = bot.clusterer().clusters().at(forecast->clusters[i]);
    for (TemplateId member : cluster.members) {
      const auto* info = bot.preprocessor().GetTemplate(member);
      ASSERT_NE(info, nullptr);
      auto query = IndexAdvisor::MakeQuery(
          info->text, forecast->queries_per_interval[i] /
                          static_cast<double>(cluster.members.size()));
      if (query.ok()) predicted.push_back(std::move(*query));
    }
  }
  ASSERT_FALSE(predicted.empty());
  auto recommendation = IndexAdvisor::Recommend(db, predicted, 4);
  ASSERT_TRUE(recommendation.ok());
  ASSERT_FALSE(recommendation->empty());

  auto events = workload.Materialize(now, now + kSecondsPerHour,
                                     10 * kSecondsPerMinute, 9, 0.01);
  ASSERT_FALSE(events.empty());
  double before = 0, after = 0;
  for (const auto& event : events) {
    auto result = db.Execute(event.sql);
    if (result.ok()) before += result->latency_us;
  }
  for (const auto& index : *recommendation) {
    size_t dot = index.find('.');
    ASSERT_TRUE(
        db.CreateIndex(index.substr(0, dot), index.substr(dot + 1)).ok());
  }
  for (const auto& event : events) {
    auto result = db.Execute(event.sql);
    if (result.ok()) after += result->latency_us;
  }
  EXPECT_LT(after, before);
}

TEST(PipelineIntegration, CompactionBoundsStorageDuringLongRun) {
  // A month of ingestion with daily compaction: minute-level storage must
  // stay bounded by the compaction horizon instead of growing with the
  // trace, while hourly views stay exact.
  PreProcessor::Options popts;
  popts.compaction_horizon_seconds = 3 * kSecondsPerDay;
  PreProcessor with_compaction(popts);
  PreProcessor without_compaction;
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int day = 0; day < 30; ++day) {
    for (int m = 0; m < 24 * 60; m += 5) {
      Timestamp ts = static_cast<Timestamp>(day) * kSecondsPerDay + m * 60;
      with_compaction.IngestTemplatized(*tmpl, ts, 3.0);
      without_compaction.IngestTemplatized(*tmpl, ts, 3.0);
    }
    with_compaction.CompactBefore((day + 1) * kSecondsPerDay);
  }
  EXPECT_LT(with_compaction.HistoryStorageBytes(),
            without_compaction.HistoryStorageBytes() / 3);
  const auto* a = with_compaction.GetTemplate(with_compaction.TemplateIds()[0]);
  const auto* b =
      without_compaction.GetTemplate(without_compaction.TemplateIds()[0]);
  auto sa = a->history.Series(kSecondsPerHour, 0, 30 * kSecondsPerDay);
  auto sb = b->history.Series(kSecondsPerHour, 0, 30 * kSecondsPerDay);
  ASSERT_TRUE(sa.ok() && sb.ok());
  for (size_t i = 0; i < sa->size(); ++i) {
    EXPECT_NEAR(sa->values()[i], sb->values()[i], 1e-6);
  }
}

TEST(PipelineIntegration, EvictionKeepsClustererConsistent) {
  // Templates that stop arriving get evicted; the next clustering pass
  // must drop them without disturbing the surviving partition.
  QueryBot5000::Config config = PipelineConfig();
  config.template_eviction_seconds = 2 * kSecondsPerDay;
  QueryBot5000 bot(config);
  auto persistent = Templatize("SELECT a FROM t WHERE id = 1");
  auto ephemeral = Templatize("SELECT b FROM gone WHERE id = 1");
  ASSERT_TRUE(persistent.ok() && ephemeral.ok());
  for (int h = 0; h < 10 * 24; ++h) {
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(bot.IngestTemplatized(*persistent, ts,
                                      100 * (1.5 + std::sin(2 * M_PI * t)))
                    .ok());
    if (h < 3 * 24) {
      ASSERT_TRUE(bot.IngestTemplatized(*ephemeral, ts,
                                        80 * (1.5 + std::cos(2 * M_PI * t)))
                      .ok());
    }
  }
  ASSERT_TRUE(bot.RunMaintenance(10 * kSecondsPerDay, true).ok());
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);  // ephemeral evicted
  for (const auto& [id, cluster] : bot.clusterer().clusters()) {
    (void)id;
    for (TemplateId member : cluster.members) {
      EXPECT_NE(bot.preprocessor().GetTemplate(member), nullptr);
    }
  }
  EXPECT_TRUE(bot.Forecast(10 * kSecondsPerDay, kSecondsPerHour).ok());
}

TEST(PipelineIntegration, NoisyCompositeShiftDetection) {
  // The new-template trigger must fire when the composite switches
  // benchmarks, and the pipeline must keep forecasting afterwards.
  auto workload = MakeNoisyComposite({.seed = 8});
  QueryBot5000::Config config = PipelineConfig();
  config.clusterer.new_template_trigger_ratio = 0.15;
  config.forecaster.interval_seconds = 30 * kSecondsPerMinute;
  config.forecaster.input_window = 6;
  config.forecaster.training_window_seconds = 8 * kSecondsPerHour;
  config.horizons = {kSecondsPerHour};
  config.maintenance_period_seconds = 4 * kSecondsPerHour;
  QueryBot5000 bot(config);
  // Segment 0 (wikipedia).
  ASSERT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(), 0,
                                  10 * kSecondsPerHour, 10 * kSecondsPerMinute, 9)
                  .ok());
  ASSERT_TRUE(bot.RunMaintenance(10 * kSecondsPerHour, true).ok());
  EXPECT_FALSE(bot.clusterer().ShouldTrigger(bot.preprocessor()));
  // One hour into segment 1 (tatp): brand-new templates appear.
  ASSERT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(),
                                  10 * kSecondsPerHour, 11 * kSecondsPerHour,
                                  10 * kSecondsPerMinute, 9)
                  .ok());
  EXPECT_TRUE(bot.clusterer().ShouldTrigger(bot.preprocessor()));
  ASSERT_TRUE(bot.RunMaintenance(11 * kSecondsPerHour).ok());  // trigger path
  EXPECT_EQ(bot.clusterer().last_update_time(), 11 * kSecondsPerHour);
  EXPECT_TRUE(bot.Forecast(11 * kSecondsPerHour, kSecondsPerHour).ok());
}

TEST(PipelineIntegration, ServiceKillRestoreForecastEquivalence) {
  // The always-on deployment loop end-to-end (DESIGN.md §14): a
  // checkpointing service ingests a real trace across several periodic
  // checkpoints, the process dies, and the restarted process — restored
  // from the last one — must cluster, train, and forecast *identically* to
  // a reference process that ingested the whole trace synchronously and
  // never died.
  const std::string path =
      ::testing::TempDir() + "qb5000_integration_service.qbc";
  Env* env = Env::Default();
  for (const char* suffix : {"", ".bak", ".tmp"}) {
    (void)env->DeleteFile(path + suffix);
  }

  QueryBot5000::Config config = PipelineConfig();
  config.forecaster.training_window_seconds = 3 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  constexpr Timestamp kEnd = 4 * kSecondsPerDay;
  auto workload = MakeBusTracker({.seed = 11, .volume_scale = 0.3});
  auto trace = workload.Materialize(0, kEnd, 10 * kSecondsPerMinute,
                                    /*seed=*/11, /*volume_scale=*/1.0,
                                    /*max_per_step=*/2);
  ASSERT_GT(trace.size(), 128u);

  auto feed = [&trace](QueryBot5000& bot, size_t from, size_t to,
                       bool service) {
    constexpr size_t kBatch = 64;
    for (size_t i = from; i < to; i += kBatch) {
      std::vector<QueryArrival> batch;
      for (size_t j = i; j < std::min(i + kBatch, to); ++j) {
        batch.push_back({trace[j].sql, trace[j].timestamp, 1.0});
      }
      if (service) {
        ASSERT_TRUE(bot.EnqueueBatch(batch).ok());
      } else {
        ASSERT_TRUE(bot.IngestBatch(batch).ok());
      }
    }
  };

  QueryBot5000 reference(config);
  feed(reference, 0, trace.size(), /*service=*/false);
  ASSERT_TRUE(reference.RunMaintenance(kEnd, /*force=*/true).ok());
  auto want = reference.Forecast(kEnd, kSecondsPerHour);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  {  // First process: a checkpointing service session.
    QueryBot5000 bot(config);
    QueryBot5000::ServiceOptions opts;
    opts.queue_capacity = 256;
    opts.background = false;
    opts.auto_maintenance = false;
    opts.checkpoint_path = path;
    opts.checkpoint_period_seconds = 6 * kSecondsPerHour;
    ASSERT_TRUE(bot.StartService(opts).ok());
    feed(bot, 0, trace.size() / 2, /*service=*/true);
    bot.DrainForTest();  // the first periodic write
    ASSERT_TRUE(env->FileExists(path));
    feed(bot, trace.size() / 2, trace.size(), /*service=*/true);
    bot.DrainForTest();  // later periodic writes replace it
    ASSERT_TRUE(bot.StopService().ok());  // final write, then "the kill"
  }

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(report.used_backup) << report.detail;
  EXPECT_DOUBLE_EQ(restored->preprocessor().total_queries(),
                   reference.preprocessor().total_queries());

  // The restarted process picks up where the dead one left off: the same
  // maintenance pass must produce the same clusters and the same forecast.
  ASSERT_TRUE(restored->RunMaintenance(kEnd, /*force=*/true).ok());
  auto got = restored->Forecast(kEnd, kSecondsPerHour);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->clusters, want->clusters);
  ASSERT_EQ(got->queries_per_interval.size(),
            want->queries_per_interval.size());
  for (size_t i = 0; i < got->queries_per_interval.size(); ++i) {
    EXPECT_DOUBLE_EQ(got->queries_per_interval[i],
                     want->queries_per_interval[i])
        << "interval " << i;
  }
}

}  // namespace
}  // namespace qb5000
