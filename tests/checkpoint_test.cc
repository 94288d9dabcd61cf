// Checkpoint/restore for the full pipeline (core/checkpoint.cc), proved
// under deterministic fault injection:
//   * crash at every I/O op during Checkpoint() -> Restore() always yields
//     either the previous complete checkpoint or the new one, never a half
//     state (the ISSUE's acceptance invariant);
//   * every single-bit flip is caught by a section CRC or the container
//     parse — a restore never silently returns wrong data;
//   * a corrupt clusterer/controller section degrades (re-cluster from the
//     restored histories / reset maintenance state) instead of failing cold;
//   * checkpoint-mid-trace then restore forecasts like the uninterrupted
//     run, across all four workload generators.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/qb5000.h"
#include "preprocessor/templatizer.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

std::string TestDir() {
  std::string dir = ::testing::TempDir() + "qb5000_checkpoint_test";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveAllVersions(Env* env, const std::string& path) {
  for (const std::string& p :
       {path, AtomicFileWriter::BackupPath(path),
        AtomicFileWriter::TempPath(path)}) {
    if (env->FileExists(p)) {
      ASSERT_TRUE(env->DeleteFile(p).ok());
    }
  }
}

/// Small, fast, but fully representative pipeline configuration.
QueryBot5000::Config FastConfig() {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  config.clusterer.feature.num_samples = 48;
  config.clusterer.feature.window_seconds = 2 * kSecondsPerDay;
  config.horizons = {kSecondsPerHour};
  return config;
}

QueryBot5000 MakeTrainedBot(const QueryBot5000::Config& config, Timestamp upto,
                            uint64_t seed) {
  QueryBot5000 bot(config);
  auto workload = MakeBusTracker({.seed = seed, .volume_scale = 0.2});
  EXPECT_TRUE(workload
                  .FeedAggregated(bot.mutable_preprocessor(), 0, upto,
                                  10 * kSecondsPerMinute, seed)
                  .ok());
  EXPECT_TRUE(bot.RunMaintenance(upto, /*force=*/true).ok());
  return bot;
}

void ExpectSameState(const QueryBot5000& restored, const QueryBot5000& original,
                     Timestamp series_to) {
  // Preprocessor: templates and histories identical.
  ASSERT_EQ(restored.preprocessor().num_templates(),
            original.preprocessor().num_templates());
  for (TemplateId id : original.preprocessor().TemplateIds()) {
    const auto* a = original.preprocessor().GetTemplate(id);
    const auto* b = restored.preprocessor().GetTemplate(id);
    ASSERT_NE(b, nullptr) << "template " << id << " lost";
    EXPECT_EQ(b->fingerprint, a->fingerprint);
    EXPECT_DOUBLE_EQ(b->history.Total(), a->history.Total());
    auto sa = a->history.Series(kSecondsPerHour, 0, series_to);
    auto sb = b->history.Series(kSecondsPerHour, 0, series_to);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(sb->size(), sa->size());
    for (size_t i = 0; i < sa->size(); ++i) {
      EXPECT_DOUBLE_EQ(sb->values()[i], sa->values()[i]);
    }
  }
  // Clusterer: identical clusters, centers, members, volumes, id counter.
  ASSERT_EQ(restored.clusterer().clusters().size(),
            original.clusterer().clusters().size());
  EXPECT_EQ(restored.clusterer().next_cluster_id(),
            original.clusterer().next_cluster_id());
  EXPECT_EQ(restored.clusterer().last_update_time(),
            original.clusterer().last_update_time());
  for (const auto& [id, cluster] : original.clusterer().clusters()) {
    auto it = restored.clusterer().clusters().find(id);
    ASSERT_NE(it, restored.clusterer().clusters().end()) << "cluster " << id;
    EXPECT_EQ(it->second.members, cluster.members);
    EXPECT_DOUBLE_EQ(it->second.volume, cluster.volume);
    ASSERT_EQ(it->second.center.size(), cluster.center.size());
    for (size_t i = 0; i < cluster.center.size(); ++i) {
      EXPECT_DOUBLE_EQ(it->second.center[i], cluster.center[i]);
    }
  }
  for (TemplateId id : original.preprocessor().TemplateIds()) {
    EXPECT_EQ(restored.clusterer().AssignmentOf(id),
              original.clusterer().AssignmentOf(id));
  }
  // Controller: maintenance clock and modeled set.
  EXPECT_EQ(restored.maintenance_has_run(), original.maintenance_has_run());
  if (original.maintenance_has_run()) {
    EXPECT_EQ(restored.last_maintenance(), original.last_maintenance());
  }
  EXPECT_EQ(restored.forecaster().modeled_clusters(),
            original.forecaster().modeled_clusters());
}

TEST(CheckpointTest, RoundTripRestoresFullPipeline) {
  const std::string path = TestDir() + "/roundtrip.qbc";
  RemoveAllVersions(Env::Default(), path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 original = MakeTrainedBot(config, 3 * kSecondsPerDay, 11);

  ASSERT_TRUE(original.Checkpoint(path).ok());
  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(report.used_backup);
  EXPECT_FALSE(report.reclustered);
  EXPECT_FALSE(report.controller_defaults);
  EXPECT_TRUE(report.forecaster_trained) << report.detail;

  ExpectSameState(*restored, original, 3 * kSecondsPerDay);

  // The retrained forecaster answers like the original (same model family,
  // same training data, same seed).
  auto fa = original.Forecast(3 * kSecondsPerDay, kSecondsPerHour);
  auto fb = restored->Forecast(3 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(fa.ok() && fb.ok());
  ASSERT_EQ(fb->clusters, fa->clusters);
  for (size_t i = 0; i < fa->queries_per_interval.size(); ++i) {
    EXPECT_NEAR(fb->queries_per_interval[i], fa->queries_per_interval[i],
                1e-6 * (1.0 + std::fabs(fa->queries_per_interval[i])));
  }

  // A restored pipeline keeps running: ingest + maintenance + forecast.
  ASSERT_TRUE(restored
                  ->Ingest("SELECT route_name FROM routes WHERE route_id = 5",
                           3 * kSecondsPerDay + 60)
                  .ok());
  ASSERT_TRUE(restored->RunMaintenance(4 * kSecondsPerDay, true).ok());
  EXPECT_TRUE(restored->Forecast(4 * kSecondsPerDay, kSecondsPerHour).ok());
}

TEST(CheckpointTest, MissingFileFailsCleanly) {
  auto restored = QueryBot5000::Restore(TestDir() + "/never_written.qbc",
                                        FastConfig());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

// The acceptance invariant: crash the writer at every I/O op index; after
// each crash the checkpoint must load as EITHER the old complete state OR
// the new complete state — never a half state, never a degraded salvage.
class CheckpointCrashSweep
    : public ::testing::TestWithParam<FaultInjectingEnv::FaultKind> {};

TEST_P(CheckpointCrashSweep, EveryCrashPointLeavesOldOrNew) {
  // Parameter-unique path: ctest runs the two sweep instances in parallel.
  const std::string path = TestDir() + "/crash_sweep_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           ".qbc";
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 bot_old = MakeTrainedBot(config, 2 * kSecondsPerDay, 21);
  QueryBot5000 bot_new = MakeTrainedBot(config, 3 * kSecondsPerDay, 21);
  const double old_total = bot_old.preprocessor().total_queries();
  const double new_total = bot_new.preprocessor().total_queries();
  ASSERT_NE(old_total, new_total);

  FaultInjectingEnv env(nullptr);

  // Count the ops of a clean overwrite (old checkpoint already present).
  RemoveAllVersions(Env::Default(), path);
  ASSERT_TRUE(bot_old.Checkpoint(path, &env).ok());
  env.Reset();
  ASSERT_TRUE(bot_new.Checkpoint(path, &env).ok());
  const int64_t total_ops = env.ops_issued();
  ASSERT_GT(total_ops, 10);

  for (int64_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("crash at op " + std::to_string(op));
    // Fixture: a committed old checkpoint, no backup, no temp leftovers.
    RemoveAllVersions(Env::Default(), path);
    env.Reset();
    ASSERT_TRUE(bot_old.Checkpoint(path, &env).ok());

    env.Reset();
    env.InjectFault(GetParam(), op);
    Status st = bot_new.Checkpoint(path, &env);
    EXPECT_FALSE(st.ok());  // every op < total_ops is on the commit path

    env.Reset();  // the "restarted process" sees a healthy filesystem
    RestoreReport report;
    auto restored = QueryBot5000::Restore(path, config, &env, &report);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    double got = restored->preprocessor().total_queries();
    bool is_old = std::fabs(got - old_total) < 1e-9;
    bool is_new = std::fabs(got - new_total) < 1e-9;
    EXPECT_TRUE(is_old || is_new) << "half state restored: " << got;
    // A crash can cost us the newest checkpoint, but never section
    // integrity: no salvage paths may be needed.
    EXPECT_FALSE(report.reclustered) << report.detail;
    EXPECT_FALSE(report.controller_defaults) << report.detail;
  }

  // Sanity: with no fault armed the new checkpoint lands.
  RemoveAllVersions(Env::Default(), path);
  env.Reset();
  ASSERT_TRUE(bot_old.Checkpoint(path, &env).ok());
  ASSERT_TRUE(bot_new.Checkpoint(path, &env).ok());
  auto restored = QueryBot5000::Restore(path, config, &env);
  ASSERT_TRUE(restored.ok());
  EXPECT_NEAR(restored->preprocessor().total_queries(), new_total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FaultKinds, CheckpointCrashSweep,
    ::testing::Values(FaultInjectingEnv::FaultKind::kCrash,
                      FaultInjectingEnv::FaultKind::kTornWrite));

// Flip one bit at many positions across the checkpoint file (no backup to
// fall to): a restore must either fail or return exactly the original
// state — wrong data must never load silently.
TEST(CheckpointTest, BitFlipCorruptionNeverLoadsSilently) {
  const std::string path = TestDir() + "/bitflip.qbc";
  Env* env = Env::Default();
  RemoveAllVersions(env, path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 original = MakeTrainedBot(config, 2 * kSecondsPerDay, 31);
  ASSERT_TRUE(original.Checkpoint(path).ok());
  const std::string clean = *ReadFileToString(env, path);
  const double clean_total = original.preprocessor().total_queries();

  // Sample flip positions across the whole file, plus the start/middle/end
  // of every section payload so the small clusterer/controller sections are
  // guaranteed coverage.
  std::set<size_t> positions;
  for (size_t pos = 0; pos < clean.size();
       pos += std::max<size_t>(1, clean.size() / 40)) {
    positions.insert(pos);
  }
  for (const char* name : {"preprocessor", "clusterer", "controller"}) {
    size_t header = clean.find(std::string("section ") + name);
    ASSERT_NE(header, std::string::npos) << name;
    // Parse the header's own length field: payload bytes are free-form and
    // could legitimately contain anything, including section-like text.
    std::istringstream fields(
        clean.substr(header, clean.find('\n', header) - header));
    std::string keyword, parsed_name;
    size_t length = 0;
    ASSERT_TRUE(static_cast<bool>(fields >> keyword >> parsed_name >> length));
    ASSERT_GT(length, 0u);
    size_t start = clean.find('\n', header) + 1;
    positions.insert(
        {header + 2, start, start + length / 2, start + length - 1});
  }

  size_t checked = 0, degraded = 0, rejected = 0;
  for (size_t pos : positions) {
    std::string corrupt = clean;
    corrupt[pos] ^= 0x04;
    ASSERT_TRUE(WriteStringToFile(env, corrupt, path).ok());
    RestoreReport report;
    auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
    ++checked;
    if (!restored.ok()) {
      ++rejected;
      continue;
    }
    if (report.reclustered || report.controller_defaults) ++degraded;
    // Whatever survived must be the true preprocessor state.
    EXPECT_NEAR(restored->preprocessor().total_queries(), clean_total, 1e-9)
        << "flip at byte " << pos << " loaded silently-wrong data";
    EXPECT_EQ(restored->preprocessor().num_templates(),
              original.preprocessor().num_templates());
  }
  // The sweep must have hit every section: some flips rejected outright
  // (preprocessor payload / headers), some degraded (clusterer/controller).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(degraded, 0u);
  ASSERT_GT(checked, 40u);
}

TEST(CheckpointTest, CorruptClustererSectionDegradesToRecluster) {
  const std::string path = TestDir() + "/degrade.qbc";
  Env* env = Env::Default();
  RemoveAllVersions(env, path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 original = MakeTrainedBot(config, 3 * kSecondsPerDay, 41);
  ASSERT_TRUE(original.Checkpoint(path).ok());

  // Flip a byte inside the clusterer payload (just past its header line).
  std::string data = *ReadFileToString(env, path);
  size_t header = data.find("section clusterer");
  ASSERT_NE(header, std::string::npos);
  size_t payload = data.find('\n', header) + 1;
  data[payload + 4] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(env, data, path).ok());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(report.reclustered) << report.detail;
  EXPECT_FALSE(report.controller_defaults);
  // The preprocessor came through unharmed...
  EXPECT_NEAR(restored->preprocessor().total_queries(),
              original.preprocessor().total_queries(), 1e-9);
  // ...and the clusterer was rebuilt from the histories: templates are
  // assigned again and the pipeline can forecast after retraining.
  EXPECT_FALSE(restored->clusterer().clusters().empty());
  for (TemplateId id : restored->preprocessor().TemplateIds()) {
    EXPECT_NE(restored->clusterer().AssignmentOf(id), -1);
  }
  EXPECT_FALSE(restored->ModeledClusters().empty());
}

TEST(CheckpointTest, BackupLadderRecoversPreviousCheckpoint) {
  const std::string path = TestDir() + "/ladder.qbc";
  Env* env = Env::Default();
  RemoveAllVersions(env, path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 bot_old = MakeTrainedBot(config, 2 * kSecondsPerDay, 51);
  QueryBot5000 bot_new = MakeTrainedBot(config, 3 * kSecondsPerDay, 51);
  ASSERT_TRUE(bot_old.Checkpoint(path).ok());
  ASSERT_TRUE(bot_new.Checkpoint(path).ok());  // rotates old to .bak

  // Trash the *preprocessor* payload of the primary: unrecoverable there.
  std::string data = *ReadFileToString(env, path);
  size_t header = data.find("section preprocessor");
  ASSERT_NE(header, std::string::npos);
  size_t payload = data.find('\n', header) + 1;
  data[payload + 8] ^= 0x08;
  ASSERT_TRUE(WriteStringToFile(env, data, path).ok());

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(report.used_backup);
  EXPECT_NEAR(restored->preprocessor().total_queries(),
              bot_old.preprocessor().total_queries(), 1e-9);

  // With the backup gone too, the same corruption is a clean failure.
  ASSERT_TRUE(env->DeleteFile(AtomicFileWriter::BackupPath(path)).ok());
  auto failed = QueryBot5000::Restore(path, config);
  EXPECT_FALSE(failed.ok());
}

// Satellite: checkpoint mid-trace on every workload generator, restore into
// a fresh pipeline, continue both, and the forecasts must agree.
class CheckpointWorkloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointWorkloadSweep, MidTraceRestoreForecastsLikeUninterrupted) {
  WorkloadOptions options{.seed = 5, .volume_scale = 0.15};
  SyntheticWorkload workload = [&] {
    switch (GetParam()) {
      case 0:
        return MakeAdmissions(options);
      case 1:
        return MakeBusTracker(options);
      case 2:
        return MakeMooc(options);
      default:
        return MakeNoisyComposite(options);
    }
  }();
  const std::string path = TestDir() + "/midtrace_" +
                           std::to_string(GetParam()) + ".qbc";
  RemoveAllVersions(Env::Default(), path);

  QueryBot5000::Config config = FastConfig();
  const Timestamp kSplit = 3 * kSecondsPerDay;
  const Timestamp kEnd = 5 * kSecondsPerDay;
  const int64_t kStep = 10 * kSecondsPerMinute;

  QueryBot5000 uninterrupted(config);
  ASSERT_TRUE(workload
                  .FeedAggregated(uninterrupted.mutable_preprocessor(), 0,
                                  kSplit, kStep, 7)
                  .ok());
  ASSERT_TRUE(uninterrupted.RunMaintenance(kSplit, true).ok());
  ASSERT_TRUE(uninterrupted.Checkpoint(path).ok());

  // "Kill" the process; come back up from the checkpoint.
  RestoreReport report;
  auto resumed = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(report.used_backup);
  EXPECT_FALSE(report.reclustered);

  // Both replicas see the identical remainder of the trace.
  for (QueryBot5000* bot : {&uninterrupted, &*resumed}) {
    ASSERT_TRUE(workload
                    .FeedAggregated(bot->mutable_preprocessor(), kSplit, kEnd,
                                    kStep, 8)
                    .ok());
    ASSERT_TRUE(bot->RunMaintenance(kEnd, true).ok());
  }

  auto fa = uninterrupted.Forecast(kEnd, kSecondsPerHour);
  auto fb = resumed->Forecast(kEnd, kSecondsPerHour);
  ASSERT_TRUE(fa.ok()) << fa.status().ToString();
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  ASSERT_EQ(fb->clusters, fa->clusters);
  ASSERT_EQ(fb->queries_per_interval.size(), fa->queries_per_interval.size());
  for (size_t i = 0; i < fa->queries_per_interval.size(); ++i) {
    EXPECT_NEAR(fb->queries_per_interval[i], fa->queries_per_interval[i],
                1e-6 * (1.0 + std::fabs(fa->queries_per_interval[i])))
        << "cluster " << fa->clusters[i];
  }
}

std::string WorkloadName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"admissions", "bustracker", "mooc",
                                       "noisy"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, CheckpointWorkloadSweep,
                         ::testing::Values(0, 1, 2, 3), WorkloadName);

TEST(CheckpointTest, CheckpointConcurrentWithForecasting) {
  // Checkpoint() and Forecast() both take the controller's state lock
  // shared, so they may genuinely overlap. Drive one checkpointing lane
  // against three forecasting lanes on the pool (raw std::thread is banned
  // by qb_lint; ParallelFor tasks at concurrency >= 4 overlap the same
  // way) and require every operation to succeed, forecasts to stay
  // bit-identical to the quiescent answer, and the final checkpoint to
  // restore cleanly. The TSan CI job proves the absence of data races on
  // this same path.
  const std::string path = TestDir() + "/concurrent.qbc";
  RemoveAllVersions(Env::Default(), path);
  size_t saved_threads = GetThreadCount();
  SetThreadCount(4);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 bot = MakeTrainedBot(config, 3 * kSecondsPerDay, 11);

  auto quiescent = bot.Forecast(3 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(quiescent.ok());

  constexpr size_t kLanes = 4;
  constexpr size_t kOpsPerLane = 8;
  std::vector<Status> lane_status(kLanes, Status::Ok());
  ParallelFor(0, kLanes, 1, [&](size_t lo, size_t hi) {
    for (size_t lane = lo; lane < hi; ++lane) {
      for (size_t op = 0; op < kOpsPerLane && lane_status[lane].ok(); ++op) {
        if (lane == 0) {
          lane_status[lane] = bot.Checkpoint(path);
        } else {
          auto f = bot.Forecast(3 * kSecondsPerDay, kSecondsPerHour);
          if (!f.ok()) {
            lane_status[lane] = f.status();
            continue;
          }
          if (f->queries_per_interval != quiescent->queries_per_interval) {
            lane_status[lane] =
                Status::Internal("forecast changed under concurrency");
          }
          (void)bot.ModeledClusters();
        }
      }
    }
  });
  for (size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_TRUE(lane_status[lane].ok())
        << "lane " << lane << ": " << lane_status[lane].ToString();
  }

  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameState(*restored, bot, 3 * kSecondsPerDay);
  SetThreadCount(saved_threads);
}

// Eviction drops a template but not its arrivals from the running totals;
// a restore must bring back those totals, not the sum of the survivors.
TEST(CheckpointTest, RestoredTotalsKeepTemplatesEvictedBeforeTheBase) {
  const std::string path = TestDir() + "/evicted_totals.qbc";
  RemoveAllVersions(Env::Default(), path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 bot(config);
  auto idle = Templatize("SELECT a FROM t WHERE id = 1");
  auto busy = Templatize("UPDATE u SET b = 2 WHERE id = 3");
  ASSERT_TRUE(idle.ok() && busy.ok());
  ASSERT_TRUE(bot.IngestTemplatized(*idle, 0, 100.0).ok());
  const Timestamp end = 40 * kSecondsPerDay;
  for (Timestamp t = 0; t < end; t += kSecondsPerHour) {
    ASSERT_TRUE(bot.IngestTemplatized(*busy, t, 0.1).ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(end, /*force=*/true).ok());
  ASSERT_EQ(bot.preprocessor().num_templates(), 1u) << "idle not evicted";

  ASSERT_TRUE(bot.Checkpoint(path).ok());
  auto restored = QueryBot5000::Restore(path, config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->preprocessor().total_queries(),
            bot.preprocessor().total_queries());
  for (auto type :
       {sql::StatementType::kSelect, sql::StatementType::kInsert,
        sql::StatementType::kUpdate, sql::StatementType::kDelete}) {
    EXPECT_EQ(restored->preprocessor().QueriesOfType(type),
              bot.preprocessor().QueriesOfType(type));
  }
}

// Template ids are never reused. A template created after a restore gets the
// id the uninterrupted process gives it, even when the newest template was
// evicted before the write, so the largest restored id is one too low.
TEST(CheckpointTest, RestoredNextTemplateIdSkipsEvictedIds) {
  const std::string path = TestDir() + "/next_id.qbc";
  RemoveAllVersions(Env::Default(), path);
  QueryBot5000::Config config = FastConfig();
  QueryBot5000 bot(config);
  auto busy = Templatize("UPDATE u SET b = 2 WHERE id = 3");
  auto idle = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(busy.ok() && idle.ok());
  ASSERT_TRUE(bot.IngestTemplatized(*busy, 0, 1.0).ok());
  ASSERT_TRUE(bot.IngestTemplatized(*idle, 0, 1.0).ok());
  const Timestamp end = 40 * kSecondsPerDay;
  for (Timestamp t = kSecondsPerHour; t < end; t += kSecondsPerHour) {
    ASSERT_TRUE(bot.IngestTemplatized(*busy, t, 1.0).ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(end, /*force=*/true).ok());
  ASSERT_EQ(bot.preprocessor().TemplateIds(), std::vector<TemplateId>{1})
      << "the newer template was not evicted";

  ASSERT_TRUE(bot.Checkpoint(path).ok());
  auto restored = QueryBot5000::Restore(path, config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const char* sql = "DELETE FROM v WHERE id = 4";
  ASSERT_TRUE(bot.Ingest(sql, end).ok());
  ASSERT_TRUE(restored->Ingest(sql, end).ok());
  EXPECT_EQ(bot.preprocessor().TemplateIds(),
            (std::vector<TemplateId>{1, 3}));
  EXPECT_EQ(restored->preprocessor().TemplateIds(),
            bot.preprocessor().TemplateIds());
}

// The raw-SQL template cache (DESIGN.md §11) is rebuildable state: it is
// never serialized, restores cold regardless of the configured capacity,
// and rebuilds transparently — re-ingested SQL maps to the restored
// template ids, so RestoreReport semantics are unchanged by the cache.
TEST(CheckpointTest, TemplateCacheRestoresColdAndRebuilds) {
  const std::string path = TestDir() + "/cache_cold.qbc";
  RemoveAllVersions(Env::Default(), path);
  QueryBot5000::Config config = FastConfig();
  config.preprocessor.template_cache_capacity = 128;
  config.preprocessor.expected_templates = 64;
  QueryBot5000 original = MakeTrainedBot(config, 3 * kSecondsPerDay, 11);

  // Populate the cache through the raw-SQL path and remember the mapping.
  const std::string sql = "SELECT route_name FROM routes WHERE route_id = 5";
  auto id = original.mutable_preprocessor().Ingest(sql, 3 * kSecondsPerDay);
  ASSERT_TRUE(id.ok());
  ASSERT_GT(original.preprocessor().cache_size(), 0u);

  ASSERT_TRUE(original.Checkpoint(path).ok());
  RestoreReport report;
  auto restored = QueryBot5000::Restore(path, config, nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // A clean restore stays clean: the cache adds no degradation modes.
  EXPECT_FALSE(report.used_backup);
  EXPECT_FALSE(report.reclustered);
  EXPECT_FALSE(report.controller_defaults);
  EXPECT_TRUE(report.forecaster_trained) << report.detail;

  // Cold cache, intact templates.
  EXPECT_EQ(restored->preprocessor().cache_size(), 0u);
  EXPECT_EQ(restored->preprocessor().num_templates(),
            original.preprocessor().num_templates());

  // The first re-ingest misses and refills the cache with the restored id;
  // a literal-rewritten repeat then hits and maps to the same template.
  auto remiss = restored->mutable_preprocessor().Ingest(
      sql, 3 * kSecondsPerDay + kSecondsPerMinute);
  ASSERT_TRUE(remiss.ok());
  EXPECT_EQ(remiss.value(), id.value());
  EXPECT_EQ(restored->preprocessor().cache_size(), 1u);
  auto rehit = restored->mutable_preprocessor().Ingest(
      "SELECT route_name FROM routes WHERE route_id = 99",
      3 * kSecondsPerDay + 2 * kSecondsPerMinute);
  ASSERT_TRUE(rehit.ok());
  EXPECT_EQ(rehit.value(), id.value());
  EXPECT_EQ(restored->preprocessor().cache_size(), 1u);
}

// --- pinned bytes -----------------------------------------------------------

/// The `section <name> <length> <crc32>` lines of a checkpoint file, in
/// write order; each payload is skipped by its declared length.
std::vector<std::string> SectionHeaders(const std::string& data) {
  std::vector<std::string> headers;
  size_t pos = data.find('\n') + 1;  // past `qb5000-checkpoint 2`
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) break;
    std::string line = data.substr(pos, nl - pos);
    if (line == "end") break;
    headers.push_back(line);
    std::istringstream in(line);
    std::string keyword, name;
    size_t length = 0;
    if (!(in >> keyword >> name >> length)) break;
    pos = nl + 1 + length + 1;
  }
  return headers;
}

// Every byte of the preprocessor, clusterer and controller sections is
// pinned by its length and CRC after the golden scenario
// (golden_trace_test.cc: 4 days at minute resolution, seed 5, LR, forced
// maintenance) on all four workloads. The constants are what the earlier
// ostream encoders wrote, the preprocessor sections with snapshot v4's
// version digit and `next_id` line, so an encoder change that moves one
// byte, or one digit of a double, fails here. The metrics section is not pinned: any new
// counter anywhere in the pipeline would move it.
TEST(CheckpointTest, SectionBytesPinnedOnGoldenScenario) {
  struct Case {
    const char* name;
    SyntheticWorkload workload;
    std::vector<std::string> want;
  };
  const std::vector<Case> cases = {
      {"bustracker", MakeBusTracker(),
       {"section preprocessor 499551 258121470",
        "section clusterer 6451 2261480302",
        "section controller 56 948109609"}},
      {"admissions", MakeAdmissions(),
       {"section preprocessor 112364 1504317961",
        "section clusterer 2702 3799597932",
        "section controller 52 1176189220"}},
      {"mooc", MakeMooc(),
       {"section preprocessor 250135 1360887414",
        "section clusterer 2479 3069400640",
        "section controller 52 1176189220"}},
      {"noisy_composite", MakeNoisyComposite(),
       {"section preprocessor 202238 3939202502",
        "section clusterer 5543 3868923439",
        "section controller 52 2547614317"}},
  };
  struct ThreadCountGuard {
    size_t saved = GetThreadCount();
    ~ThreadCountGuard() { SetThreadCount(saved); }
  } guard;
  SetThreadCount(2);  // as the golden suite pins it
  bool any_fractional = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    QueryBot5000::Config config;
    config.forecaster.kind = ModelKind::kLr;
    config.forecaster.input_window = 12;
    config.horizons = {kSecondsPerHour, kSecondsPerDay};
    QueryBot5000 bot(config);
    const Timestamp end = 4 * kSecondsPerDay;
    ASSERT_TRUE(c.workload
                    .FeedAggregated(bot.mutable_preprocessor(), 0, end,
                                    kSecondsPerMinute, /*seed=*/5)
                    .ok());
    ASSERT_TRUE(bot.RunMaintenance(end, /*force=*/true).ok());

    // A fractional minute bucket is stored in a wide run, which prints its
    // doubles at 17 digits. Nothing is compacted (the 7-day default horizon
    // exceeds the feed), so the minute series is the stored rung itself.
    for (TemplateId id : bot.preprocessor().TemplateIds()) {
      auto series = bot.preprocessor().GetTemplate(id)->history.Series(
          kSecondsPerMinute, 0, end);
      ASSERT_TRUE(series.ok());
      for (double v : series->values()) {
        if (v != std::floor(v)) any_fractional = true;
      }
    }

    const std::string path = TestDir() + "/pinned_" + c.name + ".qbc";
    RemoveAllVersions(Env::Default(), path);
    ASSERT_TRUE(bot.Checkpoint(path).ok());
    auto data = ReadFileToString(Env::Default(), path);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(data->rfind("qb5000-checkpoint 2\n", 0), 0u);
    std::vector<std::string> headers = SectionHeaders(*data);
    ASSERT_EQ(headers.size(), 4u);
    for (size_t i = 0; i < c.want.size(); ++i) {
      EXPECT_EQ(headers[i], c.want[i]);
    }
    EXPECT_EQ(headers[3].rfind("section metrics ", 0), 0u) << headers[3];
  }
  EXPECT_TRUE(any_fractional) << "no state holds a wide run";
}

}  // namespace
}  // namespace qb5000
