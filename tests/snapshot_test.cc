#include <sstream>

#include <gtest/gtest.h>

#include "preprocessor/snapshot.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

PreProcessor MakePopulated() {
  PreProcessor pre;
  auto workload = MakeBusTracker({.seed = 2, .volume_scale = 0.3});
  EXPECT_TRUE(workload
                  .FeedAggregated(pre, 0, 3 * kSecondsPerDay,
                                  10 * kSecondsPerMinute, 4)
                  .ok());
  // Add some raw ingests so parameter samples exist.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pre.Ingest("SELECT stop_name FROM stops WHERE stop_id = " +
                               std::to_string(i),
                           2 * kSecondsPerDay + i * 60)
                    .ok());
  }
  // Exercise compaction so both recent and archive series are non-empty.
  pre.CompactBefore(10 * kSecondsPerDay);
  return pre;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  PreProcessor original = MakePopulated();
  std::string saved;
  ASSERT_TRUE(Snapshot::Save(original, &saved).ok());

  std::istringstream buffer(saved);
  auto restored = Snapshot::Load(buffer, PreProcessor::Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->num_templates(), original.num_templates());
  EXPECT_EQ(restored->total_queries(), original.total_queries());
  for (auto type :
       {sql::StatementType::kSelect, sql::StatementType::kInsert,
        sql::StatementType::kUpdate, sql::StatementType::kDelete}) {
    EXPECT_EQ(restored->QueriesOfType(type), original.QueriesOfType(type));
  }
  for (TemplateId id : original.TemplateIds()) {
    const auto* a = original.GetTemplate(id);
    const auto* b = restored->GetTemplate(id);
    ASSERT_NE(b, nullptr) << "template " << id << " lost";
    EXPECT_EQ(b->fingerprint, a->fingerprint);
    EXPECT_EQ(b->text, a->text);
    EXPECT_EQ(b->type, a->type);
    EXPECT_EQ(b->tables, a->tables);
    EXPECT_EQ(b->first_seen, a->first_seen);
    EXPECT_EQ(b->last_seen, a->last_seen);
    EXPECT_DOUBLE_EQ(b->total_queries, a->total_queries);
    EXPECT_DOUBLE_EQ(b->history.Total(), a->history.Total());
    // Hourly views identical across the whole span.
    auto sa = a->history.Series(kSecondsPerHour, 0, 4 * kSecondsPerDay);
    auto sb = b->history.Series(kSecondsPerHour, 0, 4 * kSecondsPerDay);
    ASSERT_TRUE(sa.ok() && sb.ok());
    for (size_t i = 0; i < sa->size(); ++i) {
      EXPECT_DOUBLE_EQ(sb->values()[i], sa->values()[i]);
    }
    EXPECT_EQ(b->param_samples.seen(), a->param_samples.seen());
    ASSERT_EQ(b->param_samples.items().size(), a->param_samples.items().size());
    for (size_t i = 0; i < a->param_samples.items().size(); ++i) {
      const auto& ta = a->param_samples.items()[i];
      const auto& tb = b->param_samples.items()[i];
      ASSERT_EQ(tb.size(), ta.size());
      for (size_t j = 0; j < ta.size(); ++j) {
        EXPECT_EQ(tb[j].type, ta[j].type);
        EXPECT_EQ(tb[j].text, ta[j].text);
      }
    }
  }
}

TEST(SnapshotTest, V3RoundTripsByteForByte) {
  // Save writes v4, which is v3 plus a `next_id` line after the totals. The
  // v4 file and its v3 form (nothing was evicted, so v3's derived next id
  // is the same) both load to a state that saves as the v4 file again.
  PreProcessor original = MakePopulated();
  std::string first;
  ASSERT_TRUE(Snapshot::Save(original, &first).ok());
  ASSERT_EQ(first.rfind("qb5000-snapshot 4\n", 0), 0u);
  size_t next_id = first.find("\nnext_id ");
  ASSERT_NE(next_id, std::string::npos);
  size_t body = first.find('\n') + 1;
  const std::string v3 = "qb5000-snapshot 3\n" +
                         first.substr(body, next_id - body) + "\nend\n";
  for (const std::string& text : {first, v3}) {
    std::istringstream in(text);
    auto restored = Snapshot::Load(in, PreProcessor::Options());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::string second;
    ASSERT_TRUE(Snapshot::Save(*restored, &second).ok());
    EXPECT_EQ(second, first);
  }
}

TEST(SnapshotTest, RefusesNextIdAtOrBelowARestoredId) {
  // A next id that could be handed out again is corrupt, so the load fails
  // and the checkpoint restore ladder moves on to the backup.
  PreProcessor original = MakePopulated();
  std::string saved;
  ASSERT_TRUE(Snapshot::Save(original, &saved).ok());
  const TemplateId max_id = original.TemplateIds().back();
  const std::string line = "\nnext_id " + std::to_string(max_id + 1) + "\n";
  size_t at = saved.find(line);
  ASSERT_NE(at, std::string::npos);
  for (TemplateId bad : {max_id, TemplateId{0}}) {
    std::string text = saved;
    text.replace(at, line.size(),
                 "\nnext_id " + std::to_string(bad) + "\n");
    std::istringstream in(text);
    auto restored = Snapshot::Load(in, PreProcessor::Options());
    ASSERT_FALSE(restored.ok()) << "next_id " << bad;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  }
}

TEST(SnapshotTest, RestoredPreProcessorKeepsIngesting) {
  PreProcessor original = MakePopulated();
  size_t templates_before = original.num_templates();
  std::string saved;
  ASSERT_TRUE(Snapshot::Save(original, &saved).ok());
  std::istringstream buffer(saved);
  auto restored = Snapshot::Load(buffer, PreProcessor::Options());
  ASSERT_TRUE(restored.ok());

  // Known template: maps to the existing id, no new template.
  auto known = restored->Ingest("SELECT stop_name FROM stops WHERE stop_id = 7",
                                4 * kSecondsPerDay);
  ASSERT_TRUE(known.ok());
  EXPECT_EQ(restored->num_templates(), templates_before);
  // New template: gets a fresh id above all restored ones.
  auto fresh = restored->Ingest("SELECT 1 FROM brand_new WHERE z = 1",
                                4 * kSecondsPerDay);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(restored->num_templates(), templates_before + 1);
  for (TemplateId id : original.TemplateIds()) EXPECT_NE(*fresh, id);
}

TEST(SnapshotTest, RejectsGarbageAndMissingFiles) {
  std::stringstream bad("not a snapshot at all");
  EXPECT_FALSE(Snapshot::Load(bad, PreProcessor::Options()).ok());
  std::stringstream wrong_version("qb5000-snapshot 999\ntemplates 0\nend\n");
  EXPECT_FALSE(Snapshot::Load(wrong_version, PreProcessor::Options()).ok());
  std::stringstream truncated("qb5000-snapshot 1\ntemplates 3\n");
  EXPECT_FALSE(Snapshot::Load(truncated, PreProcessor::Options()).ok());
}

TEST(SnapshotTest, EmptyPreProcessorRoundTrips) {
  PreProcessor empty;
  std::string saved;
  ASSERT_TRUE(Snapshot::Save(empty, &saved).ok());
  std::istringstream buffer(saved);
  auto restored = Snapshot::Load(buffer, PreProcessor::Options());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_templates(), 0u);
}

}  // namespace
}  // namespace qb5000
