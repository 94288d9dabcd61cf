// Robustness and failure-injection tests: the pipeline must degrade
// gracefully — never crash, never corrupt state — under malformed SQL,
// hostile token streams, out-of-order timestamps, and starvation.
#include <cmath>

#include "common/finite.h"

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "core/qb5000.h"
#include "dbms/database.h"
#include "preprocessor/templatizer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace qb5000 {
namespace {

// ---------------------------------------------------------------------------
// Deterministic parser fuzzing: random byte soup and mutated valid SQL.
// The contract: Parse() returns ok or an error Status — it never crashes,
// and whatever parses must print and reparse to the same text.
// ---------------------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(GetParam());
  const char kAlphabet[] =
      " \t\nABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
      "()*,.;=<>!'\"`%_+-/?$|&#@[]{}\\";
  for (int trial = 0; trial < 500; ++trial) {
    size_t length = static_cast<size_t>(rng.UniformInt(0, 120));
    std::string soup;
    for (size_t i = 0; i < length; ++i) {
      soup += kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
    }
    auto result = sql::Parse(soup);  // must not crash or hang
    if (result.ok()) {
      std::string printed = sql::Print(*result);
      auto reparsed = sql::Parse(printed);
      ASSERT_TRUE(reparsed.ok()) << "printed form must reparse: " << printed;
      EXPECT_EQ(sql::Print(*reparsed), printed);
    }
  }
}

TEST_P(ParserFuzz, MutatedValidSqlNeverCrashes) {
  Rng rng(GetParam() + 1000);
  const std::string kSeeds[] = {
      "SELECT a, b FROM t WHERE x = 1 AND y IN (2, 3) ORDER BY a DESC LIMIT 5",
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
      "UPDATE t SET a = 1, b = 'z' WHERE c BETWEEN 2 AND 9",
      "DELETE FROM t WHERE a LIKE 'p%' OR b IS NOT NULL",
      "SELECT COUNT(*), AVG(v) FROM t JOIN u ON t.id = u.id GROUP BY g "
      "HAVING COUNT(*) > 2",
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string sql = kSeeds[rng.UniformInt(0, 4)];
    int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations && !sql.empty(); ++m) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sql.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          sql.erase(pos, 1);
          break;
        case 1:
          sql.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
        default:
          sql[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
      }
    }
    Arena arena;
    auto tokens = sql::Tokenize(sql, &arena);  // must not crash
    auto result = sql::Parse(sql);     // must not crash
    (void)tokens;
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------------
// Templatizer over hostile input: total function — every tokenizable string
// produces a template (parse fallback), every non-tokenizable one an error.
// ---------------------------------------------------------------------------

TEST(TemplatizerRobustness, HostileInputsNeverCrash) {
  const std::string cases[] = {
      "",
      ";;;",
      "SELECT",
      "SELECT FROM WHERE",
      "EXPLAIN ANALYZE SELECT 1",
      "BEGIN",
      "COMMIT",
      "SET search_path = foo",
      "SELECT * FROM t WHERE a = 'unterminated",
      "SELECT /* nested /* comment */ 1",
      std::string(10000, 'x'),
      "SELECT '" + std::string(5000, 'y') + "' FROM t",
  };
  for (const auto& sql : cases) {
    auto result = Templatize(sql);  // ok-or-error, never crash
    if (result.ok()) {
      EXPECT_FALSE(result->fingerprint.empty()) << sql.substr(0, 40);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline failure injection.
// ---------------------------------------------------------------------------

TEST(PipelineRobustness, MalformedSqlBurstDoesNotPoisonState) {
  QueryBot5000 bot;
  // Interleave good queries with a burst of garbage.
  for (int i = 0; i < 200; ++i) {
    Timestamp ts = i * kSecondsPerMinute;
    ASSERT_TRUE(
        bot.Ingest("SELECT a FROM t WHERE id = " + std::to_string(i), ts).ok());
    EXPECT_FALSE(bot.Ingest("SELECT 'broken", ts).ok());
    EXPECT_FALSE(bot.Ingest("", ts).ok());
  }
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
  EXPECT_DOUBLE_EQ(bot.preprocessor().total_queries(), 200.0);
}

TEST(PipelineRobustness, OutOfOrderTimestampsAreAbsorbed) {
  PreProcessor pre;
  Rng rng(7);
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  double total = 0;
  std::vector<Timestamp> times;
  for (int i = 0; i < 1000; ++i) {
    times.push_back(rng.UniformInt(0, 3 * kSecondsPerDay));
  }
  for (Timestamp ts : times) {
    pre.IngestTemplatized(*tmpl, ts, 1.0);
    total += 1.0;
  }
  // Compact mid-stream, then keep feeding earlier timestamps.
  pre.CompactBefore(10 * kSecondsPerDay);
  for (Timestamp ts : times) {
    pre.IngestTemplatized(*tmpl, ts / 2, 1.0);
    total += 1.0;
  }
  const auto* info = pre.GetTemplate(pre.TemplateIds()[0]);
  ASSERT_NE(info, nullptr);
  EXPECT_NEAR(info->history.Total(), total, 1e-9);
  auto series = info->history.Series(kSecondsPerHour, 0, 3 * kSecondsPerDay);
  ASSERT_TRUE(series.ok());
  EXPECT_NEAR(series->Total(), total, 1e-9);
}

TEST(PipelineRobustness, BackwardsClockDoesNotCorruptStateOrArmTimer) {
  // NTP step / VM migration: the ingest clock jumps a day into the past.
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  QueryBot5000 bot(config);  // maintenance period: one day
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int h = 0; h < 3 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                                      100 * (1.5 + std::sin(2 * M_PI * t)))
                    .ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(3 * kSecondsPerDay, true).ok());
  ASSERT_EQ(bot.last_maintenance(), 3 * kSecondsPerDay);

  // Ingest with a regressed timestamp: histories must absorb it, totals
  // must stay exact, last_seen must not move backwards.
  const auto* info = bot.preprocessor().GetTemplate(1);
  ASSERT_NE(info, nullptr);
  double total_before = info->history.Total();
  Timestamp last_seen_before = info->last_seen;
  ASSERT_TRUE(bot.IngestTemplatized(*tmpl, 2 * kSecondsPerDay, 5.0).ok());
  EXPECT_NEAR(info->history.Total(), total_before + 5.0, 1e-9);
  EXPECT_EQ(info->last_seen, last_seen_before);

  // Maintenance with the regressed clock must not arm the timer into the
  // future: it re-anchors to the regressed time...
  ASSERT_TRUE(bot.RunMaintenance(2 * kSecondsPerDay).ok());
  EXPECT_LE(bot.last_maintenance(), 2 * kSecondsPerDay);
  // ...so one period after the regressed time, maintenance is due again
  // (without the fix it would stay silent until 4d).
  ASSERT_TRUE(bot.RunMaintenance(3 * kSecondsPerDay).ok());
  EXPECT_EQ(bot.last_maintenance(), 3 * kSecondsPerDay);
  EXPECT_TRUE(bot.Forecast(3 * kSecondsPerDay, kSecondsPerHour).ok());
}

TEST(PipelineRobustness, ForwardClockJumpDoesNotMassEvictOrCompact) {
  // The mirror of the backwards-clock test above: an NTP step / resumed VM
  // jumps the clock 90 days *forward*. The apparent gap since the last
  // maintenance pass is fictitious — anchoring housekeeping at the stepped
  // clock would put every live template past the 30-day eviction threshold
  // and compact still-fresh history. The clamp (kMaxClockStepSeconds, one
  // day, in core/qb5000.cc) caps the housekeeping anchor at the tolerated
  // step past the last pass.
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 2 * kSecondsPerDay;
  QueryBot5000 bot(config);
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  double total = 0.0;
  for (int h = 0; h < 3 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 100 * (1.5 + std::sin(2 * M_PI * t));
    ASSERT_TRUE(
        bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour, rate)
            .ok());
    total += rate;
  }
  ASSERT_TRUE(bot.RunMaintenance(3 * kSecondsPerDay, true).ok());
  ASSERT_EQ(bot.preprocessor().num_templates(), 1u);

  // Maintenance at the stepped clock: the template survives (without the
  // clamp it would be 90 days idle and evicted) and its history is not
  // compacted away (totals stay exact).
  // Training at the stepped time may legitimately fail (the training window
  // is empty); the property under test is housekeeping, not the fit.
  Status jumped = bot.RunMaintenance(3 * kSecondsPerDay + 90 * kSecondsPerDay);
  (void)jumped;
  ASSERT_EQ(bot.preprocessor().num_templates(), 1u);
  const auto* info = bot.preprocessor().GetTemplate(1);
  ASSERT_NE(info, nullptr);
  EXPECT_NEAR(info->history.Total(), total, 1e-9);

  // The clamp bridges the pass that observes the fictitious gap; a *live*
  // template immediately sees post-step arrivals (the new time is the time),
  // so it stays fresh through every later pass. (Eviction of genuinely idle
  // templates is covered in preprocessor_test.cc / integration_test.cc.)
  ASSERT_TRUE(
      bot.IngestTemplatized(*tmpl, 93 * kSecondsPerDay + kSecondsPerHour, 10.0).ok());
  Status settled = bot.RunMaintenance(94 * kSecondsPerDay);
  (void)settled;
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
}

TEST(PipelineRobustness, MaintenanceOnEmptyAndTinyStates) {
  QueryBot5000 bot;
  // Nothing ingested at all: maintenance is a no-op, not an error.
  EXPECT_TRUE(bot.RunMaintenance(kSecondsPerDay, true).ok());
  EXPECT_FALSE(bot.Forecast(kSecondsPerDay, kSecondsPerHour).ok());
  // A single query: still not enough to train, but must not corrupt state.
  ASSERT_TRUE(bot.Ingest("SELECT a FROM t WHERE id = 1", kSecondsPerDay).ok());
  Status st = bot.RunMaintenance(2 * kSecondsPerDay, true);
  // Either it trains (enough zero-padded history) or fails cleanly.
  if (!st.ok()) {
    EXPECT_FALSE(st.message().empty());
  }
  EXPECT_EQ(bot.preprocessor().num_templates(), 1u);
}

TEST(PipelineRobustness, ZeroVolumeGapThenResume) {
  QueryBot5000::Config config;
  config.forecaster.kind = ModelKind::kLr;
  config.forecaster.training_window_seconds = 7 * kSecondsPerDay;
  config.clusterer.feature.num_samples = 96;
  config.clusterer.feature.window_seconds = 5 * kSecondsPerDay;
  QueryBot5000 bot(config);
  auto tmpl = Templatize("SELECT a FROM t WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  // Three days of traffic, three days of silence, three more days.
  for (int h = 0; h < 9 * 24; ++h) {
    if (h >= 3 * 24 && h < 6 * 24) continue;  // outage
    double t = static_cast<double>(h) / 24.0;
    ASSERT_TRUE(bot.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                                      100 * (1.5 + std::sin(2 * M_PI * t)))
                    .ok());
  }
  ASSERT_TRUE(bot.RunMaintenance(9 * kSecondsPerDay, true).ok());
  auto forecast = bot.Forecast(9 * kSecondsPerDay, kSecondsPerHour);
  ASSERT_TRUE(forecast.ok());
  for (double v : forecast->queries_per_interval) {
    EXPECT_TRUE(qb5000::IsFinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST(ExecutorRobustness, DeepPredicateNestingDoesNotOverflow) {
  dbms::Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"id", true, 100}}).ok());
  ASSERT_TRUE(db.GetTable("t")->Insert({int64_t{1}}).ok());
  std::string where = "id = 1";
  for (int i = 0; i < 200; ++i) {
    where = "(" + where + " OR id = " + std::to_string(i + 2) + ")";
  }
  auto result = db.Execute("SELECT id FROM t WHERE " + where);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_returned, 1u);
}

TEST(ExecutorRobustness, WidePredicatesAndBigInLists) {
  dbms::Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"id", true, 1000}}).ok());
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(db.GetTable("t")->Insert({int64_t{i}}).ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "id").ok());
  std::string in_list = "SELECT id FROM t WHERE id IN (";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) in_list += ", ";
    in_list += std::to_string(i * 3);  // every third value, many misses
  }
  in_list += ")";
  auto result = db.Execute(in_list);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_returned, 33u);  // 3,6,...,99
}

}  // namespace
}  // namespace qb5000
