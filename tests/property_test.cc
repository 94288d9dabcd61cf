// Property-based and parameterized tests: invariants that must hold for
// randomized inputs across the whole pipeline, from TimeSeries algebra to
// executor/scan equivalence.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "clusterer/online_clusterer.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "dbms/database.h"
#include "dbms/loader.h"
#include "forecaster/dataset.h"
#include "forecaster/neural.h"
#include "math/stats.h"
#include "preprocessor/templatizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/workload.h"

namespace qb5000 {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries algebra properties across random shapes.
// ---------------------------------------------------------------------------

class TimeSeriesProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimeSeriesProperty, AggregatePreservesTotal) {
  Rng rng(GetParam());
  TimeSeries ts(0, 60);
  int n = static_cast<int>(rng.UniformInt(10, 500));
  for (int i = 0; i < n; ++i) {
    ts.Add(rng.UniformInt(0, 10000) * 60, rng.Uniform(0, 50));
  }
  for (int64_t interval : {300, 3600, 7200}) {
    auto agg = ts.Aggregate(interval);
    ASSERT_TRUE(agg.ok());
    EXPECT_NEAR(agg->Total(), ts.Total(), 1e-6);
  }
}

TEST_P(TimeSeriesProperty, SliceOfFullRangeMatchesValues) {
  Rng rng(GetParam() + 100);
  TimeSeries ts(0, 60);
  for (int i = 0; i < 200; ++i) {
    ts.Add(rng.UniformInt(0, 499) * 60, 1.0);
  }
  TimeSeries sliced = ts.Slice(ts.start(), ts.end());
  ASSERT_EQ(sliced.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(sliced.values()[i], ts.values()[i]);
  }
}

TEST_P(TimeSeriesProperty, BackfillKeepsTotals) {
  Rng rng(GetParam() + 200);
  TimeSeries ts(0, 60);
  double expected = 0;
  for (int i = 0; i < 300; ++i) {
    double v = rng.Uniform(0, 5);
    // Interleave early and late timestamps: Add must extend both ways.
    Timestamp t = (rng.Bernoulli(0.5) ? 1 : -1) * rng.UniformInt(0, 2000) * 60;
    ts.Add(t, v);
    expected += v;
  }
  EXPECT_NEAR(ts.Total(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeSeriesProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// ArrivalHistory: compaction never changes hourly totals.
// ---------------------------------------------------------------------------

class CompactionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactionProperty, HourlyViewInvariantUnderCompaction) {
  Rng rng(GetParam());
  ArrivalHistory a, b;
  Timestamp span = 5 * kSecondsPerDay;
  for (int i = 0; i < 2000; ++i) {
    Timestamp t = rng.UniformInt(0, span / 60 - 1) * 60;
    double v = rng.Uniform(0, 10);
    a.Record(t, v);
    b.Record(t, v);
  }
  // Compact `b` at several rolling cutoffs.
  for (Timestamp cutoff : {kSecondsPerDay, 2 * kSecondsPerDay, 4 * kSecondsPerDay}) {
    b.Compact(cutoff);
  }
  auto sa = a.Series(kSecondsPerHour, 0, span);
  auto sb = b.Series(kSecondsPerHour, 0, span);
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->size(), sb->size());
  for (size_t i = 0; i < sa->size(); ++i) {
    EXPECT_NEAR(sa->values()[i], sb->values()[i], 1e-6) << "hour " << i;
  }
  EXPECT_LE(b.StorageBytes(), a.StorageBytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionProperty,
                         ::testing::Values(11, 12, 13));

// ---------------------------------------------------------------------------
// SQL printer: printing is a fixpoint (Print(Parse(Print(x))) == Print(x)).
// ---------------------------------------------------------------------------

TEST(SqlFixpointProperty, AllWorkloadStreamsRoundTripStably) {
  Rng rng(42);
  for (const auto& workload :
       {MakeBusTracker(), MakeAdmissions(), MakeMooc(), MakeNoisyComposite()}) {
    for (const auto& stream : workload.streams()) {
      for (int draw = 0; draw < 3; ++draw) {
        std::string sql = stream.make_sql(rng);
        auto first = sql::Parse(sql);
        ASSERT_TRUE(first.ok()) << sql;
        std::string printed = sql::Print(*first);
        auto second = sql::Parse(printed);
        ASSERT_TRUE(second.ok()) << printed;
        EXPECT_EQ(sql::Print(*second), printed) << sql;
      }
    }
  }
}

TEST(TemplatizerFixpointProperty, TemplatizingATemplateIsIdentity) {
  Rng rng(43);
  for (const auto& workload : {MakeBusTracker(), MakeAdmissions(), MakeMooc()}) {
    for (const auto& stream : workload.streams()) {
      auto original = Templatize(stream.make_sql(rng));
      ASSERT_TRUE(original.ok());
      auto again = Templatize(original->template_text);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->template_text, original->template_text);
      EXPECT_EQ(again->fingerprint, original->fingerprint);
      EXPECT_TRUE(again->parameters.empty());  // placeholders, not constants
    }
  }
}

// ---------------------------------------------------------------------------
// Clusterer invariants across rho.
// ---------------------------------------------------------------------------

class ClustererInvariants : public ::testing::TestWithParam<double> {};

TEST_P(ClustererInvariants, PartitionAndMergeInvariantsHold) {
  double rho = GetParam();
  PreProcessor pre;
  Rng rng(7);
  // 12 templates with random-phase daily patterns.
  for (int k = 0; k < 12; ++k) {
    auto tmpl = Templatize("SELECT c" + std::to_string(k) + " FROM t WHERE id = 1");
    ASSERT_TRUE(tmpl.ok());
    double phase = rng.Uniform(0, 2 * M_PI);
    for (int h = 0; h < 5 * 24; ++h) {
      double t = static_cast<double>(h) / 24.0;
      pre.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                            50.0 * (1.5 + std::sin(2 * M_PI * t + phase)));
    }
  }
  OnlineClusterer::Options opts;
  opts.rho = rho;
  opts.feature.num_samples = 96;
  opts.feature.window_seconds = 3 * kSecondsPerDay;
  OnlineClusterer clusterer(opts);
  clusterer.Update(pre, 5 * kSecondsPerDay);

  // (1) Every template is assigned to exactly one existing cluster.
  std::set<TemplateId> seen;
  for (const auto& [id, cluster] : clusterer.clusters()) {
    EXPECT_FALSE(cluster.members.empty());
    for (TemplateId member : cluster.members) {
      EXPECT_TRUE(seen.insert(member).second) << "template in two clusters";
      EXPECT_EQ(clusterer.AssignmentOf(member), id);
    }
  }
  EXPECT_EQ(seen.size(), pre.num_templates());

  // (2) After the merge step, no two cluster centers are mutually more
  // similar than rho.
  const auto& clusters = clusterer.clusters();
  for (auto it_a = clusters.begin(); it_a != clusters.end(); ++it_a) {
    auto it_b = it_a;
    for (++it_b; it_b != clusters.end(); ++it_b) {
      EXPECT_LE(CosineSimilarity(it_a->second.center, it_b->second.center),
                rho + 1e-9);
    }
  }

  // (3) Volumes are non-negative and sum to the total.
  double sum = 0;
  for (const auto& [id, cluster] : clusters) {
    (void)id;
    EXPECT_GE(cluster.volume, 0.0);
    sum += cluster.volume;
  }
  EXPECT_NEAR(sum, clusterer.TotalVolume(), 1e-9);

  // (4) Updates are idempotent when nothing changed.
  auto before = clusterer.clusters().size();
  clusterer.Update(pre, 5 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), before);
}

INSTANTIATE_TEST_SUITE_P(Rho, ClustererInvariants,
                         ::testing::Values(0.5, 0.7, 0.8, 0.9, 0.99));

// ---------------------------------------------------------------------------
// Executor: index paths return exactly the same rows as full scans, over
// randomized predicates.
// ---------------------------------------------------------------------------

class ExecutorEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorEquivalence, IndexedAndScannedResultsAgree) {
  Rng rng(GetParam());
  // Two identical tables; one gets every index.
  dbms::Database with_index, without_index;
  for (auto* db : {&with_index, &without_index}) {
    ASSERT_TRUE(db->CreateTable("data", {{"id", true, 100000},
                                         {"k", true, 40},
                                         {"v", true, 500},
                                         {"s", false, 30}})
                    .ok());
  }
  for (int i = 1; i <= 1500; ++i) {
    int64_t k = rng.UniformInt(1, 40);
    int64_t v = rng.UniformInt(1, 500);
    std::string s = "s" + std::to_string(rng.UniformInt(1, 30));
    for (auto* db : {&with_index, &without_index}) {
      // Same values in both: reseeding per row via captured values.
      ASSERT_TRUE(
          db->GetTable("data")->Insert({int64_t{i}, k, v, s}).ok());
    }
  }
  for (const char* col : {"id", "k", "v", "s"}) {
    ASSERT_TRUE(with_index.CreateIndex("data", col).ok());
  }
  // Random predicate shapes.
  for (int q = 0; q < 40; ++q) {
    std::string where;
    switch (rng.UniformInt(0, 5)) {
      case 0:
        where = "k = " + std::to_string(rng.UniformInt(1, 40));
        break;
      case 1:
        where = "v BETWEEN " + std::to_string(rng.UniformInt(1, 250)) +
                " AND " + std::to_string(rng.UniformInt(251, 500));
        break;
      case 2:
        where = "k = " + std::to_string(rng.UniformInt(1, 40)) +
                " AND v > " + std::to_string(rng.UniformInt(1, 500));
        break;
      case 3:
        where = "s = 's" + std::to_string(rng.UniformInt(1, 30)) + "'";
        break;
      case 4:
        where = "id IN (" + std::to_string(rng.UniformInt(1, 1500)) + ", " +
                std::to_string(rng.UniformInt(1, 1500)) + ")";
        break;
      default:
        where = "k = " + std::to_string(rng.UniformInt(1, 40)) +
                " OR v = " + std::to_string(rng.UniformInt(1, 500));
        break;
    }
    std::string sql = "SELECT id FROM data WHERE " + where;
    auto fast = with_index.Execute(sql);
    auto slow = without_index.Execute(sql);
    ASSERT_TRUE(fast.ok() && slow.ok()) << sql;
    EXPECT_EQ(fast->rows_returned, slow->rows_returned) << sql;
    EXPECT_LE(fast->rows_examined, slow->rows_examined) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorEquivalence,
                         ::testing::Values(21, 22, 23));

// ---------------------------------------------------------------------------
// What-if costs: adding a hypothetical index never makes a SELECT estimate
// worse and never makes a write estimate better.
// ---------------------------------------------------------------------------

TEST(WhatIfProperty, MonotoneCosts) {
  dbms::Database db;
  Rng rng(31);
  auto workload = MakeBusTracker();
  ASSERT_TRUE(dbms::LoadWorkloadSchema(db, workload, rng, 0.05).ok());
  const std::set<std::string> candidates = {
      "stop_times.stop_id", "buses.route_id",    "favorites.rider_id",
      "stops.route_id",     "bus_positions.bus_id"};
  for (const auto& stream : workload.streams()) {
    auto stmt = sql::Parse(stream.make_sql(rng));
    ASSERT_TRUE(stmt.ok());
    auto base = db.EstimateCost(*stmt, {});
    ASSERT_TRUE(base.ok());
    auto with_all = db.EstimateCost(*stmt, candidates);
    ASSERT_TRUE(with_all.ok());
    if (stmt->type == sql::StatementType::kSelect) {
      EXPECT_LE(*with_all, *base + 1e-9) << stream.name;
    } else if (stmt->type == sql::StatementType::kInsert) {
      EXPECT_GE(*with_all, *base - 1e-9) << stream.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Standardizer: transform/inverse round trip.
// ---------------------------------------------------------------------------

TEST(StandardizerProperty, RoundTripsRandomData) {
  Rng rng(5);
  Matrix data(50, 7);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 7; ++j) data(i, j) = rng.Gaussian(j * 10.0, j + 1.0);
  }
  Standardizer std_;
  Matrix transformed = std_.FitTransform(data);
  // Columns have ~zero mean, ~unit variance.
  for (size_t j = 0; j < 7; ++j) {
    Vector col(50);
    for (size_t i = 0; i < 50; ++i) col[i] = transformed(i, j);
    EXPECT_NEAR(Mean(col), 0.0, 1e-9);
    EXPECT_NEAR(Variance(col), 1.0, 1e-6);
  }
  // Row round trip.
  for (size_t i = 0; i < 50; i += 7) {
    Vector back = std_.Inverse(std_.Transform(data.Row(i)));
    for (size_t j = 0; j < 7; ++j) EXPECT_NEAR(back[j], data(i, j), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Forecast models: every family improves over predicting zero on a
// learnable pattern (sanity floor across the registry).
// ---------------------------------------------------------------------------

class ModelFloor : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelFloor, BeatsZeroPredictor) {
  TimeSeries ts(0, kSecondsPerHour);
  for (int h = 0; h < 12 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    ts.Add(static_cast<Timestamp>(h) * kSecondsPerHour,
           400.0 * (1.5 + std::sin(2 * M_PI * t)));
  }
  std::vector<TimeSeries> series = {ts};
  auto ds = BuildDataset(series, 24, 1);
  ASSERT_TRUE(ds.ok());
  ModelOptions opts;
  opts.num_series = 1;
  opts.hidden_dim = 10;
  opts.embedding_dim = 8;
  opts.num_layers = 1;
  opts.max_epochs = 25;
  auto model = CreateModel(GetParam(), opts);
  ASSERT_NE(model, nullptr);
  ASSERT_TRUE(model->Fit(ds->x, ds->y).ok());
  Vector actual, predicted, zeros;
  for (size_t i = ds->x.rows() - 48; i < ds->x.rows(); ++i) {
    auto pred = model->Predict(ds->x.Row(i));
    ASSERT_TRUE(pred.ok());
    predicted.push_back(std::expm1((*pred)[0]));
    actual.push_back(std::expm1(ds->y(i, 0)));
    zeros.push_back(0.0);
  }
  EXPECT_LT(LogSpaceMse(actual, predicted), LogSpaceMse(actual, zeros));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ModelFloor,
    ::testing::Values(ModelKind::kLr, ModelKind::kArma, ModelKind::kKr,
                      ModelKind::kFnn, ModelKind::kRnn, ModelKind::kPsrnn,
                      ModelKind::kEnsemble, ModelKind::kHybrid),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

}  // namespace
}  // namespace qb5000
