#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "clusterer/feature.h"
#include "clusterer/online_clusterer.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "math/stats.h"

namespace qb5000 {
namespace {

// Feeds a sinusoidal arrival pattern into a history.
ArrivalHistory MakePattern(double phase, double scale, int days) {
  ArrivalHistory h;
  for (int m = 0; m < days * 24 * 60; ++m) {
    double t = static_cast<double>(m) / (24 * 60);
    double rate = scale * (1.5 + std::sin(2 * M_PI * t + phase));
    h.Record(static_cast<Timestamp>(m) * kSecondsPerMinute, rate);
  }
  return h;
}

TEST(ArrivalRateFeatureTest, SampledDimensionsAndDeterminism) {
  ArrivalRateFeature::Options opts;
  opts.num_samples = 64;
  opts.window_seconds = 2 * kSecondsPerDay;
  ArrivalRateFeature f1(opts);
  ArrivalRateFeature f2(opts);
  f1.Resample(3 * kSecondsPerDay);
  f2.Resample(3 * kSecondsPerDay);
  EXPECT_EQ(f1.sample_times(), f2.sample_times());
  ArrivalHistory h = MakePattern(0.0, 10.0, 3);
  EXPECT_EQ(f1.Extract(h).size(), 64u);
  EXPECT_EQ(f1.Extract(h), f2.Extract(h));
}

TEST(ArrivalRateFeatureTest, ScaledPatternsAreCosineSimilar) {
  ArrivalRateFeature::Options opts;
  opts.num_samples = 128;
  opts.window_seconds = 3 * kSecondsPerDay;
  ArrivalRateFeature f(opts);
  f.Resample(3 * kSecondsPerDay);
  ArrivalHistory a = MakePattern(0.0, 10.0, 3);
  ArrivalHistory b = MakePattern(0.0, 100.0, 3);   // same shape, 10x volume
  ArrivalHistory c = MakePattern(M_PI, 10.0, 3);   // opposite phase
  double sim_ab = CosineSimilarity(f.Extract(a), f.Extract(b));
  double sim_ac = CosineSimilarity(f.Extract(a), f.Extract(c));
  EXPECT_GT(sim_ab, 0.99);
  EXPECT_LT(sim_ac, 0.9);
}

TEST(ArrivalRateFeatureTest, EmptyHistoryIsZeroVector) {
  ArrivalRateFeature f;
  f.Resample(kSecondsPerDay);
  ArrivalHistory empty;
  Vector v = f.Extract(empty);
  EXPECT_DOUBLE_EQ(Norm(v), 0.0);
}

PreProcessor::TemplateInfo MakeTemplate(const std::string& sql) {
  PreProcessor pre;
  auto id = pre.Ingest(sql, 0);
  EXPECT_TRUE(id.ok());
  PreProcessor::TemplateInfo copy(1);
  const auto* info = pre.GetTemplate(*id);
  copy.text = info->text;
  copy.type = info->type;
  copy.tables = info->tables;
  return copy;
}

TEST(LogicalFeatureTest, DistinguishesTypeAndTables) {
  auto a = LogicalFeature::Extract(
      MakeTemplate("SELECT x FROM alpha WHERE id = 1"));
  auto b = LogicalFeature::Extract(
      MakeTemplate("SELECT x FROM beta WHERE id = 1"));
  auto c = LogicalFeature::Extract(
      MakeTemplate("DELETE FROM alpha WHERE id = 1"));
  EXPECT_GT(SquaredL2Distance(a, b), 0.0);
  EXPECT_GT(SquaredL2Distance(a, c), 0.0);
  EXPECT_EQ(a.size(), LogicalFeature::kDimension);
}

TEST(LogicalFeatureTest, IdenticalStructureIdenticalFeature) {
  auto a = LogicalFeature::Extract(
      MakeTemplate("SELECT x FROM alpha WHERE id = 5"));
  auto b = LogicalFeature::Extract(
      MakeTemplate("SELECT x FROM alpha WHERE id = 999"));
  EXPECT_DOUBLE_EQ(SquaredL2Distance(a, b), 0.0);
}

TEST(LogicalFeatureTest, CountsJoinsAndAggregates) {
  auto simple = LogicalFeature::Extract(MakeTemplate("SELECT x FROM t"));
  auto fancy = LogicalFeature::Extract(MakeTemplate(
      "SELECT COUNT(*), SUM(v) FROM t JOIN u ON t.id = u.id GROUP BY g"));
  EXPECT_GT(SquaredL2Distance(simple, fancy), 1.0);
}

// Builds a PreProcessor with `n` templates per pattern group; patterns are
// sinusoids with group-specific phase.
void FillWorkload(PreProcessor& pre, int groups, int per_group, int days) {
  for (int g = 0; g < groups; ++g) {
    for (int k = 0; k < per_group; ++k) {
      std::string sql = "SELECT c" + std::to_string(g) + "_" + std::to_string(k) +
                        " FROM t" + std::to_string(g) + " WHERE id = 1";
      auto tmpl = Templatize(sql);
      ASSERT_TRUE(tmpl.ok());
      double phase = g * 2.0 * M_PI / groups;
      for (int h = 0; h < days * 24; ++h) {
        double t = static_cast<double>(h) / 24.0;
        double rate = (k + 1) * 50.0 * (1.5 + std::sin(2 * M_PI * t + phase));
        // One aggregated record per hour keeps the test fast.
        pre.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour,
                              rate);
      }
    }
  }
}

OnlineClusterer::Options FastOptions() {
  OnlineClusterer::Options opts;
  opts.feature.num_samples = 96;
  opts.feature.window_seconds = 3 * kSecondsPerDay;
  return opts;
}

// Three phase-shifted groups of four templates must come out as exactly
// three clusters.
TEST(OnlineClustererTest, GroupsSimilarPatternsSeparatesDissimilar) {
  PreProcessor pre;
  FillWorkload(pre, 3, 4, 3);
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, 3 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), 3u);
  // Templates from one group share a cluster.
  auto ids = pre.TemplateIds();
  ASSERT_EQ(ids.size(), 12u);
  for (int g = 0; g < 3; ++g) {
    ClusterId first = clusterer.AssignmentOf(ids[g * 4]);
    for (int k = 1; k < 4; ++k) {
      EXPECT_EQ(clusterer.AssignmentOf(ids[g * 4 + k]), first);
    }
  }
}

// Section 5.2's placement rule written out: the center with the highest
// cosine similarity over the probe's covered positions [covered_from, end),
// strictly above rho, the lowest id on ties; -1 when none qualifies.
ClusterId ReferenceBest(
    const std::map<ClusterId, OnlineClusterer::Cluster>& clusters,
    const ArrivalRateFeature::Feature& probe, double rho) {
  ClusterId best = -1;
  double best_sim = rho;
  for (const auto& [id, cluster] : clusters) {
    double dot = 0.0, np = 0.0, nc = 0.0;
    for (size_t i = probe.covered_from; i < probe.values.size(); ++i) {
      dot += probe.values[i] * cluster.center[i];
      np += probe.values[i] * probe.values[i];
      nc += cluster.center[i] * cluster.center[i];
    }
    double sim = np == 0.0 || nc == 0.0 ? 0.0 : dot / std::sqrt(np * nc);
    if (sim > best_sim) {
      best_sim = sim;
      best = id;
    }
  }
  return best;
}

// At 10^5 templates (500 clusters of 200 members, 288-dimension integer
// centers) every nearest-center answer is the exact argmax. Integer
// features keep every dot product and norm exact, so the reference and the
// clusterer must agree bit for bit on every probe.
TEST(OnlineClustererTest, ProbeBestIsExactAtHundredThousandTemplates) {
  constexpr size_t kClusters = 500;
  constexpr size_t kMembersPerCluster = 200;
  constexpr size_t kDim = 288;
  OnlineClusterer::Options opts;
  MetricsRegistry metrics;
  opts.metrics = &metrics;
  OnlineClusterer clusterer(opts);

  Rng rng(0x50726f6265ULL);
  std::map<ClusterId, OnlineClusterer::Cluster> state;
  for (size_t k = 0; k < kClusters; ++k) {
    OnlineClusterer::Cluster c;
    c.id = static_cast<ClusterId>(k + 1);
    c.center.resize(kDim);
    if (k % 100 == 99) {
      c.center = state.at(c.id - 1).center;  // an exact tie with id - 1
    } else {
      for (double& v : c.center) v = static_cast<double>(rng.UniformInt(0, 40));
    }
    for (size_t j = 0; j < kMembersPerCluster; ++j) {
      c.members.insert(static_cast<TemplateId>(k * kMembersPerCluster + j + 1));
    }
    c.volume = 1.0;
    state.emplace(c.id, std::move(c));
  }
  const auto reference_state = state;
  ASSERT_TRUE(clusterer
                  .RestoreState(std::move(state),
                                static_cast<ClusterId>(kClusters + 1), 0)
                  .ok());

  // Half the probes are perturbed copies of centers (a match usually
  // exists), half are noise (usually none above rho); every third probe
  // covers only the tail of the window, as a new template does.
  constexpr size_t kProbes = 256;
  size_t matched = 0, differ = 0;
  for (size_t i = 0; i < kProbes; ++i) {
    ArrivalRateFeature::Feature probe;
    probe.values.resize(kDim);
    if (i % 2 == 0) {
      const Vector& base =
          reference_state
              .at(rng.UniformInt(1, static_cast<int64_t>(kClusters)))
              .center;
      for (size_t d = 0; d < kDim; ++d) {
        probe.values[d] = std::max(
            0.0, base[d] + static_cast<double>(rng.UniformInt(0, 4) - 2));
      }
    } else {
      for (double& v : probe.values) {
        v = static_cast<double>(rng.UniformInt(0, 40));
      }
    }
    if (i % 3 == 1) {
      probe.covered_from = static_cast<size_t>(rng.UniformInt(1, kDim - 16));
    }
    ClusterId want = ReferenceBest(reference_state, probe, opts.rho);
    ClusterId got = clusterer.ProbeBest(probe);
    if (got != want && ++differ <= 3) {
      ADD_FAILURE() << "probe " << i << ": got " << got << ", want " << want;
    }
    if (want >= 0) ++matched;
  }
  EXPECT_EQ(differ, 0u) << "of " << kProbes << " probes";
  // Both sides of the rho decision are exercised.
  EXPECT_GT(matched, kProbes / 4);
  EXPECT_LT(matched, kProbes);

  ArrivalRateFeature::Feature zero;
  zero.values.assign(kDim, 0.0);
  EXPECT_EQ(clusterer.ProbeBest(zero), -1);
  ArrivalRateFeature::Feature uncovered;
  uncovered.values.assign(kDim, 1.0);
  uncovered.covered_from = kDim;
  EXPECT_EQ(clusterer.ProbeBest(uncovered), -1);
}

TEST(OnlineClustererTest, VolumeRankingAndTotal) {
  PreProcessor pre;
  FillWorkload(pre, 2, 2, 2);
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, 2 * kSecondsPerDay);
  auto top = clusterer.TopClustersByVolume(5);
  ASSERT_EQ(top.size(), 2u);
  const auto& clusters = clusterer.clusters();
  EXPECT_GE(clusters.at(top[0]).volume, clusters.at(top[1]).volume);
  EXPECT_NEAR(clusterer.TotalVolume(),
              clusters.at(top[0]).volume + clusters.at(top[1]).volume, 1e-9);
}

TEST(OnlineClustererTest, NewTemplateJoinsExistingCluster) {
  PreProcessor pre;
  FillWorkload(pre, 2, 3, 4);
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, 3 * kSecondsPerDay);
  ASSERT_EQ(clusterer.clusters().size(), 2u);
  // A new template with group-0 phase first appears on day 3: it only has
  // one day of history, so the coverage-masked similarity rule applies.
  auto tmpl = Templatize("SELECT newcol FROM t0 WHERE id = 1");
  ASSERT_TRUE(tmpl.ok());
  for (int h = 3 * 24; h < 4 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 80.0 * (1.5 + std::sin(2 * M_PI * t));
    pre.IngestTemplatized(*tmpl, static_cast<Timestamp>(h) * kSecondsPerHour, rate);
  }
  auto ids = pre.TemplateIds();
  TemplateId new_id = ids.back();
  clusterer.Update(pre, 4 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), 2u);
  // It must share a cluster with the first group-0 template.
  EXPECT_EQ(clusterer.AssignmentOf(new_id), clusterer.AssignmentOf(ids[0]));
}

TEST(OnlineClustererTest, DriftingTemplateMoves) {
  PreProcessor pre;
  auto stable = Templatize("SELECT a FROM t0 WHERE id = 1");
  auto stable2 = Templatize("SELECT b FROM t0 WHERE id = 1");
  auto drifter = Templatize("SELECT c FROM t0 WHERE id = 1");
  ASSERT_TRUE(stable.ok() && stable2.ok() && drifter.ok());
  // Days 0-2: all three share the same diurnal pattern.
  for (int h = 0; h < 3 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    double rate = 60.0 * (1.5 + std::sin(2 * M_PI * t));
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    pre.IngestTemplatized(*stable, ts, rate);
    pre.IngestTemplatized(*stable2, ts, rate);
    pre.IngestTemplatized(*drifter, ts, rate);
  }
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, 3 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), 1u);
  // Days 3-5: the drifter flips phase.
  for (int h = 3 * 24; h < 6 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    pre.IngestTemplatized(*stable, ts, 60.0 * (1.5 + std::sin(2 * M_PI * t)));
    pre.IngestTemplatized(*stable2, ts, 60.0 * (1.5 + std::sin(2 * M_PI * t)));
    pre.IngestTemplatized(*drifter, ts, 60.0 * (1.5 + std::sin(2 * M_PI * t + M_PI)));
  }
  clusterer.Update(pre, 6 * kSecondsPerDay);
  auto ids = pre.TemplateIds();
  EXPECT_EQ(clusterer.AssignmentOf(ids[0]), clusterer.AssignmentOf(ids[1]));
  EXPECT_NE(clusterer.AssignmentOf(ids[0]), clusterer.AssignmentOf(ids[2]));
}

TEST(OnlineClustererTest, CenterSeriesAveragesMembers) {
  PreProcessor pre;
  auto a = Templatize("SELECT a FROM t WHERE id = 1");
  auto b = Templatize("SELECT b FROM t WHERE id = 1");
  ASSERT_TRUE(a.ok() && b.ok());
  for (int h = 0; h < 48; ++h) {
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    double t = static_cast<double>(h) / 24.0;
    double shape = 1.5 + std::sin(2 * M_PI * t);
    pre.IngestTemplatized(*a, ts, 10.0 * shape);
    pre.IngestTemplatized(*b, ts, 30.0 * shape);
  }
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, 2 * kSecondsPerDay);
  ASSERT_EQ(clusterer.clusters().size(), 1u);
  ClusterId cid = clusterer.clusters().begin()->first;
  auto center = clusterer.CenterSeries(pre, cid, kSecondsPerHour, 0,
                                       2 * kSecondsPerDay);
  ASSERT_TRUE(center.ok());
  // Center = average of the two members: 20 * shape at h=6 (peak: shape=2.5).
  EXPECT_NEAR(center->values()[6], 20.0 * 2.5, 1.0);
}

TEST(OnlineClustererTest, ShouldTriggerOnNewTemplates) {
  PreProcessor pre;
  FillWorkload(pre, 1, 4, 1);
  OnlineClusterer clusterer(FastOptions());
  clusterer.Update(pre, kSecondsPerDay);
  EXPECT_FALSE(clusterer.ShouldTrigger(pre));
  // Add 4 brand-new templates (50% of workload is now new).
  for (int k = 0; k < 4; ++k) {
    auto tmpl = Templatize("SELECT brand_new" + std::to_string(k) +
                           " FROM fresh WHERE id = 1");
    ASSERT_TRUE(tmpl.ok());
    pre.IngestTemplatized(*tmpl, kSecondsPerDay + 60, 5.0);
  }
  EXPECT_TRUE(clusterer.ShouldTrigger(pre));
}

TEST(OnlineClustererTest, MergesClustersWhenCentersConverge) {
  PreProcessor pre;
  auto a = Templatize("SELECT a FROM t WHERE id = 1");
  auto b = Templatize("SELECT b FROM t WHERE id = 1");
  ASSERT_TRUE(a.ok() && b.ok());
  // Day 0-2: opposite phases -> two clusters.
  for (int h = 0; h < 3 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    pre.IngestTemplatized(*a, ts, 60.0 * (1.5 + std::sin(2 * M_PI * t)));
    pre.IngestTemplatized(*b, ts, 60.0 * (1.5 + std::sin(2 * M_PI * t + M_PI)));
  }
  auto opts = FastOptions();
  OnlineClusterer clusterer(opts);
  clusterer.Update(pre, 3 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), 2u);
  // Days 3-8: identical phases; with a 3-day feature window the old
  // disagreement ages out and the clusters merge.
  for (int h = 3 * 24; h < 9 * 24; ++h) {
    double t = static_cast<double>(h) / 24.0;
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    double rate = 60.0 * (1.5 + std::sin(2 * M_PI * t));
    pre.IngestTemplatized(*a, ts, rate);
    pre.IngestTemplatized(*b, ts, rate);
  }
  clusterer.Update(pre, 9 * kSecondsPerDay);
  EXPECT_EQ(clusterer.clusters().size(), 1u);
}

TEST(OnlineClustererTest, LogicalModeClustersByStructure) {
  PreProcessor pre;
  // Two structural families with *identical* arrival patterns.
  auto a1 = Templatize("SELECT a FROM users WHERE uid = 1");
  auto a2 = Templatize("SELECT b FROM users WHERE uid = 2");
  auto b1 = Templatize("INSERT INTO events (k, v, w, x) VALUES (1, 2, 3, 4)");
  ASSERT_TRUE(a1.ok() && a2.ok() && b1.ok());
  for (int h = 0; h < 24; ++h) {
    Timestamp ts = static_cast<Timestamp>(h) * kSecondsPerHour;
    pre.IngestTemplatized(*a1, ts, 10);
    pre.IngestTemplatized(*a2, ts, 10);
    pre.IngestTemplatized(*b1, ts, 10);
  }
  auto opts = FastOptions();
  opts.feature_mode = OnlineClusterer::FeatureMode::kLogical;
  opts.rho = 0.35;  // L2-mapped similarity threshold
  OnlineClusterer clusterer(opts);
  clusterer.Update(pre, kSecondsPerDay);
  auto ids = pre.TemplateIds();
  EXPECT_EQ(clusterer.AssignmentOf(ids[0]), clusterer.AssignmentOf(ids[1]));
  EXPECT_NE(clusterer.AssignmentOf(ids[0]), clusterer.AssignmentOf(ids[2]));
}

}  // namespace
}  // namespace qb5000
