#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "clusterer/feature.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timeseries.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {

/// Identifier for a cluster of templates. Ids are stable across update
/// passes (clusters keep their id as members churn) so day-over-day change
/// tracking (Figure 6) is meaningful.
using ClusterId = int64_t;

/// The Clusterer (Section 5): groups templates whose arrival-rate histories
/// are similar, using an online variant of DBSCAN driven by a similarity
/// threshold rho against cluster *centers* rather than arbitrary core
/// objects. Each update pass runs the paper's three steps:
///   1. assign new templates to the most-similar center (or start a cluster),
///   2. re-check existing templates against their center and move drifters,
///   3. merge clusters whose centers exceed rho similarity.
class OnlineClusterer {
 public:
  /// Which template representation drives similarity (Section 7.7 ablation).
  enum class FeatureMode {
    kArrivalRate,  ///< sampled arrival-rate history, cosine similarity
    kLogical,      ///< query structure features, L2-based similarity
  };

  struct Options {
    /// Similarity threshold rho in [0, 1] (Appendix A; paper default 0.8).
    double rho = 0.8;
    FeatureMode feature_mode = FeatureMode::kArrivalRate;
    ArrivalRateFeature::Options feature;
    /// Re-cluster eagerly when this fraction of templates is new since the
    /// last update (Section 5.2).
    double new_template_trigger_ratio = 0.2;
    /// Window over which cluster volume is measured for ranking.
    int64_t volume_window_seconds = kSecondsPerDay;
    /// Registry receiving `clusterer.*` metrics; nullptr = the process
    /// global. QueryBot5000 overrides this with its per-instance registry.
    MetricsRegistry* metrics = nullptr;
  };

  struct Cluster {
    ClusterId id = 0;
    Vector center;  ///< arithmetic mean of member feature vectors
    std::set<TemplateId> members;
    double volume = 0.0;  ///< member arrivals within the volume window
  };

  OnlineClusterer() : OnlineClusterer(Options()) {}
  explicit OnlineClusterer(Options options);

  /// Runs one incremental clustering pass over the templates in `pre`,
  /// with feature windows ending at `now`.
  void Update(const PreProcessor& pre, Timestamp now);

  /// True when the fraction of templates first seen since the last update
  /// exceeds the trigger ratio (workload-shift detection, Section 5.2).
  bool ShouldTrigger(const PreProcessor& pre) const;

  const std::map<ClusterId, Cluster>& clusters() const { return clusters_; }

  /// Cluster ids sorted by descending volume; at most `k` entries.
  std::vector<ClusterId> TopClustersByVolume(size_t k) const;

  /// Sum of all cluster volumes within the volume window.
  double TotalVolume() const;

  /// Cluster the template currently belongs to, or -1 if unassigned.
  ClusterId AssignmentOf(TemplateId id) const;

  /// Average arrival-rate series of the cluster's members over [from, to)
  /// at `interval_seconds` — the signal the Forecaster trains on.
  Result<TimeSeries> CenterSeries(const PreProcessor& pre, ClusterId id,
                                  int64_t interval_seconds, Timestamp from,
                                  Timestamp to) const;

  /// Nearest-center probe exactly as an update pass places a new template
  /// (the exact scan of DESIGN.md §15) — the test and benchmark hook for
  /// probing identical state.
  ClusterId ProbeBest(const ArrivalRateFeature::Feature& feature) const {
    return FindBestCluster(feature, /*exclude=*/-1);
  }

  Timestamp last_update_time() const { return last_update_time_; }

  /// Checkpoint support: the next id a new cluster would receive. Persisted
  /// so ids stay stable across restarts even when the newest cluster has
  /// been merged away.
  ClusterId next_cluster_id() const { return next_cluster_id_; }

  /// Checkpoint support: replaces the whole clustering state (clusters with
  /// centers/members/volumes, id counter, last update time) and rebuilds the
  /// template->cluster index from the member sets. Validates internal
  /// consistency — a template in two clusters, a non-positive id, an id at
  /// or above `next_cluster_id`, or a non-finite volume is rejected and the
  /// clusterer is left untouched.
  Status RestoreState(std::map<ClusterId, Cluster> clusters,
                      ClusterId next_cluster_id, Timestamp last_update_time);

 private:
  using Feature = ArrivalRateFeature::Feature;

  /// Similarity between a template feature and a center, restricted to the
  /// positions the template has history for (Section 5.1's new-template
  /// comparison rule). Full-vector similarity when covered_from == 0.
  double Similarity(const Feature& feature, const Vector& center) const;

  double CenterSimilarity(const Vector& a, const Vector& b) const;

  /// Finds the most similar cluster center to `feature` with similarity
  /// > rho, excluding `exclude` (-1 = none). Returns -1 if none qualify.
  ClusterId FindBestCluster(const Feature& feature, ClusterId exclude) const;

  void RecomputeCenter(Cluster& cluster);
  ClusterId NewCluster(TemplateId member, const Feature& feature);

  Options options_;
  ArrivalRateFeature feature_;
  std::map<ClusterId, Cluster> clusters_;
  std::unordered_map<TemplateId, ClusterId> assignment_;
  std::unordered_map<TemplateId, Feature> features_;  ///< current pass features
  ClusterId next_cluster_id_ = 1;
  Timestamp last_update_time_ = 0;
  size_t last_update_moves_ = 0;

  // Instrument handles (owned by the registry; see DESIGN.md §10).
  Counter* updates_total_ = nullptr;
  Counter* clusters_created_total_ = nullptr;
  Counter* clusters_merged_total_ = nullptr;
  Counter* templates_moved_total_ = nullptr;
  Gauge* clusters_gauge_ = nullptr;
  Gauge* last_update_moves_gauge_ = nullptr;
  Histogram* update_seconds_ = nullptr;
};

}  // namespace qb5000
