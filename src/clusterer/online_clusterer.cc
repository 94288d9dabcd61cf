#include "clusterer/online_clusterer.h"

#include <algorithm>
#include <cmath>

#include "common/finite.h"

#include "math/stats.h"

namespace qb5000 {
namespace {

/// Cosine similarity over positions [from, end); 0 if either restricted
/// vector is all zeros.
double MaskedCosine(const Vector& a, const Vector& b, size_t from) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = from; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

double MaskedL2Similarity(const Vector& a, const Vector& b, size_t from) {
  double sum = 0.0;
  for (size_t i = from; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return 1.0 / (1.0 + std::sqrt(sum));
}

}  // namespace

OnlineClusterer::OnlineClusterer(Options options)
    : options_(options), feature_(options.feature) {
  MetricsRegistry& m = options_.metrics != nullptr ? *options_.metrics
                                                   : MetricsRegistry::Global();
  updates_total_ = m.GetCounter("clusterer.updates_total");
  clusters_created_total_ = m.GetCounter("clusterer.clusters_created_total");
  clusters_merged_total_ = m.GetCounter("clusterer.clusters_merged_total");
  templates_moved_total_ = m.GetCounter("clusterer.templates_moved_total");
  clusters_gauge_ = m.GetGauge("clusterer.clusters");
  last_update_moves_gauge_ = m.GetGauge("clusterer.last_update_moves");
  update_seconds_ = m.GetHistogram("clusterer.update_seconds");
}

double OnlineClusterer::Similarity(const Feature& feature,
                                   const Vector& center) const {
  if (feature.covered_from >= feature.values.size()) return 0.0;
  if (options_.feature_mode == FeatureMode::kArrivalRate) {
    return MaskedCosine(feature.values, center, feature.covered_from);
  }
  // Logical features: map L2 distance into (0, 1] so the same rho threshold
  // semantics apply (identical features -> 1).
  return MaskedL2Similarity(feature.values, center, feature.covered_from);
}

double OnlineClusterer::CenterSimilarity(const Vector& a, const Vector& b) const {
  if (options_.feature_mode == FeatureMode::kArrivalRate) {
    return CosineSimilarity(a, b);
  }
  return 1.0 / (1.0 + std::sqrt(SquaredL2Distance(a, b)));
}

ClusterId OnlineClusterer::FindBestCluster(const Feature& feature,
                                           ClusterId exclude) const {
  if (clusters_.empty()) return -1;
  if (feature.covered_from >= feature.values.size()) return -1;
  bool is_zero = options_.feature_mode == FeatureMode::kArrivalRate &&
                 Norm(feature.values) == 0.0;
  if (is_zero) return -1;  // cosine similarity with everything is 0 < rho

  // Exact scan: every center, the real (coverage-masked) similarity, the
  // strict rho bar. Ties keep the lowest cluster id.
  ClusterId best = -1;
  double best_sim = options_.rho;
  for (const auto& [id, cluster] : clusters_) {
    if (id == exclude) continue;
    double sim = Similarity(feature, cluster.center);
    if (sim > best_sim) {
      best_sim = sim;
      best = id;
    }
  }
  return best;
}

void OnlineClusterer::RecomputeCenter(Cluster& cluster) {
  if (cluster.members.empty()) return;
  auto first = features_.find(*cluster.members.begin());
  if (first == features_.end()) return;
  Vector center(first->second.values.size(), 0.0);
  size_t counted = 0;
  for (TemplateId member : cluster.members) {
    auto it = features_.find(member);
    if (it == features_.end()) continue;
    for (size_t i = 0; i < center.size(); ++i) center[i] += it->second.values[i];
    ++counted;
  }
  if (counted > 0) {
    for (double& c : center) c /= static_cast<double>(counted);
  }
  cluster.center = std::move(center);
}

ClusterId OnlineClusterer::NewCluster(TemplateId member, const Feature& feature) {
  clusters_created_total_->Add();
  ClusterId id = next_cluster_id_++;
  Cluster cluster;
  cluster.id = id;
  cluster.center = feature.values;
  cluster.members.insert(member);
  clusters_.emplace(id, std::move(cluster));
  assignment_[member] = id;
  return id;
}

void OnlineClusterer::Update(const PreProcessor& pre, Timestamp now) {
  ScopedTimer update_timer(update_seconds_);
  updates_total_->Add();
  last_update_moves_ = 0;

  // Extract this pass's features (one shared sample grid) and volumes.
  // One scratch series serves every extraction and volume window — with
  // compressed histories this loop would otherwise materialize (and free) a
  // dense series per template per pass.
  feature_.Resample(now);
  features_.clear();
  std::unordered_map<TemplateId, double> volumes;
  std::vector<TemplateId> ids = pre.TemplateIds();
  TimeSeries scratch;
  for (TemplateId id : ids) {
    const auto* info = pre.GetTemplate(id);
    if (info == nullptr) continue;
    if (options_.feature_mode == FeatureMode::kArrivalRate) {
      features_[id] = feature_.ExtractWithCoverage(info->history, &scratch);
    } else {
      Feature f;
      f.values = LogicalFeature::Extract(*info);
      f.covered_from = 0;
      features_[id] = std::move(f);
    }
    volumes[id] = info->history.RangeTotal(
        now - options_.volume_window_seconds, now, &scratch);
  }

  // Drop assignments for templates the Pre-Processor has evicted.
  for (auto it = assignment_.begin(); it != assignment_.end();) {
    if (features_.count(it->first) == 0) {
      auto cluster_it = clusters_.find(it->second);
      if (cluster_it != clusters_.end()) {
        cluster_it->second.members.erase(it->first);
        if (cluster_it->second.members.empty()) clusters_.erase(cluster_it);
      }
      it = assignment_.erase(it);
    } else {
      ++it;
    }
  }

  // Centers move to this pass's feature space before matching.
  for (auto& [id, cluster] : clusters_) {
    (void)id;
    RecomputeCenter(cluster);
  }

  // Step 1: place templates that have no cluster yet.
  for (TemplateId id : ids) {
    if (assignment_.count(id)) continue;
    const Feature& feature = features_[id];
    ClusterId target = FindBestCluster(feature, /*exclude=*/-1);
    if (target < 0) {
      NewCluster(id, feature);
    } else {
      Cluster& cluster = clusters_.at(target);
      cluster.members.insert(id);
      assignment_[id] = target;
      RecomputeCenter(cluster);
    }
    ++last_update_moves_;
  }

  // Step 2: re-check existing members against their cluster center; move
  // drifters. The check uses the leave-one-out center (the mean of the
  // *other* members) so a drifting template cannot anchor itself in a small
  // cluster. Changes are applied once (no recursive cascade), deferring
  // knock-on effects to the next update period as the paper does.
  for (TemplateId id : ids) {
    auto assigned = assignment_.find(id);
    if (assigned == assignment_.end()) continue;
    ClusterId current = assigned->second;
    Cluster& cluster = clusters_.at(current);
    size_t n = cluster.members.size();
    if (n == 1) continue;  // own center, trivially close
    const Feature& feature = features_[id];
    Vector loo_center(cluster.center.size());
    double scale = static_cast<double>(n) / static_cast<double>(n - 1);
    for (size_t i = 0; i < loo_center.size(); ++i) {
      loo_center[i] =
          scale * (cluster.center[i] - feature.values[i] / static_cast<double>(n));
    }
    if (Similarity(feature, loo_center) > options_.rho) continue;
    cluster.members.erase(id);
    RecomputeCenter(cluster);
    ClusterId target = FindBestCluster(feature, /*exclude=*/current);
    if (target < 0) {
      assignment_.erase(assigned);
      NewCluster(id, feature);
    } else {
      Cluster& next = clusters_.at(target);
      next.members.insert(id);
      assignment_[id] = target;
      RecomputeCenter(next);
    }
    ++last_update_moves_;
  }

  // Step 3: merge clusters whose centers are mutually similar. The larger
  // cluster keeps its id so day-over-day identity is stable.
  bool merged = true;
  while (merged) {
    merged = false;
    for (auto it_a = clusters_.begin(); it_a != clusters_.end() && !merged;
         ++it_a) {
      auto it_b = it_a;
      for (++it_b; it_b != clusters_.end(); ++it_b) {
        if (CenterSimilarity(it_a->second.center, it_b->second.center) <=
            options_.rho) {
          continue;
        }
        Cluster& keep = it_a->second.members.size() >= it_b->second.members.size()
                            ? it_a->second
                            : it_b->second;
        Cluster& absorb = (&keep == &it_a->second) ? it_b->second : it_a->second;
        for (TemplateId member : absorb.members) {
          keep.members.insert(member);
          assignment_[member] = keep.id;
        }
        ++last_update_moves_;
        clusters_merged_total_->Add();
        ClusterId dead = absorb.id;
        RecomputeCenter(keep);
        clusters_.erase(dead);
        merged = true;
        break;
      }
    }
  }

  // Refresh volumes.
  for (auto& [id, cluster] : clusters_) {
    (void)id;
    cluster.volume = 0.0;
    for (TemplateId member : cluster.members) {
      cluster.volume += volumes[member];
    }
  }
  last_update_time_ = now;
  templates_moved_total_->Add(last_update_moves_);
  clusters_gauge_->Set(static_cast<double>(clusters_.size()));
  last_update_moves_gauge_->Set(static_cast<double>(last_update_moves_));
}

bool OnlineClusterer::ShouldTrigger(const PreProcessor& pre) const {
  return pre.NewTemplateRatio(last_update_time_) >
         options_.new_template_trigger_ratio;
}

std::vector<ClusterId> OnlineClusterer::TopClustersByVolume(size_t k) const {
  std::vector<std::pair<double, ClusterId>> ranked;
  ranked.reserve(clusters_.size());
  for (const auto& [id, cluster] : clusters_) {
    ranked.emplace_back(cluster.volume, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<ClusterId> top;
  for (size_t i = 0; i < ranked.size() && i < k; ++i) top.push_back(ranked[i].second);
  return top;
}

double OnlineClusterer::TotalVolume() const {
  double total = 0.0;
  for (const auto& [id, cluster] : clusters_) {
    (void)id;
    total += cluster.volume;
  }
  return total;
}

Status OnlineClusterer::RestoreState(std::map<ClusterId, Cluster> clusters,
                                     ClusterId next_cluster_id,
                                     Timestamp last_update_time) {
  std::unordered_map<TemplateId, ClusterId> assignment;
  for (const auto& [id, cluster] : clusters) {
    if (id <= 0 || id >= next_cluster_id) {
      return Status::InvalidArgument("cluster id out of range");
    }
    if (cluster.id != id) {
      return Status::InvalidArgument("cluster id mismatch");
    }
    if (cluster.members.empty()) {
      return Status::InvalidArgument("restored cluster has no members");
    }
    if (!IsFinite(cluster.volume) || cluster.volume < 0.0) {
      return Status::InvalidArgument("bad cluster volume");
    }
    for (double c : cluster.center) {
      if (!IsFinite(c)) return Status::InvalidArgument("bad center value");
    }
    for (TemplateId member : cluster.members) {
      if (!assignment.emplace(member, id).second) {
        return Status::InvalidArgument("template assigned to two clusters");
      }
    }
  }
  clusters_ = std::move(clusters);
  assignment_ = std::move(assignment);
  features_.clear();
  next_cluster_id_ = next_cluster_id;
  last_update_time_ = last_update_time;
  last_update_moves_ = 0;
  clusters_gauge_->Set(static_cast<double>(clusters_.size()));
  return Status::Ok();
}

ClusterId OnlineClusterer::AssignmentOf(TemplateId id) const {
  auto it = assignment_.find(id);
  return it == assignment_.end() ? -1 : it->second;
}

Result<TimeSeries> OnlineClusterer::CenterSeries(const PreProcessor& pre,
                                                 ClusterId id,
                                                 int64_t interval_seconds,
                                                 Timestamp from,
                                                 Timestamp to) const {
  auto it = clusters_.find(id);
  if (it == clusters_.end()) return Status::NotFound("unknown cluster");
  const Cluster& cluster = it->second;
  if (cluster.members.empty()) return Status::FailedPrecondition("empty cluster");
  TimeSeries sum(AlignDown(from, interval_seconds), interval_seconds);
  TimeSeries scratch;
  bool first = true;
  size_t counted = 0;
  for (TemplateId member : cluster.members) {
    const auto* info = pre.GetTemplate(member);
    if (info == nullptr) continue;
    // First member fills `sum` directly; the rest go through one reused
    // scratch buffer. Same additions in the same order as the per-member
    // Series() materialization this replaces.
    TimeSeries* target = first ? &sum : &scratch;
    auto st = info->history.WindowInto(interval_seconds, from, to, target);
    if (!st.ok()) return st;
    if (first) {
      first = false;
    } else {
      st = sum.AddSeries(scratch);
      if (!st.ok()) return st;
    }
    ++counted;
  }
  if (counted == 0) return Status::FailedPrecondition("no member histories");
  sum.Scale(1.0 / static_cast<double>(counted));
  return sum;
}

}  // namespace qb5000
