#pragma once

#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "math/matrix.h"
#include "preprocessor/arrival_history.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {

/// Builds arrival-rate-history feature vectors (Section 5.1): a template's
/// feature is its arrival-rate values at a fixed set of randomly sampled
/// minute timestamps within a trailing window. Templates compared with the
/// same sampler instance therefore share sample positions, making cosine
/// similarity meaningful.
class ArrivalRateFeature {
 public:
  struct Options {
    size_t num_samples = 288;  ///< sampled time points (paper uses 10k/month)
    int64_t window_seconds = 30 * kSecondsPerDay;
    uint64_t seed = 17;
  };

  ArrivalRateFeature() : ArrivalRateFeature(Options()) {}
  explicit ArrivalRateFeature(Options options)
      : options_(options), rng_(options.seed) {
    Resample(0);
  }

  /// Draws a fresh set of sorted sample timestamps in [now - window, now).
  /// Call once per clustering pass so all templates are compared at the
  /// same positions.
  void Resample(Timestamp now);

  /// A feature vector plus the index of the first sample position the
  /// template actually has history for. New templates are compared to
  /// cluster centers only over [covered_from, end) — the paper's "compare
  /// its available timestamps with the corresponding subset" rule.
  struct Feature {
    Vector values;
    size_t covered_from = 0;  ///< == values.size() when history is empty
  };

  /// Extracts the feature vector for one template's history. `scratch`
  /// (optional) receives the materialized smoothing window, so extraction
  /// loops over many templates reuse one buffer instead of allocating a
  /// dense series per template. Bit-identical output either way.
  Vector Extract(const ArrivalHistory& history,
                 TimeSeries* scratch = nullptr) const;

  /// Extracts the feature with its coverage boundary.
  Feature ExtractWithCoverage(const ArrivalHistory& history,
                              TimeSeries* scratch = nullptr) const;

  const std::vector<Timestamp>& sample_times() const { return sample_times_; }
  size_t dimension() const { return options_.num_samples; }

 private:
  Options options_;
  Rng rng_;
  std::vector<Timestamp> sample_times_;
};

/// Builds logical feature vectors (Section 7.7's AUTO-LOGICAL baseline):
/// statement type, hashed table and column references, clause counts, and
/// aggregation counts. Compared with L2 distance.
class LogicalFeature {
 public:
  /// Number of hash buckets for table and column names each.
  static constexpr size_t kHashBuckets = 16;

  /// Feature layout: [4 type one-hot | 16 table buckets | 16 column buckets |
  /// joins, group-bys, having, order-bys, aggregations] = 41 dims.
  static constexpr size_t kDimension = 4 + 2 * kHashBuckets + 5;

  /// Extracts the logical feature from a template's canonical text.
  /// Unparseable (fallback) templates hash the whole text into the table
  /// buckets so they still receive a stable feature.
  static Vector Extract(const PreProcessor::TemplateInfo& info);
};

}  // namespace qb5000
