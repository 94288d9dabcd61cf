#include "forecaster/kernel_regression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "math/stats.h"

namespace qb5000 {

Status KernelRegressionModel::Fit(const Matrix& x, const Matrix& y) {
  if (x.rows() == 0 || x.rows() != y.rows()) {
    return Status::InvalidArgument("KR: bad training shapes");
  }
  train_x_ = x;
  train_y_ = y;
  // Distance-quantile heuristic over a bounded subsample of row pairs.
  // A low quantile keeps the kernel local: only windows genuinely close
  // to the query influence its prediction, which is what lets KR isolate
  // spike precursors from the mass of "normal" windows (Appendix B).
  size_t n = x.rows();
  size_t stride = std::max<size_t>(1, n / 128);
  std::vector<double> distances;
  for (size_t i = 0; i < n; i += stride) {
    for (size_t j = i + stride; j < n; j += stride) {
      double d = std::sqrt(SquaredL2Distance(x.Row(i), x.Row(j)));
      if (d > 1e-9) distances.push_back(d);
    }
  }
  double q = Quantile(distances, 0.1);
  if (q <= 1e-9) q = Quantile(distances, 0.5);
  bandwidth_ = q > 1e-9 ? 0.5 * q : 1.0;
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> KernelRegressionModel::Predict(const Vector& x) const {
  if (!fitted_) return Status::FailedPrecondition("KR model not fitted");
  if (x.size() != train_x_.cols()) {
    return Status::InvalidArgument("KR input dimension mismatch");
  }
  size_t n = train_x_.rows();
  size_t d = train_y_.cols();
  double denom = 2.0 * bandwidth_ * bandwidth_;
  const auto& xd = train_x_.data();

  // Training rows are scanned in fixed chunks of kChunk (a partitioning
  // that never depends on thread count), each chunk producing its own
  // partial sums. Reducing the partials in chunk index order makes the
  // result bit-identical at any concurrency; within a chunk the scan is
  // the sequential loop.
  constexpr size_t kChunk = 256;
  struct Partial {
    Vector numerator;
    double weight_sum = 0.0;
    double best_distance = std::numeric_limits<double>::infinity();
    size_t nearest = 0;
  };
  size_t num_chunks = (n + kChunk - 1) / kChunk;
  std::vector<Partial> partials(num_chunks);
  ParallelFor(0, n, kChunk, [&](size_t lo, size_t hi) {
    Partial& part = partials[lo / kChunk];
    part.numerator.assign(d, 0.0);
    for (size_t i = lo; i < hi; ++i) {
      double dist_sq = 0.0;
      const double* row = &xd[i * train_x_.cols()];
      for (size_t j = 0; j < x.size(); ++j) {
        double diff = row[j] - x[j];
        dist_sq += diff * diff;
      }
      if (dist_sq < part.best_distance) {
        part.best_distance = dist_sq;
        part.nearest = i;
      }
      double w = std::exp(-dist_sq / denom);
      part.weight_sum += w;
      for (size_t j = 0; j < d; ++j) part.numerator[j] += w * train_y_(i, j);
    }
  });
  Vector numerator(d, 0.0);
  double weight_sum = 0.0;
  double best_distance = std::numeric_limits<double>::infinity();
  size_t nearest = 0;
  for (const Partial& part : partials) {
    for (size_t j = 0; j < d; ++j) numerator[j] += part.numerator[j];
    weight_sum += part.weight_sum;
    // Strict < with chunks visited in index order keeps the lowest-index
    // nearest row on ties, matching the sequential scan.
    if (part.best_distance < best_distance) {
      best_distance = part.best_distance;
      nearest = part.nearest;
    }
  }
  if (weight_sum < 1e-300) {
    // Query far outside the data: fall back to the nearest neighbor, the
    // natural limit of the estimator as all weights underflow.
    return train_y_.Row(nearest);
  }
  for (size_t j = 0; j < d; ++j) numerator[j] /= weight_sum;
  return numerator;
}

}  // namespace qb5000
