#include "forecaster/linear.h"

#include <algorithm>

#include "math/linalg.h"

namespace qb5000 {
namespace {

/// Appends a constant-1 bias column.
Matrix WithBias(const Matrix& x) {
  Matrix out(x.rows(), x.cols() + 1);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) out(i, j) = x(i, j);
    out(i, x.cols()) = 1.0;
  }
  return out;
}

Vector WithBias(const Vector& x) {
  Vector out = x;
  out.push_back(1.0);
  return out;
}

Vector ApplyWeights(const Matrix& weights, const Vector& x_with_bias) {
  Vector out(weights.cols(), 0.0);
  for (size_t j = 0; j < weights.cols(); ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < weights.rows(); ++i) {
      sum += weights(i, j) * x_with_bias[i];
    }
    out[j] = sum;
  }
  return out;
}

}  // namespace

Status LinearRegressionModel::Fit(const Matrix& x, const Matrix& y) {
  auto w = RidgeRegression(WithBias(x), y, options_.ridge_lambda);
  if (!w.ok()) return w.status();
  weights_ = std::move(*w);
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> LinearRegressionModel::Predict(const Vector& x) const {
  if (!fitted_) return Status::FailedPrecondition("LR model not fitted");
  if (x.size() + 1 != weights_.rows()) {
    return Status::InvalidArgument("LR input dimension mismatch");
  }
  return ApplyWeights(weights_, WithBias(x));
}

Status ArmaModel::Fit(const Matrix& x, const Matrix& y) {
  // AR part: identical to LR.
  auto ar = RidgeRegression(WithBias(x), y, options_.ridge_lambda);
  if (!ar.ok()) return ar.status();
  ar_weights_ = std::move(*ar);

  // In-sample residuals, in chronological order.
  size_t n = x.rows();
  size_t d = y.cols();
  std::vector<Vector> residuals(n);
  for (size_t i = 0; i < n; ++i) {
    Vector pred = ApplyWeights(ar_weights_, WithBias(x.Row(i)));
    Vector r(d);
    for (size_t j = 0; j < d; ++j) r[j] = y(i, j) - pred[j];
    residuals[i] = std::move(r);
  }

  // MA part: per-series regression of the residual at t on the previous
  // kMaOrder residuals of the same series.
  constexpr size_t kMaOrder = 8;
  size_t q = std::min(kMaOrder, n > 1 ? n - 1 : 0);
  ma_weights_ = Matrix(q, d);
  if (q > 0 && n > q) {
    for (size_t s = 0; s < d; ++s) {
      Matrix rx(n - q, q);
      Matrix ry(n - q, 1);
      for (size_t i = q; i < n; ++i) {
        for (size_t lag = 0; lag < q; ++lag) {
          rx(i - q, lag) = residuals[i - 1 - lag][s];
        }
        ry(i - q, 0) = residuals[i][s];
      }
      auto mw = RidgeRegression(rx, ry, options_.ridge_lambda);
      if (mw.ok()) {
        for (size_t lag = 0; lag < q; ++lag) ma_weights_(lag, s) = (*mw)(lag, 0);
      }
    }
  }

  // Keep the last q residuals as the prediction-time state.
  recent_residuals_.assign(residuals.end() - static_cast<long>(std::min(q, n)),
                           residuals.end());
  std::reverse(recent_residuals_.begin(), recent_residuals_.end());  // newest first
  fitted_ = true;
  return Status::Ok();
}

Result<Vector> ArmaModel::Predict(const Vector& x) const {
  if (!fitted_) return Status::FailedPrecondition("ARMA model not fitted");
  if (x.size() + 1 != ar_weights_.rows()) {
    return Status::InvalidArgument("ARMA input dimension mismatch");
  }
  Vector pred = ApplyWeights(ar_weights_, WithBias(x));
  for (size_t s = 0; s < pred.size(); ++s) {
    for (size_t lag = 0; lag < ma_weights_.rows() && lag < recent_residuals_.size();
         ++lag) {
      pred[s] += ma_weights_(lag, s) * recent_residuals_[lag][s];
    }
  }
  return pred;
}

}  // namespace qb5000
