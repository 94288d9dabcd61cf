#pragma once

#include <vector>

#include "common/finite.h"
#include "forecaster/model.h"

namespace qb5000 {

/// Linear auto-regression (Section 6.1's LR): multi-output ridge regression
/// with a bias term, solved in closed form. The workhorse for short
/// prediction horizons.
class LinearRegressionModel : public ForecastModel {
 public:
  explicit LinearRegressionModel(const ModelOptions& options)
      : options_(options) {}

  Status Fit(const Matrix& x, const Matrix& y) override;
  Result<Vector> Predict(const Vector& x) const override;
  std::string_view name() const override { return "LR"; }
  ModelTraits traits() const override { return {true, false, false}; }
  bool ParametersFinite() const override {
    return AllFinite(weights_.data());
  }

  /// Learned weights ((input_dim + 1) x output_dim, last row = bias).
  const Matrix& weights() const { return weights_; }

 private:
  ModelOptions options_;
  Matrix weights_;
  bool fitted_ = false;
};

/// Autoregressive moving average (ARMA): an AR part fit like LR plus an MA
/// correction regressed on the AR model's lagged in-sample residuals. The
/// residual state is carried from the (chronologically ordered) training
/// rows, matching how ARMA uses all previous observations through its
/// residual memory.
class ArmaModel : public ForecastModel {
 public:
  explicit ArmaModel(const ModelOptions& options) : options_(options) {}

  Status Fit(const Matrix& x, const Matrix& y) override;
  Result<Vector> Predict(const Vector& x) const override;
  std::string_view name() const override { return "ARMA"; }
  ModelTraits traits() const override { return {true, true, false}; }
  bool ParametersFinite() const override {
    if (!AllFinite(ar_weights_.data()) || !AllFinite(ma_weights_.data())) {
      return false;
    }
    for (const Vector& r : recent_residuals_) {
      if (!AllFinite(r)) return false;
    }
    return true;
  }

 private:
  ModelOptions options_;
  Matrix ar_weights_;
  Matrix ma_weights_;  ///< (MA order x output_dim): per-lag residual weights
  std::vector<Vector> recent_residuals_;  ///< last MA-order training residuals
  bool fitted_ = false;
};

}  // namespace qb5000
