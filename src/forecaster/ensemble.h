#pragma once

#include <memory>

#include "forecaster/model.h"

namespace qb5000 {

/// ENSEMBLE (Section 6.1): the unweighted average of LR and RNN predictions.
/// The paper found equal averaging beats history-weighted averaging (which
/// overfits), so no weighting knob is exposed.
class EnsembleModel : public ForecastModel {
 public:
  explicit EnsembleModel(const ModelOptions& options);

  /// Constructs from already-trained components (lets benches share one
  /// trained LR/RNN across ENSEMBLE and HYBRID instead of retraining).
  EnsembleModel(std::shared_ptr<ForecastModel> lr,
                std::shared_ptr<ForecastModel> rnn);

  Status Fit(const Matrix& x, const Matrix& y) override;
  Result<Vector> Predict(const Vector& x) const override;
  std::string_view name() const override { return "ENSEMBLE"; }
  ModelTraits traits() const override { return {false, true, false}; }
  bool ParametersFinite() const override {
    return (lr_ == nullptr || lr_->ParametersFinite()) &&
           (rnn_ == nullptr || rnn_->ParametersFinite());
  }

  /// The LR component — the degradation ladder's linear-only rung predicts
  /// through it when the budget cannot afford the RNN/KR components.
  const std::shared_ptr<ForecastModel>& lr() const { return lr_; }

 private:
  std::shared_ptr<ForecastModel> lr_;
  std::shared_ptr<ForecastModel> rnn_;
  bool prefitted_ = false;
};

/// HYBRID (Section 6.1): uses ENSEMBLE's prediction unless KR forecasts a
/// volume more than (1 + gamma) times higher — the spike-detection rule that
/// lets QB5000 anticipate rare events like annual deadlines. Components may
/// be trained on different datasets (the paper trains KR on the full history
/// at one-hour intervals); use the prefitted constructor for that.
class HybridModel : public ForecastModel {
 public:
  /// The paper's gamma (Section 6.1): KR overrides ENSEMBLE when
  /// kr > (1 + gamma) * ens. Figure 16 sweeps it through the prefitted
  /// constructor; everything else uses this value.
  static constexpr double kGamma = 1.5;

  explicit HybridModel(const ModelOptions& options);

  HybridModel(std::shared_ptr<ForecastModel> ensemble,
              std::shared_ptr<ForecastModel> kr, double gamma);

  Status Fit(const Matrix& x, const Matrix& y) override;
  Result<Vector> Predict(const Vector& x) const override;

  /// Predict with a dedicated KR input (when KR was trained with a different
  /// window than the ensemble, per Section 6.2).
  Result<Vector> PredictWithKrInput(const Vector& ensemble_x,
                                    const Vector& kr_x) const;

  std::string_view name() const override { return "HYBRID"; }
  ModelTraits traits() const override { return {false, true, true}; }
  bool ParametersFinite() const override {
    return (ensemble_ == nullptr || ensemble_->ParametersFinite()) &&
           (kr_ == nullptr || kr_->ParametersFinite());
  }

 private:
  std::shared_ptr<ForecastModel> ensemble_;
  std::shared_ptr<ForecastModel> kr_;
  double gamma_;
  bool prefitted_ = false;
};

}  // namespace qb5000
