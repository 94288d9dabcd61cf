#include "forecaster/ensemble.h"

#include "forecaster/dataset.h"
#include "forecaster/kernel_regression.h"
#include "forecaster/linear.h"
#include "forecaster/neural.h"

namespace qb5000 {

EnsembleModel::EnsembleModel(const ModelOptions& options)
    : lr_(std::make_shared<LinearRegressionModel>(options)),
      rnn_(std::make_shared<RnnModel>(options)) {}

EnsembleModel::EnsembleModel(std::shared_ptr<ForecastModel> lr,
                             std::shared_ptr<ForecastModel> rnn)
    : lr_(std::move(lr)), rnn_(std::move(rnn)), prefitted_(true) {}

Status EnsembleModel::Fit(const Matrix& x, const Matrix& y) {
  if (prefitted_) return Status::Ok();
  Status st = lr_->Fit(x, y);
  if (!st.ok()) return st;
  return rnn_->Fit(x, y);
}

Result<Vector> EnsembleModel::Predict(const Vector& x) const {
  auto lr_pred = lr_->Predict(x);
  if (!lr_pred.ok()) return lr_pred.status();
  auto rnn_pred = rnn_->Predict(x);
  if (!rnn_pred.ok()) return rnn_pred.status();
  Vector out(lr_pred->size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = 0.5 * ((*lr_pred)[i] + (*rnn_pred)[i]);
  }
  return out;
}

HybridModel::HybridModel(const ModelOptions& options)
    : ensemble_(std::make_shared<EnsembleModel>(options)),
      kr_(std::make_shared<KernelRegressionModel>(options)),
      gamma_(kGamma) {}

HybridModel::HybridModel(std::shared_ptr<ForecastModel> ensemble,
                         std::shared_ptr<ForecastModel> kr, double gamma)
    : ensemble_(std::move(ensemble)), kr_(std::move(kr)), gamma_(gamma),
      prefitted_(true) {}

Status HybridModel::Fit(const Matrix& x, const Matrix& y) {
  if (prefitted_) return Status::Ok();
  Status st = ensemble_->Fit(x, y);
  if (!st.ok()) return st;
  return kr_->Fit(x, y);
}

Result<Vector> HybridModel::Predict(const Vector& x) const {
  return PredictWithKrInput(x, x);
}

Result<Vector> HybridModel::PredictWithKrInput(const Vector& ensemble_x,
                                               const Vector& kr_x) const {
  auto ens = ensemble_->Predict(ensemble_x);
  if (!ens.ok()) return ens.status();
  auto kr = kr_->Predict(kr_x);
  if (!kr.ok()) return kr.status();
  if (kr->size() != ens->size()) {
    return Status::Internal("hybrid component output sizes differ");
  }
  // The gamma rule compares predicted *volumes*, so convert out of log space.
  Vector ens_rates = ToArrivalRates(*ens);
  Vector kr_rates = ToArrivalRates(*kr);
  Vector out(ens->size());
  for (size_t i = 0; i < out.size(); ++i) {
    bool spike = kr_rates[i] > (1.0 + gamma_) * ens_rates[i];
    out[i] = spike ? (*kr)[i] : (*ens)[i];
  }
  return out;
}

}  // namespace qb5000
