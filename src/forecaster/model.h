#pragma once

#include <memory>
#include <string_view>

#include "common/status.h"
#include "math/matrix.h"

namespace qb5000 {

/// The model families evaluated in the paper (Table 3 plus the two
/// composites built from them, Section 6.1).
enum class ModelKind {
  kLr,        ///< linear auto-regression (closed form)
  kArma,      ///< autoregressive moving average
  kKr,        ///< kernel regression (Nadaraya-Watson)
  kFnn,       ///< feed-forward neural network
  kRnn,       ///< LSTM recurrent network
  kPsrnn,     ///< predictive-state RNN (moment-based initialization)
  kEnsemble,  ///< average of LR and RNN
  kHybrid,    ///< ENSEMBLE corrected by KR above the gamma threshold
};

/// Table 3's property matrix.
struct ModelTraits {
  bool linear = false;
  bool memory = false;
  bool kernel = false;
};

/// Hyperparameters shared across model constructors. The paper fixes one
/// setting across workloads and horizons (Section 7.2); these defaults
/// mirror that (LSTM: embedding 25, two layers of 20 cells).
struct ModelOptions {
  /// Number of past intervals in each input window.
  size_t input_window = 24;
  /// Number of jointly-predicted series (clusters). Input rows have
  /// input_window * num_series columns; outputs have num_series.
  size_t num_series = 1;

  // Linear / ARMA.
  double ridge_lambda = 1e-3;

  // Neural models.
  size_t embedding_dim = 25;
  size_t hidden_dim = 20;
  size_t num_layers = 2;
  size_t max_epochs = 60;
  size_t patience = 8;  ///< early-stop patience on validation loss
  double learning_rate = 5e-3;
  uint64_t seed = 1234;

  // Hybrid.
  /// Input window for HYBRID's KR component (Section 6.2 trains KR on the
  /// full history); 0 = same window as the other models.
  size_t kr_input_window = 0;
};

/// A trained arrival-rate forecasting model. Inputs/outputs are in
/// log1p-transformed space (the paper trains on logs, Section 7.2); the
/// ForecastDataset helpers do the transform.
///
/// Fit() rows must be in chronological order: memory-based models (ARMA)
/// exploit the ordering to reconstruct residual state.
class ForecastModel {
 public:
  virtual ~ForecastModel() = default;

  /// Trains on examples X (n x input_window*num_series) against targets
  /// Y (n x num_series).
  virtual Status Fit(const Matrix& x, const Matrix& y) = 0;

  /// Predicts the target vector for one input window.
  virtual Result<Vector> Predict(const Vector& x) const = 0;

  /// Health-gate hook (DESIGN.md §13): true iff every learned parameter is
  /// finite. A diverged fit (NaN/Inf anywhere in the learned state) fails
  /// this check and the Forecaster rolls back to its last-good models
  /// instead of deploying. The default covers models with no learned state;
  /// every concrete model overrides it over its own parameters.
  virtual bool ParametersFinite() const { return true; }

  virtual std::string_view name() const = 0;
  virtual ModelTraits traits() const = 0;
};

/// Constructs an untrained model of the given kind.
std::unique_ptr<ForecastModel> CreateModel(ModelKind kind,
                                           const ModelOptions& options);

/// Human-readable model name ("LR", "ENSEMBLE", ...).
std::string_view ModelKindName(ModelKind kind);

/// Traits for Table 3 without instantiating a model.
ModelTraits TraitsOf(ModelKind kind);

}  // namespace qb5000
