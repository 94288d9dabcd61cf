#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clusterer/online_clusterer.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "forecaster/model.h"
#include "preprocessor/preprocessor.h"

namespace qb5000 {

/// How a Forecast was served — the degradation ladder (DESIGN.md §13).
/// Budgeted calls walk down the ladder instead of blocking or failing:
/// each rung trades accuracy for a hard latency bound.
enum class ForecastRung {
  kFull = 0,        ///< the trained model stack (HYBRID/ENSEMBLE/...)
  kLinearOnly = 1,  ///< just the LR component — one closed-form mat-vec
  kFallback = 2,    ///< precomputed history-average snapshot (controller)
};

/// What a training round did when something went wrong — the runtime
/// sibling of checkpointing's RestoreReport (DESIGN.md §8): callers learn
/// whether they are serving fresh models, rolled-back last-good models, or
/// nothing.
struct RecoveryReport {
  /// The health gate rejected at least one freshly-fitted horizon
  /// (non-finite parameters or a non-finite in-sample MSE).
  bool health_check_failed = false;
  /// The previous (last-good) model set was kept serving; the staged
  /// models were discarded.
  bool rolled_back = false;
  /// There was no last-good set to keep — the forecaster is untrained.
  bool discarded = false;
  /// Horizons (seconds) whose staged model failed validation or fitting.
  std::vector<int64_t> failed_horizons;
  /// Human-readable cause for logs and test diagnostics.
  std::string detail;
};

/// The Forecaster (Section 6): trains one model per prediction horizon on
/// the arrival-rate series of the highest-volume clusters and answers
/// "how many queries will each cluster receive at now + horizon?".
///
/// One model jointly predicts all modeled clusters (the paper shares
/// information across clusters this way). The per-minute history is
/// aggregated to `interval_seconds` for training, and HYBRID's KR component
/// is trained on the full recorded history at one-hour intervals so it can
/// recognize long-period spikes.
///
/// Resilience (DESIGN.md §13): Train() stages the whole new model set and
/// commits it only after every horizon passes the health gate; a failed or
/// rejected round leaves the previous (last-good) models serving, recorded
/// in `forecaster.rollbacks_total` and the RecoveryReport. Forecast() takes
/// an optional Deadline and degrades to the linear-only rung when the
/// budget runs out mid-prediction.
class Forecaster {
 public:
  struct Options {
    /// Prediction interval (Section 6.2); one hour by default.
    int64_t interval_seconds = kSecondsPerHour;
    /// Number of intervals per input window ("the last day's arrival rate").
    size_t input_window = 24;
    /// Training data span; the paper uses up to three weeks.
    int64_t training_window_seconds = 21 * kSecondsPerDay;
    /// Model family to deploy.
    ModelKind kind = ModelKind::kHybrid;
    ModelOptions model;
    /// Registry receiving `forecaster.*` metrics; nullptr = the process
    /// global. QueryBot5000 overrides this with its per-instance registry.
    MetricsRegistry* metrics = nullptr;
  };

  Forecaster() : Forecaster(Options()) {}
  explicit Forecaster(Options options);

  /// Trains models for every horizon (seconds) over the given clusters'
  /// center series ending at `now`, then atomically swaps them in iff the
  /// whole set passes the health gate. On a gate rejection with a previous
  /// trained set, rolls back (keeps it) and returns Ok — the service is
  /// degraded-but-sane, which `report` / last_recovery() and the
  /// `forecaster.rollbacks_total` counter record. Returns an error only
  /// when nothing trainable results (fit error, or a rejected first round
  /// with no last-good set to keep — the forecaster stays untrained).
  Status Train(const PreProcessor& pre, const OnlineClusterer& clusterer,
               const std::vector<ClusterId>& clusters, Timestamp now,
               const std::vector<int64_t>& horizons_seconds,
               RecoveryReport* report = nullptr);

  /// Predicts each modeled cluster's arrival rate (queries per interval)
  /// for the interval at `now + horizon`. `now` may be later than the
  /// training time; the freshest history is used as input.
  ///
  /// `deadline` (nullptr = unbounded) bounds the call: once exceeded, the
  /// prediction degrades to the linear-only rung (one mat-vec over the
  /// already-gathered window) instead of running the RNN/KR components,
  /// and if even the input gather cannot complete in budget the call
  /// returns kDeadlineExceeded so the controller can serve its
  /// history-average fallback. `rung_used` (optional) reports the rung
  /// that actually produced the value.
  Result<Vector> Forecast(const PreProcessor& pre,
                          const OnlineClusterer& clusterer, Timestamp now,
                          int64_t horizon_seconds,
                          const Deadline* deadline = nullptr,
                          ForecastRung* rung_used = nullptr) const;

  const std::vector<ClusterId>& modeled_clusters() const { return clusters_; }
  std::vector<int64_t> horizons() const;
  bool trained() const { return !models_.empty(); }

  /// What the most recent Train() round did (rollback/discard accounting).
  const RecoveryReport& last_recovery() const { return last_recovery_; }

 private:
  struct HorizonModel {
    std::shared_ptr<ForecastModel> model;
    /// The LR component backing the linear-only rung: the model itself for
    /// linear kinds, the shared LR inside ENSEMBLE/HYBRID stacks, nullptr
    /// when the deployed kind has no linear component (KR, pure neural).
    std::shared_ptr<ForecastModel> linear;
    size_t horizon_steps = 0;
    size_t kr_window = 0;  ///< nonzero when the model is HYBRID
    /// In-sample log-space MSE over the newest training rows; < 0 when it
    /// could not be evaluated. The health gate rejects a non-finite value.
    double train_mse = -1.0;
  };

  /// Aligned center series for `clusters` over [from, to). Takes the
  /// cluster list explicitly (not clusters_) so Train can gather for a
  /// staged set without mutating committed state.
  Result<std::vector<TimeSeries>> GatherSeries(
      const PreProcessor& pre, const OnlineClusterer& clusterer,
      const std::vector<ClusterId>& clusters, int64_t interval,
      Timestamp from, Timestamp to) const;

  /// Fits the model (or HYBRID stack) for one horizon into `out` from the
  /// gathered training-window `series` and, for HYBRID, the hourly
  /// full-history `kr_history` (nullptr: no KR stage). Touches only const
  /// state plus `out`, so Train can fit horizons concurrently.
  Status FitHorizon(const std::vector<TimeSeries>& series,
                    const std::vector<TimeSeries>* kr_history,
                    int64_t horizon, HorizonModel* out) const;

  /// Health gate for one staged horizon: a model with finite parameters
  /// and a finite (or unevaluated) in-sample MSE.
  static bool HorizonHealthy(const HorizonModel& staged);

  /// Registers (or looks up) a per-horizon instrument, e.g.
  /// HorizonHistogram("train_seconds", 3600) -> forecaster.train_seconds.h3600.
  /// Safe from ParallelFor workers: the registry handles concurrent lookups.
  Histogram* HorizonHistogram(const char* what, int64_t horizon) const;
  Gauge* HorizonGauge(const char* what, int64_t horizon) const;

  Options options_;
  MetricsRegistry* registry_ = nullptr;  ///< resolved from Options::metrics
  Counter* trainings_total_ = nullptr;   ///< Train() calls
  Counter* predictions_total_ = nullptr; ///< Forecast() calls
  Counter* rollbacks_total_ = nullptr;   ///< rounds that kept last-good models
  Counter* health_failures_total_ = nullptr;  ///< per failing staged horizon
  std::vector<ClusterId> clusters_;
  std::map<int64_t, HorizonModel> models_;  ///< keyed by horizon seconds
  /// Per-cluster cap on log-space predictions: the training-history peak
  /// plus headroom. Guards against models extrapolating to absurd volumes
  /// when live inputs fall outside the training distribution (e.g. during
  /// a workload shift, Appendix D).
  Vector prediction_cap_log_;
  RecoveryReport last_recovery_;
};

}  // namespace qb5000
