#include "forecaster/forecaster.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/chaos.h"
#include "common/finite.h"
#include "common/thread_pool.h"
#include "forecaster/dataset.h"
#include "forecaster/ensemble.h"
#include "forecaster/kernel_regression.h"
#include "forecaster/linear.h"
#include "forecaster/neural.h"

namespace qb5000 {
namespace {

/// Newest dataset rows evaluated for the per-horizon train_mse gauge.
constexpr size_t kMseSampleRows = 64;

/// MSE comparison floor: previous-round MSEs below this are treated as
/// this, so a near-perfect previous fit does not make every successor
/// "worse by more than the multiple" on noise alone.
constexpr double kMseFloor = 1e-6;

}  // namespace

Forecaster::Forecaster(Options options) : options_(options) {
  registry_ = options_.metrics != nullptr ? options_.metrics
                                          : &MetricsRegistry::Global();
  trainings_total_ = registry_->GetCounter("forecaster.trainings_total");
  predictions_total_ = registry_->GetCounter("forecaster.predictions_total");
  rollbacks_total_ = registry_->GetCounter("forecaster.rollbacks_total");
  health_failures_total_ =
      registry_->GetCounter("forecaster.health_failures_total");
}

Histogram* Forecaster::HorizonHistogram(const char* what,
                                        int64_t horizon) const {
  return registry_->GetHistogram("forecaster." + std::string(what) + ".h" +
                                 std::to_string(horizon));
}

Gauge* Forecaster::HorizonGauge(const char* what, int64_t horizon) const {
  return registry_->GetGauge("forecaster." + std::string(what) + ".h" +
                             std::to_string(horizon));
}

Result<std::vector<TimeSeries>> Forecaster::GatherSeries(
    const PreProcessor& pre, const OnlineClusterer& clusterer,
    const std::vector<ClusterId>& clusters, int64_t interval, Timestamp from,
    Timestamp to) const {
  std::vector<TimeSeries> series;
  series.reserve(clusters.size());
  for (ClusterId id : clusters) {
    auto center = clusterer.CenterSeries(pre, id, interval, from, to);
    if (!center.ok()) return center.status();
    series.push_back(std::move(*center));
  }
  return series;
}

bool Forecaster::HorizonHealthy(const HorizonModel& staged, int64_t horizon,
                                bool same_clusters) const {
  if (staged.model == nullptr) return false;
  if (!staged.model->ParametersFinite()) return false;
  // An evaluated MSE must at least be a number; NaN here means the model
  // emits non-finite predictions even on its own training data.
  if (staged.train_mse >= 0.0 && !IsFinite(staged.train_mse)) return false;
  if (staged.train_mse < 0.0 && staged.train_mse != -1.0) return false;
  // Regression check against the previous round — only meaningful when the
  // modeled cluster set is unchanged (after a workload shift the series
  // themselves change and a bigger in-sample error is expected, not sick).
  if (same_clusters && staged.train_mse >= 0.0) {
    auto prev = models_.find(horizon);
    if (prev != models_.end() && prev->second.train_mse >= 0.0 &&
        IsFinite(prev->second.train_mse)) {
      double bound = options_.health_mse_multiple *
                     std::max(prev->second.train_mse, kMseFloor);
      if (staged.train_mse > bound) return false;
    }
  }
  return true;
}

Status Forecaster::Train(const PreProcessor& pre,
                         const OnlineClusterer& clusterer,
                         const std::vector<ClusterId>& clusters, Timestamp now,
                         const std::vector<int64_t>& horizons_seconds,
                         RecoveryReport* report) {
  if (clusters.empty()) return Status::InvalidArgument("no clusters to model");
  trainings_total_->Add();
  last_recovery_ = RecoveryReport();
  // Everything below stages into locals and commits at the very end: any
  // early return — gather failure, fit error, health-gate rejection —
  // leaves the previously committed (last-good) models serving untouched.
  auto fail_round = [&](Status st,
                        std::vector<int64_t> failed) -> Status {
    last_recovery_.failed_horizons = std::move(failed);
    last_recovery_.detail = st.ToString();
    if (trained()) {
      last_recovery_.rolled_back = true;
      rollbacks_total_->Add();
    } else {
      last_recovery_.discarded = true;
    }
    if (report != nullptr) *report = last_recovery_;
    return st;
  };

  if (ChaosHarness::Global().FailAlloc("forecaster.train")) {
    return fail_round(
        Status::Internal("chaos: training allocation denied"), {});
  }

  for (int64_t horizon : horizons_seconds) {
    if (horizon <= 0 || horizon % options_.interval_seconds != 0) {
      return Status::InvalidArgument(
          "horizon must be a positive multiple of the interval");
    }
  }

  Timestamp train_from = now - options_.training_window_seconds;
  auto series = GatherSeries(pre, clusterer, clusters,
                             options_.interval_seconds, train_from, now);
  if (!series.ok()) return fail_round(series.status(), {});

  // Cap future predictions at 3x each cluster's training-history peak.
  Vector staged_cap_log(clusters.size(), 0.0);
  for (size_t s = 0; s < series->size(); ++s) {
    double peak = 0.0;
    for (double v : (*series)[s].values()) peak = std::max(peak, v);
    staged_cap_log[s] = std::log1p(3.0 * std::max(peak, 1.0));
  }

  // HYBRID's KR stage trains on the full recorded history at one-hour
  // intervals (Section 6.2) so long-period spikes stay in reach of the
  // kernel. Every horizon reads the same series, so gather it once; without
  // it (a failed gather) each horizon falls back to the ensemble.
  std::optional<std::vector<TimeSeries>> kr_history;
  if (options_.kind == ModelKind::kHybrid) {
    Timestamp first = now;
    for (ClusterId id : clusters) {
      const auto& cluster = clusterer.clusters().at(id);
      for (TemplateId member : cluster.members) {
        const auto* info = pre.GetTemplate(member);
        if (info != nullptr && info->history.FirstTime() < first) {
          first = info->history.FirstTime();
        }
      }
    }
    auto full =
        GatherSeries(pre, clusterer, clusters, kSecondsPerHour, first, now);
    if (full.ok()) kr_history = std::move(*full);
  }

  // Fit all horizons concurrently: each FitHorizon call reads only const
  // state and writes its own slot. Statuses are inspected in horizon order,
  // so the reported error is independent of scheduling; the models_ map is
  // assembled sequentially afterwards.
  std::vector<HorizonModel> fitted(horizons_seconds.size());
  std::vector<Status> statuses(horizons_seconds.size(), Status::Ok());
  ParallelFor(0, horizons_seconds.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      statuses[i] =
          FitHorizon(*series, kr_history ? &*kr_history : nullptr,
                     horizons_seconds[i], &fitted[i]);
    }
  });
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      return fail_round(statuses[i], {horizons_seconds[i]});
    }
  }

  // The health gate: every staged horizon must be sane before any of them
  // deploys — a half-swapped model set would mix cluster orderings.
  if (options_.health_gate) {
    bool same_clusters = clusters == clusters_;
    std::vector<int64_t> failed;
    for (size_t i = 0; i < fitted.size(); ++i) {
      if (!HorizonHealthy(fitted[i], horizons_seconds[i], same_clusters)) {
        failed.push_back(horizons_seconds[i]);
        health_failures_total_->Add();
      }
    }
    if (!failed.empty()) {
      bool had_last_good = trained();
      Status verdict = fail_round(
          Status::Internal("health gate rejected staged models"),
          std::move(failed));
      last_recovery_.health_check_failed = true;
      if (report != nullptr) *report = last_recovery_;
      // With a last-good set still serving this round is a degraded
      // success — reporting an error would make the controller retry
      // training on every maintenance pass (a retrain storm) for a
      // condition the rollback already contained.
      if (had_last_good) return Status::Ok();
      return verdict;
    }
  }

  // Commit: the staged set becomes the last-good set.
  clusters_ = clusters;
  prediction_cap_log_ = std::move(staged_cap_log);
  models_.clear();
  for (size_t i = 0; i < horizons_seconds.size(); ++i) {
    models_[horizons_seconds[i]] = std::move(fitted[i]);
  }
  for (const auto& [horizon, hm] : models_) {
    if (hm.train_mse >= 0.0) {
      HorizonGauge("train_mse", horizon)->Set(hm.train_mse);
    }
  }
  if (report != nullptr) *report = last_recovery_;
  return Status::Ok();
}

Status Forecaster::FitHorizon(const std::vector<TimeSeries>& series,
                              const std::vector<TimeSeries>* kr_history,
                              int64_t horizon, HorizonModel* out) const {
  ScopedTimer train_timer(HorizonHistogram("train_seconds", horizon));
  HorizonModel hm;
  hm.horizon_steps = static_cast<size_t>(horizon / options_.interval_seconds);

  ModelOptions model_options = options_.model;
  model_options.input_window = options_.input_window;
  model_options.num_series = series.size();

  auto dataset = BuildDataset(series, options_.input_window, hm.horizon_steps);
  if (!dataset.ok()) return dataset.status();

  // Evaluated for the train_mse gauge; the ensemble stands in for HYBRID
  // (its KR component takes a differently-shaped input).
  const ForecastModel* eval_model = nullptr;

  if (options_.kind == ModelKind::kHybrid) {
    auto lr = std::make_shared<LinearRegressionModel>(model_options);
    auto rnn = std::make_shared<RnnModel>(model_options);
    {
      ScopedTimer t(HorizonHistogram("train_seconds.lr", horizon));
      Status st = lr->Fit(dataset->x, dataset->y);
      if (!st.ok()) return st;
    }
    {
      ScopedTimer t(HorizonHistogram("train_seconds.rnn", horizon));
      Status st = rnn->Fit(dataset->x, dataset->y);
      if (!st.ok()) return st;
    }
    auto ensemble = std::make_shared<EnsembleModel>(lr, rnn);
    hm.linear = lr;

    size_t kr_window = model_options.kr_input_window > 0
                           ? model_options.kr_input_window
                           : options_.input_window;
    size_t kr_steps =
        std::max<size_t>(1, static_cast<size_t>(horizon / kSecondsPerHour));
    std::shared_ptr<KernelRegressionModel> kr;
    if (kr_history != nullptr) {
      ModelOptions kr_options = model_options;
      kr_options.input_window = kr_window;
      auto kr_data = BuildDataset(*kr_history, kr_window, kr_steps);
      if (kr_data.ok()) {
        ScopedTimer t(HorizonHistogram("train_seconds.kr", horizon));
        kr = std::make_shared<KernelRegressionModel>(kr_options);
        Status kr_st = kr->Fit(kr_data->x, kr_data->y);
        if (!kr_st.ok()) kr.reset();
      }
    }
    if (kr != nullptr) {
      hm.model =
          std::make_shared<HybridModel>(ensemble, kr, model_options.gamma);
      hm.kr_window = kr_window;
    } else {
      hm.model = ensemble;  // not enough history for KR: fall back
    }
    eval_model = ensemble.get();
  } else {
    std::shared_ptr<ForecastModel> model =
        CreateModel(options_.kind, model_options);
    if (model == nullptr) return Status::InvalidArgument("unknown model kind");
    Status st = model->Fit(dataset->x, dataset->y);
    if (!st.ok()) return st;
    hm.model = std::move(model);
    eval_model = hm.model.get();
    // The linear-only rung: linear kinds serve themselves; an ENSEMBLE
    // exposes its LR component.
    if (hm.model->traits().linear) {
      hm.linear = hm.model;
    } else if (auto* ens = dynamic_cast<EnsembleModel*>(hm.model.get())) {
      hm.linear = ens->lr();
    }
  }

  // In-sample log-space MSE over the newest examples (<= 64 rows keeps the
  // cost a rounding error next to the fit itself) — the live analogue of
  // the paper's Figure 8 training error, and the health gate's regression
  // signal across training rounds.
  if (eval_model != nullptr && dataset->x.rows() > 0) {
    size_t rows = dataset->x.rows();
    size_t start = rows > kMseSampleRows ? rows - kMseSampleRows : 0;
    double se = 0.0;
    size_t terms = 0;
    for (size_t r = start; r < rows; ++r) {
      auto pred = eval_model->Predict(dataset->x.Row(r));
      if (!pred.ok()) break;
      Vector truth = dataset->y.Row(r);
      for (size_t c = 0; c < pred->size() && c < truth.size(); ++c) {
        double d = (*pred)[c] - truth[c];
        se += d * d;
        ++terms;
      }
    }
    if (terms > 0) {
      hm.train_mse = se / static_cast<double>(terms);
    }
  }
  *out = std::move(hm);
  return Status::Ok();
}

Result<Vector> Forecaster::Forecast(const PreProcessor& pre,
                                    const OnlineClusterer& clusterer,
                                    Timestamp now, int64_t horizon_seconds,
                                    const Deadline* deadline,
                                    ForecastRung* rung_used) const {
  auto it = models_.find(horizon_seconds);
  if (it == models_.end()) {
    return Status::NotFound("no model trained for this horizon");
  }
  predictions_total_->Add();
  ScopedTimer predict_timer(HorizonHistogram("predict_seconds", horizon_seconds));
  const HorizonModel& hm = it->second;
  if (rung_used != nullptr) *rung_used = ForecastRung::kFull;

  ChaosHarness::Global().MaybeStall("forecast.gather");
  Timestamp from =
      now - static_cast<int64_t>(options_.input_window) * options_.interval_seconds;
  auto series = GatherSeries(pre, clusterer, clusters_,
                             options_.interval_seconds, from, now);
  if (!series.ok()) return series.status();
  auto window = LatestWindow(*series, options_.input_window);
  if (!window.ok()) return window.status();

  // Ladder checkpoint: the input window is in hand. If the budget is gone,
  // one closed-form LR mat-vec is all we can still afford; without an LR
  // component the controller's history-average fallback takes over.
  bool degrade = DeadlineExceeded(deadline);

  Result<Vector> pred = Status::Internal("unset");
  auto* hybrid = dynamic_cast<HybridModel*>(hm.model.get());
  if (!degrade && hybrid != nullptr && hm.kr_window > 0) {
    ChaosHarness::Global().MaybeStall("forecast.kr");
    // The KR gather walks the full recorded history — the expensive part.
    // Re-check the budget right before paying for it.
    if (DeadlineExceeded(deadline)) {
      degrade = true;
    } else {
      Timestamp kr_from =
          now - static_cast<int64_t>(hm.kr_window) * kSecondsPerHour;
      auto kr_series = GatherSeries(pre, clusterer, clusters_,
                                    kSecondsPerHour, kr_from, now);
      if (!kr_series.ok()) return kr_series.status();
      auto kr_window = LatestWindow(*kr_series, hm.kr_window);
      if (!kr_window.ok()) return kr_window.status();
      pred = hybrid->PredictWithKrInput(*window, *kr_window);
    }
  } else if (!degrade) {
    pred = hm.model->Predict(*window);
  }
  if (degrade) {
    if (hm.linear == nullptr) {
      return Status::DeadlineExceeded(
          "forecast: budget spent and no linear rung for this model kind");
    }
    if (rung_used != nullptr) *rung_used = ForecastRung::kLinearOnly;
    pred = hm.linear->Predict(*window);
  }
  if (!pred.ok()) return pred.status();
  Vector capped = *pred;
  for (size_t s = 0; s < capped.size() && s < prediction_cap_log_.size(); ++s) {
    if (!IsFinite(capped[s])) capped[s] = 0.0;
    capped[s] = std::min(capped[s], prediction_cap_log_[s]);
  }
  return ToArrivalRates(capped);
}

std::vector<int64_t> Forecaster::horizons() const {
  std::vector<int64_t> out;
  out.reserve(models_.size());
  for (const auto& [h, m] : models_) {
    (void)m;
    out.push_back(h);
  }
  return out;
}

}  // namespace qb5000
