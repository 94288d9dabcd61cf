#include "forecaster/evaluation.h"

#include <algorithm>

#include "common/metrics.h"
#include "forecaster/dataset.h"
#include "forecaster/ensemble.h"
#include "forecaster/kernel_regression.h"
#include "forecaster/linear.h"
#include "forecaster/neural.h"
#include "math/stats.h"

namespace qb5000 {
namespace {

Matrix SubMatrix(const Matrix& m, size_t rows) {
  Matrix out(rows, m.cols());
  for (size_t i = 0; i < rows; ++i) out.SetRow(i, m.Row(i));
  return out;
}

}  // namespace

Result<EvaluationResult> EvaluateModel(ModelKind kind,
                                       const std::vector<TimeSeries>& series,
                                       size_t input_window, size_t horizon_steps,
                                       double train_fraction,
                                       const ModelOptions& base_options) {
  ModelOptions options = base_options;
  options.input_window = input_window;
  options.num_series = series.size();

  auto dataset = BuildDataset(series, input_window, horizon_steps);
  if (!dataset.ok()) return dataset.status();
  size_t n = dataset->x.rows();
  size_t train_n = static_cast<size_t>(static_cast<double>(n) * train_fraction);
  train_n = std::clamp<size_t>(train_n, 1, n - 1);
  if (n < 2) return Status::InvalidArgument("not enough examples to evaluate");

  Matrix train_x = SubMatrix(dataset->x, train_n);
  Matrix train_y = SubMatrix(dataset->y, train_n);

  EvaluationResult result;
  Stopwatch train_timer;

  // HYBRID needs its KR component trained with a (possibly longer) window.
  std::shared_ptr<KernelRegressionModel> hybrid_kr;
  std::unique_ptr<ForecastModel> model;
  size_t kr_window = options.kr_input_window > 0 ? options.kr_input_window
                                                 : input_window;
  ForecastDataset kr_dataset;
  if (kind == ModelKind::kHybrid) {
    auto lr = std::make_shared<LinearRegressionModel>(options);
    auto rnn = std::make_shared<RnnModel>(options);
    Status st = lr->Fit(train_x, train_y);
    if (!st.ok()) return st;
    st = rnn->Fit(train_x, train_y);
    if (!st.ok()) return st;
    auto ensemble = std::make_shared<EnsembleModel>(lr, rnn);

    ModelOptions kr_options = options;
    kr_options.input_window = kr_window;
    hybrid_kr = std::make_shared<KernelRegressionModel>(kr_options);
    auto kr_data = BuildDataset(series, kr_window, horizon_steps);
    if (kr_data.ok()) {
      // Restrict KR training rows to targets inside the training range.
      size_t kr_n = kr_data->x.rows();
      size_t limit = train_n + input_window >= kr_window
                         ? std::min(kr_n, train_n + input_window - kr_window + 1)
                         : 0;
      if (limit >= 2) {
        Status st_kr = hybrid_kr->Fit(SubMatrix(kr_data->x, limit),
                                      SubMatrix(kr_data->y, limit));
        if (!st_kr.ok()) return st_kr;
        kr_dataset = std::move(*kr_data);
      } else {
        hybrid_kr.reset();
      }
    } else {
      hybrid_kr.reset();
    }
    if (hybrid_kr != nullptr) {
      model = std::make_unique<HybridModel>(ensemble, hybrid_kr,
                                             HybridModel::kGamma);
    } else {
      model.reset(new EnsembleModel(lr, rnn));
    }
  } else {
    model = CreateModel(kind, options);
    if (model == nullptr) return Status::InvalidArgument("unknown model kind");
    Status st = model->Fit(train_x, train_y);
    if (!st.ok()) return st;
  }
  result.train_seconds = train_timer.ElapsedSeconds();

  // Walk-forward over the test rows.
  Vector actual_flat, predicted_flat;
  auto* hybrid = dynamic_cast<HybridModel*>(model.get());
  for (size_t i = train_n; i < n; ++i) {
    Vector x = dataset->x.Row(i);
    Result<Vector> pred = Status::Internal("unset");
    if (hybrid != nullptr && hybrid_kr != nullptr) {
      // The KR row whose window ends where this example's window ends.
      int64_t kr_row = static_cast<int64_t>(i) + static_cast<int64_t>(input_window) -
                       static_cast<int64_t>(kr_window);
      if (kr_row >= 0 &&
          kr_row < static_cast<int64_t>(kr_dataset.x.rows())) {
        pred = hybrid->PredictWithKrInput(
            x, kr_dataset.x.Row(static_cast<size_t>(kr_row)));
      } else {
        pred = hybrid->Predict(x);
      }
    } else {
      pred = model->Predict(x);
    }
    if (!pred.ok()) return pred.status();
    Vector pred_rates = ToArrivalRates(*pred);
    Vector actual_rates = ToArrivalRates(dataset->y.Row(i));
    for (size_t j = 0; j < pred_rates.size(); ++j) {
      predicted_flat.push_back(pred_rates[j]);
      actual_flat.push_back(actual_rates[j]);
    }
    size_t target_index = i + input_window + horizon_steps - 1;
    result.times.push_back(series[0].TimeAt(target_index));
    result.predicted.push_back(std::move(pred_rates));
    result.actual.push_back(std::move(actual_rates));
  }
  result.log_mse = LogSpaceMse(actual_flat, predicted_flat);
  return result;
}

std::vector<double> SumAcrossSeries(const std::vector<Vector>& per_point) {
  std::vector<double> out;
  out.reserve(per_point.size());
  for (const auto& v : per_point) {
    double sum = 0.0;
    for (double x : v) sum += x;
    out.push_back(sum);
  }
  return out;
}

}  // namespace qb5000
