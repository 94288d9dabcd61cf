#include "math/adam.h"

#include <cmath>
#include <limits>

#include "common/chaos.h"
#include "common/check.h"

namespace qb5000 {

namespace {

// Kingma & Ba's defaults: the moment decay rates and the denominator guard.
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

}  // namespace

AdamOptimizer::AdamOptimizer(size_t num_params, Options options)
    : options_(options), m_(num_params, 0.0), v_(num_params, 0.0), t_(0) {}

void AdamOptimizer::Step(std::vector<double>& params,
                         std::vector<double>& grads) {
  QB_CHECK_EQ(params.size(), m_.size());
  QB_CHECK_EQ(grads.size(), m_.size());
  // Chaos probe (DESIGN.md §13): a diverged backward pass hands the
  // optimizer a NaN gradient. Injected here — the one funnel every neural
  // fit's updates pass through — so the poison propagates into the moment
  // estimates and parameters exactly as a real divergence would, and the
  // Forecaster's health gate is what has to catch it.
  if (ChaosHarness::Global().PoisonGradient("adam.step") && !grads.empty()) {
    grads[0] = std::numeric_limits<double>::quiet_NaN();
  }
  if (options_.gradient_clip > 0.0) {
    double norm_sq = 0.0;
    for (double g : grads) norm_sq += g * g;
    double norm = std::sqrt(norm_sq);
    if (norm > options_.gradient_clip) {
      double scale = options_.gradient_clip / norm;
      for (double& g : grads) g *= scale;
    }
  }
  ++t_;
  double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t i = 0; i < params.size(); ++i) {
    m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grads[i];
    v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grads[i] * grads[i];
    double mhat = m_[i] / bc1;
    double vhat = v_[i] / bc2;
    params[i] -= options_.learning_rate * mhat / (std::sqrt(vhat) + kEpsilon);
  }
}

void AdamOptimizer::Reset() {
  std::fill(m_.begin(), m_.end(), 0.0);
  std::fill(v_.begin(), v_.end(), 0.0);
  t_ = 0;
}

}  // namespace qb5000
