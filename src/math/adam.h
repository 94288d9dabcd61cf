#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qb5000 {

/// Adam optimizer over a flat parameter vector. The neural models keep all
/// weights in one contiguous buffer so a single optimizer instance drives
/// training.
class AdamOptimizer {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double gradient_clip = 5.0;  ///< max L2 norm of the full gradient; 0 = off
  };

  explicit AdamOptimizer(size_t num_params) : AdamOptimizer(num_params, Options()) {}
  AdamOptimizer(size_t num_params, Options options);

  /// Applies one update of `params` using `grads` (same length).
  void Step(std::vector<double>& params, std::vector<double>& grads);

  void Reset();

 private:
  Options options_;
  std::vector<double> m_;
  std::vector<double> v_;
  int64_t t_;
};

}  // namespace qb5000
