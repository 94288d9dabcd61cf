#pragma once

#include <cstdint>
#include <random>

namespace qb5000 {

/// Deterministic random source used throughout the library. Every component
/// that needs randomness takes an explicit Rng (or seed) so experiments are
/// reproducible run-to-run.
///
/// Thread-affinity contract: an Rng instance is NOT thread-safe — the
/// mt19937_64 engine mutates 2.5 KB of state on every draw, and concurrent
/// draws are a data race (TSan flags it). Confine each instance to a single
/// thread. Code that fans out across threads must give each worker its own
/// stream: construct one Rng per worker from a deterministic per-worker seed
/// (seed + worker index).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Poisson draw; mean must be non-negative. Returns 0 for mean <= 0.
  int64_t Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Bernoulli draw with probability p of returning true.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Access to the underlying engine for std::shuffle and distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace qb5000
