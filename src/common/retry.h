#pragma once

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "common/status.h"

namespace qb5000 {

/// Retry-with-backoff helpers for EnqueueBatch's callers, whose batches the
/// full service queue sheds with kOverloaded (DESIGN.md §13). The backoff
/// schedule is a pure function of the options and the attempt index — no
/// RNG, no clock reads — and the sleep itself is injectable, so tests assert
/// the exact schedule without waiting real time and production callers get
/// a sane default.
struct RetryOptions {
  /// Total tries including the first; <= 1 means no retries.
  int max_attempts = 5;
  /// Backoff before the first retry.
  double initial_backoff_seconds = 0.010;
  /// Geometric growth per subsequent retry.
  double backoff_multiplier = 2.0;
  /// Schedule ceiling.
  double max_backoff_seconds = 1.0;
  /// Sleep seam. nullptr = really sleep (this_thread::sleep_for). Tests
  /// inject a recorder; a virtual-time harness injects its own clock.
  std::function<void(double seconds)> sleep;
  /// Which failures are worth retrying. nullptr = retry only kOverloaded
  /// (the backpressure verdict: "try again later" by definition). Terminal
  /// errors (parse failures, invalid arguments) return immediately.
  std::function<bool(const Status&)> retryable;
};

/// The deterministic backoff (seconds) slept after failed attempt `attempt`
/// (0-based): initial * multiplier^attempt, capped at max_backoff_seconds.
inline double BackoffForAttempt(const RetryOptions& options, int attempt) {
  double backoff = options.initial_backoff_seconds;
  for (int i = 0; i < attempt; ++i) {
    backoff *= options.backoff_multiplier;
    if (backoff >= options.max_backoff_seconds) {
      return options.max_backoff_seconds;
    }
  }
  return backoff < options.max_backoff_seconds ? backoff
                                               : options.max_backoff_seconds;
}

namespace retry_internal {

inline bool DefaultRetryable(const Status& status) {
  return status.code() == StatusCode::kOverloaded;
}

inline void DefaultSleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace retry_internal

/// Runs `op` up to max_attempts times, sleeping the backoff schedule
/// between retryable failures. Returns the first success, the first
/// non-retryable failure, or the last failure once attempts are exhausted
/// (with no trailing sleep).
inline Status RetryWithBackoff(const std::function<Status()>& op,
                               const RetryOptions& options = RetryOptions()) {
  auto retryable = [&options](const Status& s) {
    return options.retryable ? options.retryable(s)
                             : retry_internal::DefaultRetryable(s);
  };
  auto sleep = [&options](double seconds) {
    if (options.sleep) {
      options.sleep(seconds);
    } else {
      retry_internal::DefaultSleep(seconds);
    }
  };
  int attempts = options.max_attempts > 1 ? options.max_attempts : 1;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    last = op();
    if (last.ok() || !retryable(last)) return last;
    if (attempt + 1 < attempts) sleep(BackoffForAttempt(options, attempt));
  }
  return last;
}

/// Result<T> counterpart: retries on retryable error statuses, returns the
/// first ok() Result or the terminal error.
template <typename T>
Result<T> RetryWithBackoff(const std::function<Result<T>()>& op,
                           const RetryOptions& options = RetryOptions()) {
  auto retryable = [&options](const Status& s) {
    return options.retryable ? options.retryable(s)
                             : retry_internal::DefaultRetryable(s);
  };
  auto sleep = [&options](double seconds) {
    if (options.sleep) {
      options.sleep(seconds);
    } else {
      retry_internal::DefaultSleep(seconds);
    }
  };
  int attempts = options.max_attempts > 1 ? options.max_attempts : 1;
  Result<T> last = Status::Internal("retry: op never ran");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    last = op();
    if (last.ok() || !retryable(last.status())) return last;
    if (attempt + 1 < attempts) sleep(BackoffForAttempt(options, attempt));
  }
  return last;
}

}  // namespace qb5000
