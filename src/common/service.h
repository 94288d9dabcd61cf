#pragma once

#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutex.h"

namespace qb5000 {

/// Background service loop (DESIGN.md §14): owns one dedicated thread that
/// repeatedly invokes a *round* callback until stopped. The round returns
/// true when it did work (drained a queue chunk, ran maintenance, wrote a
/// checkpoint) and false when it found nothing to do; the loop spins through
/// work rounds back-to-back and parks on a condvar at the first idle round.
///
/// Contracts, all deliberately narrow:
///   - The round callback runs with no ServiceThread lock held, so it may
///     acquire anything the lock hierarchy allows. The ServiceThread's own
///     mutex is leaf-level and held only around the park/wake flags.
///   - Wake() is cheap and safe from any thread (producers call it after
///     enqueuing, with the queue's lock released). Lost-wakeup safety: the wake flag is latched
///     under the mutex, so a Wake() racing the loop's idle check is observed
///     either by the check or by the wait.
///   - Stop() drains before exiting: once the stop flag is set the loop
///     keeps running rounds until one reports idle, then joins. Shutdown
///     ordering is therefore "producers quiesce → Stop() → consumer state is
///     single-threaded again" — the owner must stop enqueuing first.
///   - WaitIdle() (the DrainForTest building block) forces at least one more
///     round and blocks until the loop parks with nothing left to do.
///
/// Start/Stop are owner-thread operations and not thread-safe against each
/// other; Wake() and WaitIdle() are safe from any thread once started.
class ServiceThread {
 public:
  /// A unit of background work. True ⇒ something was done and the loop
  /// should immediately try again; false ⇒ idle, park until woken.
  using RoundFn = std::function<bool()>;

  ServiceThread() = default;
  ~ServiceThread();

  ServiceThread(const ServiceThread&) = delete;
  ServiceThread& operator=(const ServiceThread&) = delete;

  /// Spawns the loop. Requires: not already running.
  void Start(RoundFn round);

  /// Sets the stop flag, lets the loop drain to idle, joins. Idempotent;
  /// a no-op if never started.
  void Stop();

  /// Nudges a parked loop to run another round. No-op while the loop is
  /// mid-round (it re-checks the flag before parking).
  void Wake();

  /// Blocks until the loop has run at least one more round after this call
  /// and parked idle. Returns immediately if not running.
  void WaitIdle();

  bool running() const;

 private:
  void Loop();

  mutable Mutex mu_{lock_level::kLeaf, "common.service"};
  CondVar cv_;
  RoundFn round_;  ///< set in Start() before the thread exists; const after
  bool stop_ QB_GUARDED_BY(mu_) = false;
  bool wake_ QB_GUARDED_BY(mu_) = false;
  bool running_ QB_GUARDED_BY(mu_) = false;
  uint64_t idle_epoch_ QB_GUARDED_BY(mu_) = 0;  ///< bumped at each park
  std::thread thread_;
};

}  // namespace qb5000
