#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/thread_annotations.h"

namespace qb5000 {

/// Annotated mutex wrappers (DESIGN.md §12).
///
/// Every lock in the library is one of these types, for two reasons:
///
///  1. **Compile-time discipline.** The types carry Clang Thread Safety
///     Analysis capability attributes, so `QB_GUARDED_BY(mu_)` fields and
///     `QB_REQUIRES(mu_)` helpers are checked by the compiler under
///     `-Wthread-safety` (see common/thread_annotations.h). Raw
///     `std::mutex` / `std::shared_mutex` outside this file are banned by
///     tools/qb_lint.py (`raw-mutex`).
///
///  2. **Runtime lock ordering.** Each mutex is registered with a level in
///     the documented lock hierarchy (`lock_level::` below). In Debug
///     builds every acquisition checks, per thread, that levels are
///     strictly increasing; acquiring out of order (or re-acquiring a held
///     mutex) aborts through the QB_CHECK reporting path naming both locks.
///     Release builds compile the checker out entirely — the wrappers are
///     a zero-cost veneer over std::mutex / std::shared_mutex there.

/// The lock hierarchy. A thread may only acquire a mutex whose level is
/// strictly greater than every lock it already holds, so any cross-thread
/// acquisition cycle would require someone to acquire downward — which the
/// Debug checker turns into an immediate abort instead of a rare deadlock.
///
/// Current order (outermost first — see DESIGN.md §12 for the rationale):
///   controller state (100) -> thread pool (200s) -> observability (300s).
/// Leave gaps when adding levels; unrelated leaf locks (tests, tools) use
/// kLeaf.
namespace lock_level {
/// QueryBot5000::state_mu_ — the controller's pipeline-state lock. Held
/// across maintenance/training, so everything those paths touch (the pool,
/// metrics, tracing) must sit above it.
inline constexpr int kControllerState = 100;
/// The process-wide pool registry lock (SetThreadCount/GlobalThreadPool).
inline constexpr int kThreadPoolGlobal = 200;
/// ThreadPool::mu_ — the work queue. Acquired by ParallelFor under the
/// controller lock (training) and never held while a task body runs.
inline constexpr int kThreadPoolQueue = 210;
/// MetricsRegistry::mu_ — registration/export; taken during checkpoint
/// serialization while the controller lock is held shared.
inline constexpr int kMetricsRegistry = 300;
/// Tracer::mu_ — span recording; spans end under the controller lock.
inline constexpr int kTracerRing = 310;
/// Innermost: locks that never nest around anything (tests, ad-hoc tools).
inline constexpr int kLeaf = 1000;
}  // namespace lock_level

namespace mutex_internal {

#ifndef NDEBUG
/// Debug lock-order checker (mutex.cc). Acquisition checks the new level
/// against every lock the calling thread holds *before* blocking, so an
/// ordering violation reports instead of deadlocking.
void OnAcquire(const void* mu, int level, const char* name);
void OnRelease(const void* mu, const char* name);
#endif

inline void NoteAcquire([[maybe_unused]] const void* mu,
                        [[maybe_unused]] int level,
                        [[maybe_unused]] const char* name) {
#ifndef NDEBUG
  OnAcquire(mu, level, name);
#endif
}

inline void NoteRelease([[maybe_unused]] const void* mu,
                        [[maybe_unused]] const char* name) {
#ifndef NDEBUG
  OnRelease(mu, name);
#endif
}

}  // namespace mutex_internal

/// Exclusive mutex. Constructed with its hierarchy level and a stable name
/// (string literal) used in lock-order violation reports.
class QB_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex(int level, const char* name)
      : level_(level), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QB_ACQUIRE() {
    mutex_internal::NoteAcquire(this, level_, name_);
    mu_.lock();
  }

  void Unlock() QB_RELEASE() {
    mutex_internal::NoteRelease(this, name_);
    mu_.unlock();
  }

  int level() const { return level_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const int level_;
  const char* const name_;
};

/// Reader/writer mutex with the same level/name registration. Shared
/// acquisitions obey the same ordering rule as exclusive ones: per-thread
/// levels must strictly increase regardless of mode.
class QB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(int level, const char* name) : level_(level), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() QB_ACQUIRE() {
    mutex_internal::NoteAcquire(this, level_, name_);
    mu_.lock();
  }

  void Unlock() QB_RELEASE() {
    mutex_internal::NoteRelease(this, name_);
    mu_.unlock();
  }

  void ReaderLock() QB_ACQUIRE_SHARED() {
    mutex_internal::NoteAcquire(this, level_, name_);
    mu_.lock_shared();
  }

  void ReaderUnlock() QB_RELEASE_SHARED() {
    mutex_internal::NoteRelease(this, name_);
    mu_.unlock_shared();
  }

  /// Bounded-wait shared acquisition for deadline-bounded readers
  /// (DESIGN.md §13): yield-spins on the native try-lock until it succeeds
  /// or `timeout_seconds` of wall time elapses. Returns whether the lock
  /// was acquired; the Debug order checker records the hold only on
  /// success (a failed try acquires nothing). Spinning (vs. a native timed
  /// lock) keeps std::shared_mutex — std::shared_timed_mutex trades fast
  /// uncontended paths for a capability unused everywhere else — and the
  /// yield means a writer mid-critical-section still gets the core.
  bool ReaderTryLockFor(double timeout_seconds)
      QB_TRY_ACQUIRE_SHARED(true) {
    if (mu_.try_lock_shared()) {
      mutex_internal::NoteAcquire(this, level_, name_);
      return true;
    }
    if (timeout_seconds <= 0.0) return false;
    auto give_up =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    do {
      std::this_thread::yield();
      if (mu_.try_lock_shared()) {
        mutex_internal::NoteAcquire(this, level_, name_);
        return true;
      }
    } while (std::chrono::steady_clock::now() < give_up);
    return false;
  }

  int level() const { return level_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int level_;
  const char* const name_;
};

/// Condition variable bound to qb5000::Mutex. Wait() requires the mutex
/// held; the wait releases and reacquires the *same* mutex, so the Debug
/// checker's held-lock record is intentionally left in place across the
/// wait (ordering relative to other locks is unchanged on wakeup).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) QB_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's Lock()
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// RAII exclusive lock on a Mutex.
class QB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) QB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() QB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII exclusive lock on a SharedMutex.
class QB_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) QB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() QB_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock on a SharedMutex.
class QB_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) QB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderLock() QB_RELEASE() { mu_->ReaderUnlock(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock with a bounded wait: tries for `timeout_seconds`, then
/// gives up. `held()` reports the outcome; the destructor releases only on
/// a successful acquisition. Like the Maybe guards below, it is annotated
/// as if it always acquires — the Abseil MutexLockMaybe contract — because
/// the analysis has no conditional-capability vocabulary; callers on the
/// !held() branch must confine themselves to state the capability does not
/// actually guard (the degraded-rung path reads only its own snapshot).
class QB_SCOPED_CAPABILITY TimedReaderLock {
 public:
  TimedReaderLock(SharedMutex* mu, double timeout_seconds)
      QB_ACQUIRE_SHARED(mu)
      : mu_(mu), held_(mu->ReaderTryLockFor(timeout_seconds)) {}
  ~TimedReaderLock() QB_RELEASE() {
    if (held_) mu_->ReaderUnlock();
  }

  /// Whether the shared lock was actually acquired.
  bool held() const { return held_; }

  TimedReaderLock(const TimedReaderLock&) = delete;
  TimedReaderLock& operator=(const TimedReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
  const bool held_;
};

/// Like WriterLock, but `mu == nullptr` locks nothing — for call protocols
/// where a standalone component may run without an owning controller lock
/// (PreProcessor::IngestBatch). Annotated as if it always acquires, the
/// same contract Abseil's MutexLockMaybe uses: the analysis checks callers
/// against the annotation and nullptr callers simply pass no capability.
class QB_SCOPED_CAPABILITY WriterLockMaybe {
 public:
  explicit WriterLockMaybe(SharedMutex* mu) QB_ACQUIRE(mu) : mu_(mu) {
    if (mu_ != nullptr) mu_->Lock();
  }
  ~WriterLockMaybe() QB_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }

  WriterLockMaybe(const WriterLockMaybe&) = delete;
  WriterLockMaybe& operator=(const WriterLockMaybe&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Shared counterpart of WriterLockMaybe.
class QB_SCOPED_CAPABILITY ReaderLockMaybe {
 public:
  explicit ReaderLockMaybe(SharedMutex* mu) QB_ACQUIRE_SHARED(mu) : mu_(mu) {
    if (mu_ != nullptr) mu_->ReaderLock();
  }
  ~ReaderLockMaybe() QB_RELEASE() {
    if (mu_ != nullptr) mu_->ReaderUnlock();
  }

  ReaderLockMaybe(const ReaderLockMaybe&) = delete;
  ReaderLockMaybe& operator=(const ReaderLockMaybe&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace qb5000
