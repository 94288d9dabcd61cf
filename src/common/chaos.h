#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"

namespace qb5000 {

/// Deterministic runtime fault injection (DESIGN.md §13) — the in-process
/// sibling of FaultInjectingEnv (common/io.h), which covers only the
/// filesystem seam. Production code is instrumented with named *probe
/// sites*; tests arm a fault (kind, site, N-th probe) and the N-th matching
/// probe fires it. Replaying the same call sequence with the same armed
/// fault reproduces the same failure, which is what makes the chaos sweep
/// in tests/chaos_test.cc a regression test rather than a flake generator.
///
/// Fault taxonomy:
///   kNanGradient  the probing optimizer step receives a NaN gradient
///                 (diverged training); the health gate must catch the
///                 poisoned model and roll back.
///   kStall        the probing stage sleeps for the armed duration
///                 (stuck I/O, page-cache miss storm, noisy neighbor);
///                 deadline-bounded callers must degrade, not block. The
///                 `service.drain` site wedges the background queue drain:
///                 the queue must absorb producers and EnqueueBatch must
///                 shed with kOverloaded, never block.
///   kAllocFail    the probing stage fails as if an allocation was denied;
///                 callers must surface a Status, never crash.
///   kClockJump    the probed timestamp is shifted by the armed delta
///                 (NTP step, VM migration) — timestamps are virtual here,
///                 so this is how a clock step reaches production code
///                 through its real entry points.
///
/// Probes are free when nothing is armed: one relaxed atomic load. The
/// armed-state mutex is leaf-level, so probes are legal under any lock in
/// the hierarchy (notably the controller state lock during maintenance).
class ChaosHarness {
 public:
  enum class OpKind { kNanGradient, kStall, kAllocFail, kClockJump };

  /// The process-wide harness. Production hook sites probe this instance;
  /// tests arm it and Reset() in teardown.
  static ChaosHarness& Global();

  ChaosHarness() = default;
  ChaosHarness(const ChaosHarness&) = delete;
  ChaosHarness& operator=(const ChaosHarness&) = delete;

  /// Arms `kind` at `site` to fire on the `nth` (0-based) matching probe
  /// after this call. `param` carries the fault's magnitude: stall seconds
  /// for kStall, the timestamp delta (seconds) for kClockJump; unused
  /// otherwise. Each Arm() adds an independent one-shot fault; arming the
  /// same (kind, site) twice fires twice.
  void Arm(OpKind kind, std::string_view site, int64_t nth,
           double param = 0.0);

  /// Disarms every fault and zeroes all probe/fire counters.
  void Reset();

  /// Probe: true iff an armed kNanGradient fault fires at this site — the
  /// caller poisons its gradient buffer. (The harness cannot reach into the
  /// caller's buffers; the hook applies the fault so the poison lands in
  /// the real data path.)
  bool PoisonGradient(std::string_view site) {
    return Fire(OpKind::kNanGradient, site);
  }

  /// Probe: sleeps for the armed duration if a kStall fault fires. The
  /// sleep yields the CPU (plain sleep_for), so single-core hosts still
  /// make progress on other threads, and `stall_active()` is observable
  /// for the whole stall so tests can synchronize without timing guesses.
  void MaybeStall(std::string_view site);

  /// Probe: true iff an armed kAllocFail fault fires — the caller reports
  /// an allocation/resource failure through its normal Status path.
  bool FailAlloc(std::string_view site) {
    return Fire(OpKind::kAllocFail, site);
  }

  /// Probe: returns `now` shifted by the armed delta if a kClockJump fault
  /// fires at this site, else `now` unchanged.
  Timestamp MaybeJumpClock(std::string_view site, Timestamp now);

  /// True while some thread is inside an armed stall. Tests use this to
  /// start load exactly when the victim stage is wedged.
  bool stall_active() const {
    return stalls_active_.load(std::memory_order_acquire) > 0;
  }

  /// Faults fired since the last Reset().
  int64_t fires_total() const {
    return fires_total_.load(std::memory_order_relaxed);
  }

 private:
  struct ArmedFault {
    OpKind kind;
    std::string site;
    int64_t fire_at = 0;  ///< probe index (per fault) that fires it
    int64_t probes = 0;   ///< matching probes seen so far
    double param = 0.0;
    bool fired = false;
  };

  /// Counts a probe against every live matching fault; true iff this probe
  /// fires one (at most one — faults fire in Arm() order). `param` (if
  /// non-null) receives the fired fault's magnitude.
  bool Fire(OpKind kind, std::string_view site, double* param = nullptr);

  /// Fast-path gate: false ⇒ no fault armed anywhere, probes return
  /// immediately without touching the mutex.
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> fires_total_{0};
  std::atomic<int> stalls_active_{0};

  mutable Mutex mu_{lock_level::kLeaf, "chaos.armed"};
  std::vector<ArmedFault> faults_ QB_GUARDED_BY(mu_);
};

}  // namespace qb5000
