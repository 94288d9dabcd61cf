#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace qb5000 {

/// Bounded lock-free multi-producer queue (DESIGN.md §14) — the ingest seam
/// of the always-on service: producers hand off arrival chunks without ever
/// touching the controller state lock, and the background service thread
/// drains them at its own pace. The design is the classic bounded MPMC ring
/// (Vyukov): each cell carries a sequence number; a producer claims a cell
/// by CAS-advancing the tail, fills it, and publishes with a release store
/// of the cell sequence; the consumer observes the sequence with an acquire
/// load, takes the value, and recycles the cell for the next lap.
///
/// Guarantees and limits, deliberately minimal:
///   - TryPush is safe from any number of threads; TryPop from one consumer
///     at a time (the service thread — the implementation would allow MPMC,
///     but nothing in the codebase needs it and the single-consumer contract
///     keeps drain ordering trivial to reason about).
///   - Fixed capacity, rounded up to a power of two. A full ring rejects the
///     push (caller applies backpressure); nothing blocks, nothing allocates
///     after construction.
///   - FIFO per producer; the interleaving across producers is whatever the
///     CAS race produced, the same contract concurrent synchronous
///     IngestBatch callers get from the state lock.
///
/// std::atomic is banned outside src/common/ (tools/qb_lint.py raw-atomic);
/// this header is the reviewed primitive that the rest of the codebase uses
/// instead of hand-rolled fences.
template <typename T>
class MpscRingQueue {
 public:
  /// `min_capacity` is rounded up to the next power of two (>= 2). The ring
  /// allocates once, here, and never again.
  explicit MpscRingQueue(size_t min_capacity) : mask_(0) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpscRingQueue(const MpscRingQueue&) = delete;
  MpscRingQueue& operator=(const MpscRingQueue&) = delete;

  /// Multi-producer enqueue. False ⇒ the ring is full and the value is left
  /// untouched in `value`; the caller decides whether to retry, shed, or
  /// surface backpressure.
  bool TryPush(T&& value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      uint64_t seq = cell.sequence.load(std::memory_order_acquire);
      int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        // Cell is free this lap; race other producers for it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS refreshed `pos`; retry with the new tail.
      } else if (diff < 0) {
        return false;  // full: the cell still holds last lap's value
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer dequeue. False ⇒ empty (or the next cell's producer has
  /// claimed but not yet published — indistinguishable, and both mean "come
  /// back later").
  bool TryPop(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      return false;
    }
    *out = std::move(cell.value);
    cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Racy size estimate for the depth gauge — exact only when quiescent.
  size_t ApproxSize() const {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<uint64_t> sequence{0};
    T value{};
  };

  // Head and tail live on separate cache lines so producers hammering the
  // tail do not invalidate the consumer's head line on every push.
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) size_t mask_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace qb5000
