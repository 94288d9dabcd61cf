#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "common/status.h"

namespace qb5000 {

/// A sparse, run-length-chunked arrival-rate series — the compressed
/// counterpart of TimeSeries used by ArrivalHistory's aggregation rungs.
///
/// Buckets are stored as sorted, non-overlapping *runs* of consecutive
/// buckets. Long stretches of zero buckets between bursts are not stored at
/// all (they become gaps between runs); short zero stretches are stored
/// explicitly so a burst does not fragment into many tiny runs. Within a
/// run, counts that are exactly representable as small non-negative
/// integers (the overwhelmingly common case for arrival counts) are packed
/// as uint16; a run is promoted to doubles only when a bucket is genuinely
/// fractional, negative, or overflows the narrow range.
///
/// The contract that makes the compressed history bit-identical to the
/// dense one: `start()`, `end()`, `empty()`, `ValueAt()`, and ascending
/// iteration over stored buckets (`ForEach*`) observe exactly the same
/// values a dense TimeSeries fed the same `Add` calls would produce —
/// uint16 <-> double conversion is exact, narrow accumulation is checked in
/// double precision first, and gap buckets read as 0.0 which is exact.
///
/// The run layout itself is *canonical*: runs are the connected components
/// of the recorded buckets where two recorded buckets at most kMaxGapFill
/// apart are connected (the gap between them is zero-filled). Add maintains
/// this incrementally — joining, prepending to, or bridging neighboring
/// runs — so the structure (and thus the encoding and the wide/narrow flag,
/// for the non-negative counts this pipeline records) depends only on which
/// buckets were recorded with which totals, never on arrival order. Batched
/// and per-query ingest therefore serialize byte-identically.
class CompressedSeries {
 public:
  CompressedSeries() : interval_seconds_(kSecondsPerMinute) {}
  /// Precondition: interval_seconds > 0. Like TimeSeries, `start` is a
  /// hint that holds while the series is empty; the first Add resets it to
  /// that record's aligned bucket.
  CompressedSeries(Timestamp start, int64_t interval_seconds)
      : start_(start), end_(start), interval_seconds_(interval_seconds) {
    QB_CHECK_GT(interval_seconds_, 0);
  }

  /// Start of the covered range; the constructed hint while empty.
  Timestamp start() const { return start_; }
  /// End of the covered range (exclusive); equals start() while empty.
  Timestamp end() const { return end_; }
  int64_t interval_seconds() const { return interval_seconds_; }
  bool empty() const { return runs_.empty(); }

  /// Bytes of heap storage held (vector capacities, narrow packing
  /// included at its real width).
  size_t HeapBytes() const;

  /// Adds `count` arrivals at time `ts`. Mirrors TimeSeries::Add: grows the
  /// covered range forwards or backwards as needed, accumulating into the
  /// bucket containing `ts`.
  void Add(Timestamp ts, double count);

  /// Value of the bucket containing `ts`; 0 outside the covered range and
  /// in gaps.
  double ValueAt(Timestamp ts) const;

  /// Sum of all stored bucket values (gap buckets are zero).
  double Total() const;

  /// Visits every stored bucket as (bucket_start_timestamp, value) in
  /// ascending time order. Gap buckets (implicit zeros) are not visited —
  /// callers that mirror the dense iteration must treat them as 0, which
  /// every consumer in this codebase already does by skipping zeros.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Run& run : runs_) {
      size_t n = run.size();
      for (size_t i = 0; i < n; ++i) {
        fn(run.start + static_cast<int64_t>(i) * interval_seconds_, run.At(i));
      }
    }
  }

  /// ForEach restricted to buckets with start timestamp in [from, to).
  template <typename Fn>
  void ForEachInRange(Timestamp from, Timestamp to, Fn&& fn) const {
    // Only the run before the first one starting after `from` can reach
    // back into the range; every earlier run ends at or before its start.
    size_t first = FirstRunAfter(from);
    if (first > 0) --first;
    for (size_t r = first; r < runs_.size(); ++r) {
      const Run& run = runs_[r];
      Timestamp run_end =
          run.start + static_cast<int64_t>(run.size()) * interval_seconds_;
      if (run_end <= from) continue;
      if (run.start >= to) break;
      size_t i = 0;
      if (run.start < from) {
        i = static_cast<size_t>((from - run.start + interval_seconds_ - 1) /
                                interval_seconds_);
      }
      size_t n = run.size();
      for (; i < n; ++i) {
        Timestamp t = run.start + static_cast<int64_t>(i) * interval_seconds_;
        if (t >= to) break;
        fn(t, run.At(i));
      }
    }
  }

  /// Adds every stored bucket whose start lies in
  /// [from, from + out.size() * interval) into out[(t - from) / interval],
  /// in ascending time order: bit for bit what ForEachInRange with a
  /// per-bucket `+=` produces. Each output bucket's sum is held in a
  /// register across the stored buckets of a run, and placing them costs
  /// a few divisions per run, none per bucket. Explicit zeros are added
  /// like any value: a sum that starts at +0.0 is unchanged by a zero of
  /// either sign. Precondition: `interval` is a positive multiple of
  /// interval_seconds().
  void AddInto(Timestamp from, int64_t interval, std::span<double> out) const;

  /// Appends the text serialization to `*out`. It preserves the run
  /// structure exactly, and doubles print as `%.17g`, so Write -> Read ->
  /// Write is byte-identical.
  void Write(std::string* out) const;
  static Result<CompressedSeries> Read(std::istream& in);

 private:
  /// One maximal stretch of stored buckets. `narrow` holds the values
  /// while every bucket is an exact small integer; `values` takes over
  /// (and `narrow` is released) once the run is promoted to wide.
  struct Run {
    Timestamp start = 0;
    bool wide = false;
    std::vector<uint16_t> narrow;
    std::vector<double> values;

    size_t size() const { return wide ? values.size() : narrow.size(); }
    double At(size_t i) const {
      return wide ? values[i] : static_cast<double>(narrow[i]);
    }
  };

  /// True when `v` is exactly representable as a uint16 count.
  static bool IsNarrow(double v) {
    return v >= 0.0 && v <= 65535.0 &&
           v == static_cast<double>(static_cast<uint16_t>(v));
  }

  /// Converts a narrow run to wide in place (exact: uint16 -> double).
  static void Promote(Run& run);
  /// Appends `zeros` zero buckets then the bucket holding `v` to `run`.
  static void AppendBucket(Run& run, size_t zeros, double v);
  static Run MakeRun(Timestamp start, double v);
  /// Index of the first run that starts after `t` (runs_.size() if none).
  size_t FirstRunAfter(Timestamp t) const;

  /// Zero gap length (in buckets) up to which a run is extended with
  /// explicit zeros instead of split. 16 narrow zero buckets cost 32 bytes
  /// — about the fixed overhead of a fresh Run.
  static constexpr size_t kMaxGapFill = 16;

  Timestamp start_ = 0;
  Timestamp end_ = 0;
  int64_t interval_seconds_;
  std::vector<Run> runs_;  ///< sorted by start, non-overlapping
};

}  // namespace qb5000
