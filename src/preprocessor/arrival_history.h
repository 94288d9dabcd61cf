#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/clock.h"
#include "common/compressed_series.h"
#include "common/status.h"
#include "common/timeseries.h"

namespace qb5000 {

/// Per-template arrival-rate record keeper over the paper's two-rung
/// aggregation ladder, each rung a compressed (run-length / narrow-packed)
/// series:
///
///   recent_   minute resolution — the finest interval QB5000 predicts at
///   archive_  hourly resolution — records older than the compaction
///             horizon, mirroring the paper's "aggregate stale arrival
///             rate records into larger intervals" behavior (Section 4)
///
/// The rungs are private: consumers read through Series / WindowInto /
/// RangeTotal, and snapshots through EncodeTo / DecodeFrom.
class ArrivalHistory {
 public:
  ArrivalHistory()
      : recent_(0, kSecondsPerMinute), archive_(0, kSecondsPerHour) {}

  /// Records `count` arrivals at `ts`.
  void Record(Timestamp ts, double count);

  /// Moves minute-resolution buckets strictly before `before` into the
  /// hourly archive and drops them from the recent series.
  void Compact(Timestamp before);

  /// Materializes the series over [from, to) at `interval_seconds`
  /// (a multiple of one minute). Archived ranges contribute their hourly
  /// totals spread uniformly across the finer buckets — the fine-grained
  /// shape of stale data is intentionally lost, as in the paper.
  Result<TimeSeries> Series(int64_t interval_seconds, Timestamp from,
                            Timestamp to) const;

  /// Series() into a caller-provided buffer: `out` is Reset() and filled
  /// in place, so hot extraction loops reuse one allocation instead of
  /// materializing a fresh dense series per template. Produces bit-for-bit
  /// the same buckets as Series().
  Status WindowInto(int64_t interval_seconds, Timestamp from, Timestamp to,
                    TimeSeries* out) const;

  /// Total arrivals over the minute-resolution window [from, to) —
  /// exactly `Series(60, from, to)->Total()`, computed through `scratch`
  /// (or an internal buffer when null) to avoid a per-call allocation.
  double RangeTotal(Timestamp from, Timestamp to, TimeSeries* scratch) const;

  /// Total arrivals ever recorded.
  double Total() const { return total_; }

  /// Timestamp of the most recent recorded arrival (0 if none).
  Timestamp last_arrival() const { return last_arrival_; }

  /// First covered timestamp across both rungs (0 if empty).
  Timestamp FirstTime() const;

  /// Memory footprint in bytes: object size plus the real heap capacity
  /// of both rungs.
  size_t StorageBytes() const;

  // --- serialization --------------------------------------------------------

  /// Appends the full state (scalars + two rungs, exact run structure) to
  /// `*out` — the history payload of snapshot v3 and v4.
  void EncodeTo(std::string* out) const;

  /// Parses what EncodeTo() wrote. A v2 payload is this plus a third,
  /// daily rung, which Snapshot::Load reads on its own.
  static Result<ArrivalHistory> DecodeFrom(std::istream& in);

  /// Builds a history from the dense v1 snapshot representation,
  /// preserving coverage exactly (explicit zero buckets included).
  static Result<ArrivalHistory> FromDense(const TimeSeries& recent,
                                          const TimeSeries& archive,
                                          double total,
                                          Timestamp last_arrival);

 private:
  CompressedSeries recent_;   ///< minute resolution
  CompressedSeries archive_;  ///< hourly, strictly before recent_.start()
  double total_ = 0.0;
  Timestamp last_arrival_ = 0;
};

}  // namespace qb5000
