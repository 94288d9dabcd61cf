#include "preprocessor/arrival_history.h"

#include <algorithm>
#include <istream>
#include <string>
#include <utility>

#include "common/strings.h"

namespace qb5000 {

void ArrivalHistory::Record(Timestamp ts, double count) {
  total_ += count;
  last_arrival_ = std::max(last_arrival_, ts);
  if (!archive_.empty() && ts < recent_.start()) {
    // Late arrival for an already-compacted range goes to the archive.
    archive_.Add(ts, count);
    return;
  }
  recent_.Add(ts, count);
}

void ArrivalHistory::Compact(Timestamp before) {
  before = AlignDown(before, kSecondsPerHour);
  if (recent_.empty() || before <= recent_.start()) return;
  Timestamp cutoff = std::min(before, recent_.end());
  // Fold [recent_.start(), cutoff) into the archive.
  recent_.ForEachInRange(recent_.start(), cutoff,
                         [this](Timestamp t, double v) {
                           if (v != 0.0) archive_.Add(t, v);
                         });
  // Rebuild the recent series from the cutoff forward.
  CompressedSeries rebuilt(cutoff, kSecondsPerMinute);
  recent_.ForEachInRange(cutoff, recent_.end(),
                         [&rebuilt](Timestamp t, double v) {
                           if (v != 0.0) rebuilt.Add(t, v);
                         });
  recent_ = std::move(rebuilt);
}

Result<TimeSeries> ArrivalHistory::Series(int64_t interval_seconds,
                                          Timestamp from, Timestamp to) const {
  TimeSeries out;
  Status st = WindowInto(interval_seconds, from, to, &out);
  if (!st.ok()) return st;
  return out;
}

Status ArrivalHistory::WindowInto(int64_t interval_seconds, Timestamp from,
                                  Timestamp to, TimeSeries* out) const {
  if (interval_seconds <= 0 || interval_seconds % kSecondsPerMinute != 0) {
    return Status::InvalidArgument(
        "interval must be a positive multiple of one minute");
  }
  from = AlignDown(from, interval_seconds);
  to = AlignDown(to + interval_seconds - 1, interval_seconds);
  if (to <= from) {
    out->Reset(from, interval_seconds, 0);
    return Status::Ok();
  }
  size_t n = static_cast<size_t>((to - from) / interval_seconds);
  out->Reset(from, interval_seconds, n);
  auto values = out->mutable_values();

  // Recent (minute) contribution, every stored bucket in time order. Gap
  // buckets are implicit zeros; explicit ones leave the +0.0-based sums
  // unchanged, so this is bit for bit the dense path, which skipped zeros.
  recent_.AddInto(from, interval_seconds, values);

  // Archive (hourly) contribution. When the requested interval is finer
  // than an hour, spread each hourly total uniformly over its sub-buckets.
  archive_.ForEachInRange(
      from - kSecondsPerHour + 1, to, [&](Timestamp t, double value) {
        if (value == 0.0) return;
        if (interval_seconds >= kSecondsPerHour) {
          size_t bucket = static_cast<size_t>((std::max(t, from) - from) /
                                              interval_seconds);
          if (bucket < n) values[bucket] += value;
        } else {
          int64_t sub = kSecondsPerHour / interval_seconds;
          double share = value / static_cast<double>(sub);
          for (int64_t s = 0; s < sub; ++s) {
            Timestamp st = t + s * interval_seconds;
            if (st < from || st >= to) continue;
            values[static_cast<size_t>((st - from) / interval_seconds)] +=
                share;
          }
        }
      });
  return Status::Ok();
}

double ArrivalHistory::RangeTotal(Timestamp from, Timestamp to,
                                  TimeSeries* scratch) const {
  TimeSeries local;
  TimeSeries* out = scratch != nullptr ? scratch : &local;
  if (!WindowInto(kSecondsPerMinute, from, to, out).ok()) return 0.0;
  return out->Total();
}

Timestamp ArrivalHistory::FirstTime() const {
  if (!archive_.empty()) return archive_.start();
  if (!recent_.empty()) return recent_.start();
  return 0;
}

size_t ArrivalHistory::StorageBytes() const {
  return sizeof(ArrivalHistory) + recent_.HeapBytes() + archive_.HeapBytes();
}

void ArrivalHistory::EncodeTo(std::string* out) const {
  StrAppend(out, "ah ", total_, ' ', last_arrival_, '\n');
  recent_.Write(out);
  archive_.Write(out);
}

Result<ArrivalHistory> ArrivalHistory::DecodeFrom(std::istream& in) {
  std::string keyword;
  ArrivalHistory h;
  if (!(in >> keyword >> h.total_ >> h.last_arrival_) || keyword != "ah") {
    return Status::ParseError("bad history header");
  }
  auto recent = CompressedSeries::Read(in);
  if (!recent.ok()) return recent.status();
  auto archive = CompressedSeries::Read(in);
  if (!archive.ok()) return archive.status();
  if (recent->interval_seconds() != kSecondsPerMinute ||
      archive->interval_seconds() != kSecondsPerHour) {
    return Status::ParseError("bad history rung intervals");
  }
  h.recent_ = std::move(*recent);
  h.archive_ = std::move(*archive);
  return h;
}

Result<ArrivalHistory> ArrivalHistory::FromDense(const TimeSeries& recent,
                                                 const TimeSeries& archive,
                                                 double total,
                                                 Timestamp last_arrival) {
  if (recent.interval_seconds() != kSecondsPerMinute ||
      archive.interval_seconds() != kSecondsPerHour) {
    return Status::ParseError("bad dense history intervals");
  }
  ArrivalHistory h;
  h.total_ = total;
  h.last_arrival_ = last_arrival;
  // Re-adding every bucket — explicit zeros included — reproduces the dense
  // coverage (start/end/values) exactly in the compressed form.
  h.recent_ = CompressedSeries(recent.start(), kSecondsPerMinute);
  for (size_t i = 0; i < recent.size(); ++i) {
    h.recent_.Add(recent.TimeAt(i), recent.values()[i]);
  }
  h.archive_ = CompressedSeries(archive.start(), kSecondsPerHour);
  for (size_t i = 0; i < archive.size(); ++i) {
    h.archive_.Add(archive.TimeAt(i), archive.values()[i]);
  }
  return h;
}

}  // namespace qb5000
