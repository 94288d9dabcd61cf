#include "common/compressed_series.h"

#include <algorithm>
#include <charconv>
#include <istream>

#include "common/check.h"
#include "common/strings.h"

namespace qb5000 {

size_t CompressedSeries::StoredBuckets() const {
  size_t n = 0;
  for (const Run& run : runs_) n += run.size();
  return n;
}

size_t CompressedSeries::HeapBytes() const {
  size_t bytes = runs_.capacity() * sizeof(Run);
  for (const Run& run : runs_) {
    bytes += run.narrow.capacity() * sizeof(uint16_t);
    bytes += run.values.capacity() * sizeof(double);
  }
  return bytes;
}

void CompressedSeries::Promote(Run& run) {
  if (run.wide) return;
  run.values.assign(run.narrow.begin(), run.narrow.end());
  std::vector<uint16_t>().swap(run.narrow);
  run.wide = true;
}

void CompressedSeries::AppendBucket(Run& run, size_t zeros, double v) {
  if (!run.wide && !IsNarrow(v)) Promote(run);
  if (run.wide) {
    run.values.insert(run.values.end(), zeros, 0.0);
    run.values.push_back(v);
  } else {
    run.narrow.insert(run.narrow.end(), zeros, 0);
    run.narrow.push_back(static_cast<uint16_t>(v));
  }
}

CompressedSeries::Run CompressedSeries::MakeRun(Timestamp start, double v) {
  Run run;
  run.start = start;
  AppendBucket(run, 0, v);
  return run;
}

size_t CompressedSeries::FirstRunAfter(Timestamp t) const {
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), t,
      [](Timestamp lhs, const Run& run) { return lhs < run.start; });
  return static_cast<size_t>(it - runs_.begin());
}

void CompressedSeries::Add(Timestamp ts, double count) {
  Timestamp t = AlignDown(ts, interval_seconds_);
  if (runs_.empty()) {
    // Mirrors TimeSeries: the first Add of an empty series resets start.
    start_ = t;
    end_ = t + interval_seconds_;
    runs_.push_back(MakeRun(t, count));
    return;
  }
  if (t < start_) start_ = t;
  if (t + interval_seconds_ > end_) end_ = t + interval_seconds_;

  // `prev` is the last run with run.start <= t.
  auto next = runs_.begin() + static_cast<std::ptrdiff_t>(FirstRunAfter(t));
  Run* prev = next == runs_.begin() ? nullptr : &*std::prev(next);
  size_t gap_prev = 0;
  if (prev != nullptr) {
    size_t index = static_cast<size_t>((t - prev->start) / interval_seconds_);
    if (index < prev->size()) {
      // Accumulate in place. The sum is checked in double precision first
      // so the narrow packing never rounds: if it fits uint16 it is exact,
      // and if not the run is promoted and keeps the double sum
      // bit-for-bit.
      if (prev->wide) {
        prev->values[index] += count;
      } else {
        double sum = static_cast<double>(prev->narrow[index]) + count;
        if (IsNarrow(sum)) {
          prev->narrow[index] = static_cast<uint16_t>(sum);
        } else {
          Promote(*prev);
          prev->values[index] += count;
        }
      }
      return;
    }
    gap_prev = index - prev->size();
  }
  size_t gap_next = 0;
  if (next != runs_.end()) {
    gap_next =
        static_cast<size_t>((next->start - t) / interval_seconds_) - 1;
  }
  // The canonical-structure invariant (see the class comment): a bucket
  // within kMaxGapFill of a neighboring run joins it (zero-filling the
  // gap), and a bucket that bridges two runs merges them — so the final
  // run layout depends only on WHICH buckets were recorded, never on the
  // order the records arrived in. Batched and per-query ingest therefore
  // produce byte-identical encodings.
  bool merge_prev = prev != nullptr && gap_prev <= kMaxGapFill;
  bool merge_next = next != runs_.end() && gap_next <= kMaxGapFill;
  if (merge_prev) {
    AppendBucket(*prev, gap_prev, count);
    if (merge_next) {
      // Bridge: fold the following run (gap zeros + its buckets) into prev.
      Run& nrun = *next;
      if (nrun.wide && !prev->wide) Promote(*prev);
      if (prev->wide) {
        prev->values.insert(prev->values.end(), gap_next, 0.0);
        if (nrun.wide) {
          prev->values.insert(prev->values.end(), nrun.values.begin(),
                              nrun.values.end());
        } else {
          prev->values.insert(prev->values.end(), nrun.narrow.begin(),
                              nrun.narrow.end());
        }
      } else {
        prev->narrow.insert(prev->narrow.end(), gap_next, 0);
        prev->narrow.insert(prev->narrow.end(), nrun.narrow.begin(),
                            nrun.narrow.end());
      }
      runs_.erase(next);
    }
    return;
  }
  if (merge_next) {
    // Prepend: the bucket (plus gap zeros) joins the front of the next run.
    Run& nrun = *next;
    if (!nrun.wide && !IsNarrow(count)) Promote(nrun);
    if (nrun.wide) {
      nrun.values.insert(nrun.values.begin(), gap_next, 0.0);
      nrun.values.insert(nrun.values.begin(), count);
    } else {
      nrun.narrow.insert(nrun.narrow.begin(), gap_next, 0);
      nrun.narrow.insert(nrun.narrow.begin(), static_cast<uint16_t>(count));
    }
    nrun.start = t;
    return;
  }
  runs_.insert(next, MakeRun(t, count));
}

double CompressedSeries::ValueAt(Timestamp ts) const {
  if (runs_.empty() || ts < start_ || ts >= end_) return 0.0;
  Timestamp t = AlignDown(ts, interval_seconds_);
  size_t next = FirstRunAfter(t);
  if (next == 0) return 0.0;
  const Run& run = runs_[next - 1];
  size_t index = static_cast<size_t>((t - run.start) / interval_seconds_);
  return index < run.size() ? run.At(index) : 0.0;
}

namespace {

// Adds values[i, end) into consecutive output buckets from `*out` on:
// `take` of them into the first bucket, then `per_bucket` into each next
// one. A bucket's sum stays in a register across its values, which are
// added one at a time in ascending order, never reassociated.
template <typename T>
void SumIntoBuckets(const T* values, size_t i, size_t end, size_t take,
                    size_t per_bucket, double* out) {
  while (i < end) {
    size_t stop = std::min(end, i + take);
    double sum = *out;
    for (; i < stop; ++i) sum += static_cast<double>(values[i]);
    *out++ = sum;
    take = per_bucket;
  }
}

}  // namespace

void CompressedSeries::AddInto(Timestamp from, int64_t interval,
                               std::span<double> out) const {
  const int64_t step = interval_seconds_;
  QB_CHECK_GT(interval, 0);
  QB_CHECK_EQ(interval % step, 0);
  const Timestamp to = from + static_cast<int64_t>(out.size()) * interval;
  const auto per_bucket = static_cast<size_t>(interval / step);
  size_t r = FirstRunAfter(from);
  if (r > 0) --r;
  for (; r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= to) break;
    size_t n = run.size();
    size_t i = 0;
    if (run.start < from) {
      i = static_cast<size_t>((from - run.start + step - 1) / step);
      if (i >= n) continue;
    }
    // t, the run's first bucket in range, lies before `to`: it is the run's
    // start or the first bucket at or after `from`. Output bucket b takes
    // the stored buckets up to b's end, and each later output bucket
    // exactly per_bucket of them, since `interval` is a multiple of `step`.
    Timestamp t = run.start + static_cast<int64_t>(i) * step;
    auto b = static_cast<size_t>((t - from) / interval);
    Timestamp bucket_end = from + static_cast<int64_t>(b + 1) * interval;
    auto take = static_cast<size_t>((bucket_end - t + step - 1) / step);
    size_t end = std::min(
        n, static_cast<size_t>((to - run.start + step - 1) / step));
    if (run.wide) {
      SumIntoBuckets(run.values.data(), i, end, take, per_bucket,
                     out.data() + b);
    } else {
      SumIntoBuckets(run.narrow.data(), i, end, take, per_bucket,
                     out.data() + b);
    }
  }
}

double CompressedSeries::Total() const {
  double total = 0.0;
  ForEach([&total](Timestamp, double v) { total += v; });
  return total;
}

void CompressedSeries::Write(std::string* out) const {
  StrAppend(out, start_, ' ', interval_seconds_, ' ', runs_.size(), '\n');
  for (const Run& run : runs_) {
    size_t n = run.size();
    StrAppend(out, run.start, ' ', n, ' ', run.wide ? 1 : 0, '\n');
    if (run.wide) {
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out->push_back(' ');
        StrAppend(out, run.values[i]);
      }
      out->push_back('\n');
      continue;
    }
    // Narrow buckets are most of a checkpoint's bytes: print them straight
    // into the buffer, at most 5 digits and a separator each, then trim.
    size_t used = out->size();
    out->resize(used + 6 * n + 1);
    char* begin = out->data();
    char* p = begin + used;
    char* end = begin + out->size();
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) *p++ = ' ';
      p = std::to_chars(p, end, run.narrow[i]).ptr;
    }
    *p++ = '\n';
    out->resize(static_cast<size_t>(p - begin));
  }
}

Result<CompressedSeries> CompressedSeries::Read(std::istream& in) {
  Timestamp start = 0;
  int64_t interval = 0;
  size_t num_runs = 0;
  if (!(in >> start >> interval >> num_runs)) {
    return Status::ParseError("bad compressed series header");
  }
  if (interval <= 0) return Status::ParseError("bad compressed series interval");
  CompressedSeries series(start, interval);
  Timestamp prev_end = std::numeric_limits<Timestamp>::min();
  for (size_t r = 0; r < num_runs; ++r) {
    Timestamp run_start = 0;
    size_t n = 0;
    int wide = 0;
    if (!(in >> run_start >> n >> wide) || (wide != 0 && wide != 1)) {
      return Status::ParseError("bad compressed run header");
    }
    if (n == 0) return Status::ParseError("empty compressed run");
    if (run_start < prev_end) {
      return Status::ParseError("overlapping compressed runs");
    }
    Run run;
    run.start = run_start;
    run.wide = wide == 1;
    if (run.wide) {
      run.values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (!(in >> run.values[i])) {
          return Status::ParseError("truncated compressed run");
        }
      }
    } else {
      run.narrow.resize(n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t v = 0;
        if (!(in >> v) || v > 65535) {
          return Status::ParseError("bad narrow bucket");
        }
        run.narrow[i] = static_cast<uint16_t>(v);
      }
    }
    prev_end = run_start + static_cast<int64_t>(n) * interval;
    series.runs_.push_back(std::move(run));
  }
  if (!series.runs_.empty()) {
    series.start_ = series.runs_.front().start;
    series.end_ = series.runs_.back().start +
                  static_cast<int64_t>(series.runs_.back().size()) * interval;
  }
  return series;
}

}  // namespace qb5000
