// Seeded fuzz-differential suite for the compressed ArrivalHistory
// (DESIGN.md §15): every observable — Series/WindowInto output, totals,
// encodings — must be bit-identical to a dense reference model fed the same
// operations, across random Record/Compact schedules (full compactions that
// empty the minute rung included) and checkpoint round-trips.

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/compressed_series.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "preprocessor/arrival_history.h"

namespace qb5000 {
namespace {

// Counts whose sums are exact in double arithmetic in any addition order
// (integers and halves): order-independence assertions stay meaningful.
constexpr double kCounts[] = {1.0, 2.0, 3.0, 5.0, 12.0, 0.5, 70000.0};

double PickCount(Rng& rng) {
  // Mostly small integers, occasionally fractional or narrow-overflowing.
  uint64_t roll = rng.UniformInt(0, 19);
  if (roll < 15) return kCounts[roll % 5];
  return kCounts[5 + roll % 2];
}

// --- dense reference model --------------------------------------------------
// The pre-compression ArrivalHistory: dense TimeSeries rungs, identical
// routing / fold / spread logic. Iteration skips zero buckets exactly like
// the compressed path skips gaps, so floating-point addition order matches.
struct DenseHistory {
  TimeSeries recent{0, kSecondsPerMinute};
  TimeSeries archive{0, kSecondsPerHour};
  double total = 0.0;
  Timestamp last_arrival = 0;

  void Record(Timestamp ts, double count) {
    total += count;
    last_arrival = std::max(last_arrival, ts);
    if (!archive.empty() && ts < recent.start()) {
      archive.Add(ts, count);
      return;
    }
    recent.Add(ts, count);
  }

  void Compact(Timestamp before) {
    before = AlignDown(before, kSecondsPerHour);
    if (recent.empty() || before <= recent.start()) return;
    Timestamp cutoff = std::min(before, recent.end());
    for (size_t i = 0; i < recent.size(); ++i) {
      Timestamp t = recent.TimeAt(i);
      if (t >= cutoff) break;
      if (recent.values()[i] != 0.0) archive.Add(t, recent.values()[i]);
    }
    TimeSeries rebuilt(cutoff, kSecondsPerMinute);
    for (size_t i = 0; i < recent.size(); ++i) {
      Timestamp t = recent.TimeAt(i);
      if (t < cutoff) continue;
      if (recent.values()[i] != 0.0) rebuilt.Add(t, recent.values()[i]);
    }
    recent = std::move(rebuilt);
  }

  TimeSeries Window(int64_t interval, Timestamp from, Timestamp to) const {
    from = AlignDown(from, interval);
    to = AlignDown(to + interval - 1, interval);
    TimeSeries out;
    if (to <= from) {
      out.Reset(from, interval, 0);
      return out;
    }
    size_t n = static_cast<size_t>((to - from) / interval);
    out.Reset(from, interval, n);
    auto values = out.mutable_values();
    for (size_t i = 0; i < recent.size(); ++i) {
      Timestamp t = recent.TimeAt(i);
      double v = recent.values()[i];
      if (t < from || t >= to || v == 0.0) continue;
      values[static_cast<size_t>((t - from) / interval)] += v;
    }
    for (size_t i = 0; i < archive.size(); ++i) {
      Timestamp t = archive.TimeAt(i);
      double value = archive.values()[i];
      if (t <= from - kSecondsPerHour || t >= to || value == 0.0) continue;
      if (interval >= kSecondsPerHour) {
        size_t bucket =
            static_cast<size_t>((std::max(t, from) - from) / interval);
        if (bucket < n) values[bucket] += value;
      } else {
        int64_t sub = kSecondsPerHour / interval;
        double share = value / static_cast<double>(sub);
        for (int64_t s = 0; s < sub; ++s) {
          Timestamp st = t + s * interval;
          if (st < from || st >= to) continue;
          values[static_cast<size_t>((st - from) / interval)] += share;
        }
      }
    }
    return out;
  }
};

void ExpectSameWindow(const ArrivalHistory& compressed,
                      const DenseHistory& dense, int64_t interval,
                      Timestamp from, Timestamp to) {
  auto got = compressed.Series(interval, from, to);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  TimeSeries want = dense.Window(interval, from, to);
  ASSERT_EQ(got->size(), want.size()) << "interval " << interval;
  ASSERT_EQ(got->start(), want.start());
  for (size_t i = 0; i < want.size(); ++i) {
    // Bit-identical, not approximately equal: the compressed path must
    // perform the same additions in the same order as the dense one.
    ASSERT_EQ(got->values()[i], want.values()[i])
        << "interval " << interval << " bucket " << i << " at "
        << want.TimeAt(i);
  }
}

void ExpectMatchesDense(const ArrivalHistory& compressed,
                        const DenseHistory& dense, Timestamp span_end) {
  ASSERT_EQ(compressed.Total(), dense.total);
  ASSERT_EQ(compressed.last_arrival(), dense.last_arrival);
  for (int64_t interval : {kSecondsPerMinute, 5 * kSecondsPerMinute,
                           kSecondsPerHour, kSecondsPerDay}) {
    ExpectSameWindow(compressed, dense, interval, 0, span_end);
    // An interior window exercises the range-clipping paths.
    ExpectSameWindow(compressed, dense, interval, span_end / 3,
                     2 * span_end / 3);
  }
  TimeSeries scratch;
  TimeSeries window = dense.Window(kSecondsPerMinute, 0, span_end);
  ASSERT_EQ(compressed.RangeTotal(0, span_end, &scratch), window.Total());
}

// One random operation schedule applied to both models. With
// `full_compaction`, some operations also fold past the cursor, emptying the
// minute rung.
void RunFuzzSchedule(uint64_t seed, bool full_compaction) {
  Rng rng(seed);
  ArrivalHistory compressed;
  DenseHistory dense;

  Timestamp cursor = kSecondsPerDay;
  const Timestamp span_end = 50 * kSecondsPerDay;
  for (int op = 0; op < 600; ++op) {
    uint64_t roll = rng.UniformInt(0, 99);
    if (roll < 80) {
      // Mostly forward arrivals with jitter; some genuinely late ones.
      cursor += rng.UniformInt(0, 2 * kSecondsPerHour);
      Timestamp ts = cursor;
      if (rng.UniformInt(0, 9) == 0) {
        ts -= rng.UniformInt(0, 3 * kSecondsPerDay);
      }
      ts = std::max<Timestamp>(ts, 0);
      double count = PickCount(rng);
      compressed.Record(ts, count);
      dense.Record(ts, count);
    } else if (roll < 90) {
      Timestamp before = cursor - kSecondsPerDay;
      compressed.Compact(before);
      dense.Compact(before);
    } else if (roll < 95) {
      // Idle step: keeps every seed's schedule of the other operations.
    } else if (full_compaction) {
      // Full compaction: the minute rung empties, and later arrivals
      // reopen it after the archive's end.
      Timestamp fold = cursor + kSecondsPerDay;
      compressed.Compact(fold);
      dense.Compact(fold);
    }
    if (op % 97 == 0) ExpectMatchesDense(compressed, dense, span_end);
  }
  ExpectMatchesDense(compressed, dense, span_end);

  // Checkpoint round-trip: encode -> decode -> encode is byte-identical and
  // the decoded history still matches the dense reference.
  std::string encoded;
  compressed.EncodeTo(&encoded);
  std::istringstream in(encoded);
  auto decoded = ArrivalHistory::DecodeFrom(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::string reencoded;
  decoded->EncodeTo(&reencoded);
  ASSERT_EQ(reencoded, encoded);
  ExpectMatchesDense(*decoded, dense, span_end);
}

TEST(HistoryFuzz, CompressedMatchesDenseReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunFuzzSchedule(seed, /*full_compaction=*/false);
  }
}

// Full compactions empty the minute rung; the schedule must still match the
// dense reference and round-trip through its encoding.
TEST(HistoryFuzz, CompressedMatchesDenseReferenceUnderFullCompaction) {
  for (uint64_t seed = 101; seed <= 106; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunFuzzSchedule(seed, /*full_compaction=*/true);
  }
}

// Non-dyadic counts: a sum of several of them depends on the order of its
// additions, so a window read that reorders a bucket's additions is caught
// here. Kept out of kCounts, whose sums the order-independence tests need
// exact.
constexpr double kOrderSensitiveCounts[] = {0.1, 1.0 / 3.0, 0.7, 1.0, 3.0};

TEST(HistoryFuzz, FractionalWindowsAddInTimeOrder) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ArrivalHistory compressed;
    DenseHistory dense;
    auto record = [&](Timestamp ts, double count) {
      compressed.Record(ts, count);
      dense.Record(ts, count);
    };

    // Bursts of minute arrivals, several fractional counts per minute and
    // some empty minutes (explicit zeros inside a run), separated by gaps
    // long enough to split runs. Late arrivals and compactions put
    // fractional hours into the archive as well.
    Timestamp cursor = kSecondsPerDay;
    std::vector<Timestamp> arrivals;
    std::vector<std::pair<Timestamp, Timestamp>> gaps;
    for (int burst = 0; burst < 30; ++burst) {
      int64_t minutes = rng.UniformInt(5, 240);
      for (int64_t m = 0; m < minutes; ++m) {
        int64_t adds = rng.UniformInt(0, 3);
        for (int64_t a = 0; a < adds; ++a) {
          Timestamp ts = cursor + rng.UniformInt(0, kSecondsPerMinute - 1);
          if (rng.UniformInt(0, 19) == 0) {
            ts = std::max<Timestamp>(
                0, ts - rng.UniformInt(0, 2 * kSecondsPerDay));
          }
          record(ts, kOrderSensitiveCounts[rng.UniformInt(0, 4)]);
          arrivals.push_back(ts);
        }
        cursor += kSecondsPerMinute;
      }
      Timestamp gap = rng.UniformInt(1, 36) * kSecondsPerHour +
                      rng.UniformInt(0, 59) * kSecondsPerMinute;
      gaps.emplace_back(cursor, cursor + gap);
      cursor += gap;
      if (rng.UniformInt(0, 3) == 0) {
        compressed.Compact(cursor - 3 * kSecondsPerDay);
        dense.Compact(cursor - 3 * kSecondsPerDay);
      }
    }

    const Timestamp first = compressed.FirstTime();
    for (int64_t interval : {kSecondsPerMinute, 5 * kSecondsPerMinute,
                             kSecondsPerHour, kSecondsPerDay}) {
      for (int w = 0; w < 30; ++w) {
        Timestamp from = 0;
        Timestamp to = 0;
        if (w % 3 == 0) {
          // Starts before the first stored bucket.
          from = first - rng.UniformInt(1, 2 * kSecondsPerDay);
          to = first + rng.UniformInt(1, cursor - first);
        } else if (w % 3 == 1) {
          // Ends inside a burst.
          Timestamp ts = arrivals[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(arrivals.size()) - 1))];
          from = ts - rng.UniformInt(0, 3 * kSecondsPerDay);
          to = ts + rng.UniformInt(1, kSecondsPerMinute);
        } else {
          // Lies in a gap (at minute and 5-minute intervals; coarser
          // alignment widens it over the neighboring bursts).
          const auto& gap = gaps[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(gaps.size()) - 1))];
          from = gap.first + kSecondsPerMinute +
                 rng.UniformInt(0, (gap.second - gap.first) / 2);
          to = from + rng.UniformInt(1, gap.second - from);
        }
        ExpectSameWindow(compressed, dense, interval, from, to);
      }
    }
  }
}

TEST(HistoryFuzz, SeriesLevelDifferentialUnderRandomOrder) {
  // CompressedSeries vs dense TimeSeries under the same out-of-order Adds:
  // coverage, point lookups, and totals all agree.
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    CompressedSeries compressed(0, kSecondsPerMinute);
    TimeSeries dense(0, kSecondsPerMinute);
    for (int i = 0; i < 400; ++i) {
      Timestamp ts = rng.UniformInt(0, 3 * kSecondsPerDay);
      double count = PickCount(rng);
      compressed.Add(ts, count);
      dense.Add(ts, count);
    }
    ASSERT_EQ(compressed.start(), dense.start());
    ASSERT_EQ(compressed.end(), dense.end());
    ASSERT_EQ(compressed.Total(), dense.Total());
    for (Timestamp t = compressed.start() - kSecondsPerHour;
         t < compressed.end() + kSecondsPerHour; t += kSecondsPerMinute) {
      ASSERT_EQ(compressed.ValueAt(t), dense.ValueAt(t)) << "bucket " << t;
    }
  }
}

TEST(HistoryFuzz, EncodingIsIndependentOfArrivalOrder) {
  // The canonical-run-structure guarantee: any permutation of the same
  // (timestamp, count) multiset serializes byte-identically, which is what
  // lets batched and per-query ingest produce the same checkpoints.
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::pair<Timestamp, double>> records;
    for (int i = 0; i < 300; ++i) {
      // Clustered bursts with occasional long gaps: exercises gap-fill,
      // prepend, and run-bridging paths.
      Timestamp base = rng.UniformInt(0, 9) < 3
                           ? rng.UniformInt(0, 20 * kSecondsPerDay)
                           : records.empty() ? 0 : records.back().first;
      Timestamp ts = base + rng.UniformInt(0, 30 * kSecondsPerMinute);
      records.emplace_back(ts, PickCount(rng));
    }
    std::string want;
    for (int perm = 0; perm < 5; ++perm) {
      // Deterministic Fisher-Yates from the suite's own Rng.
      for (size_t i = records.size() - 1; i > 0; --i) {
        size_t j = rng.UniformInt(0, i);
        std::swap(records[i], records[j]);
      }
      ArrivalHistory history;
      for (const auto& [ts, count] : records) history.Record(ts, count);
      std::string encoded;
      history.EncodeTo(&encoded);
      if (perm == 0) {
        want = encoded;
      } else {
        ASSERT_EQ(encoded, want) << "permutation " << perm;
      }
    }
  }
}

// --- late-arrival regression (TimeSeries backwards growth) ------------------

TEST(HistoryLateArrival, BackwardsAddsStayAmortized) {
  // Worst-case late-arrival pattern: every Add lands one bucket before the
  // current front. The front-slack scheme makes this amortized O(1) per
  // bucket; the pre-slack implementation was O(n) per Add (O(n^2) total)
  // and this test was unusably slow.
  constexpr int kBuckets = 100000;
  Timestamp top = static_cast<Timestamp>(kBuckets) * kSecondsPerMinute;
  TimeSeries series(top, kSecondsPerMinute);
  for (int i = 0; i <= kBuckets; ++i) {
    series.Add(top - static_cast<Timestamp>(i) * kSecondsPerMinute, 1.0);
  }
  ASSERT_EQ(series.size(), static_cast<size_t>(kBuckets) + 1);
  ASSERT_EQ(series.start(), 0);
  ASSERT_EQ(series.Total(), static_cast<double>(kBuckets) + 1.0);
  for (size_t i = 0; i < series.size(); i += 997) {
    ASSERT_EQ(series.values()[i], 1.0) << "bucket " << i;
  }
  // Geometric regrowth keeps capacity within a small factor of the live
  // region (front slack included).
  EXPECT_LT(series.HeapBytes(), 8u * (kBuckets + 1) * sizeof(double));
}

TEST(HistoryLateArrival, InterleavedFrontAndBackGrowth) {
  Rng rng(42);
  TimeSeries series(1000 * kSecondsPerMinute, kSecondsPerMinute);
  TimeSeries reference(1000 * kSecondsPerMinute, kSecondsPerMinute);
  Timestamp low = 1000 * kSecondsPerMinute;
  Timestamp high = low;
  for (int i = 0; i < 5000; ++i) {
    Timestamp ts;
    if (rng.UniformInt(0, 1) == 0) {
      low -= rng.UniformInt(0, 3) * kSecondsPerMinute;
      ts = low;
    } else {
      high += rng.UniformInt(0, 3) * kSecondsPerMinute;
      ts = high;
    }
    series.Add(ts, 1.0);
    reference.Add(ts, 1.0);
  }
  ASSERT_EQ(series.start(), low);
  ASSERT_EQ(series.Total(), 5000.0);
  for (Timestamp t = low; t < high + kSecondsPerMinute;
       t += kSecondsPerMinute) {
    ASSERT_EQ(series.ValueAt(t), reference.ValueAt(t));
  }
}

}  // namespace
}  // namespace qb5000
