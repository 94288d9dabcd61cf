#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timeseries.h"

namespace qb5000 {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "PARSE_ERROR: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, PoissonOfNonPositiveMeanIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-5.0), 0);
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(rng.Poisson(10.0));
  EXPECT_NEAR(sum / kDraws, 10.0, 0.2);
}

TEST(ClockTest, AlignDown) {
  EXPECT_EQ(AlignDown(125, 60), 120);
  EXPECT_EQ(AlignDown(120, 60), 120);
  EXPECT_EQ(AlignDown(0, 60), 0);
  EXPECT_EQ(AlignDown(-1, 60), -60);
}

TEST(ClockTest, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(0), "0+00:00:00");
  EXPECT_EQ(FormatTimestamp(kSecondsPerDay + 3 * kSecondsPerHour + 62),
            "1+03:01:02");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt * FROM t"), "select * from t");
  EXPECT_EQ(ToUpper("select"), "SELECT");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

// The checkpoint encoders print through StrAppend; their files stay
// byte-identical to those of the ostream encoders they replaced only if
// every number prints as an ostream at precision(17) prints it.
TEST(StringsTest, StrAppendMatchesOstreamAtPrecision17) {
  auto via_stream = [](const auto& v) {
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
  };
  auto via_append = [](const auto& v) {
    std::string out;
    StrAppend(&out, v);
    return out;
  };
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(via_append(v), via_stream(v));
  }
  EXPECT_EQ(via_append(std::numeric_limits<uint64_t>::max()),
            via_stream(std::numeric_limits<uint64_t>::max()));
  EXPECT_EQ(via_append(uint16_t{65535}), via_stream(uint16_t{65535}));
  EXPECT_EQ(via_append(uint16_t{65535}), "65535");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double v :
       {0.0, -0.0, 5e-324, DBL_MIN, 0.1, 1.0 / 3.0, 1e15, 1e16, 1e17,
        9007199254740994.0 /* 2^53 + 2 */, DBL_MAX, kInf, -kInf, kNaN,
        std::copysign(kNaN, -1.0)}) {
    EXPECT_EQ(via_append(v), via_stream(v)) << via_stream(v);
  }
  // One call appends its pieces in order, after what the buffer holds.
  std::string out = "x";
  StrAppend(&out, ' ', "ah ", std::string("b"), 7, ' ', 0.5, '\n');
  EXPECT_EQ(out, "x ah b7 0.5\n");
}

TEST(TimeSeriesTest, AddAndLookup) {
  TimeSeries ts(0, 60);
  ts.Add(0, 1);
  ts.Add(59, 2);
  ts.Add(60, 5);
  ts.Add(180, 1);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts.ValueAt(30), 3.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(61), 5.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(120), 0.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(200), 1.0);
  EXPECT_DOUBLE_EQ(ts.Total(), 9.0);
}

TEST(TimeSeriesTest, FirstAddSetsAlignedStart) {
  TimeSeries ts(0, 60);
  ts.Add(150, 4);
  EXPECT_EQ(ts.start(), 120);
  EXPECT_DOUBLE_EQ(ts.ValueAt(130), 4.0);
}

TEST(TimeSeriesTest, AggregateSumsBuckets) {
  TimeSeries ts(0, 60);
  for (int i = 0; i < 120; ++i) ts.Add(i * 60, 1.0);
  auto hourly = ts.Aggregate(3600);
  ASSERT_TRUE(hourly.ok());
  ASSERT_EQ(hourly->size(), 2u);
  EXPECT_DOUBLE_EQ(hourly->values()[0], 60.0);
  EXPECT_DOUBLE_EQ(hourly->values()[1], 60.0);
}

TEST(TimeSeriesTest, AggregateRejectsNonMultiple) {
  TimeSeries ts(0, 60);
  ts.Add(0, 1);
  EXPECT_FALSE(ts.Aggregate(90).ok());
  EXPECT_FALSE(ts.Aggregate(0).ok());
}

TEST(TimeSeriesTest, SliceZeroFillsOutsideRange) {
  TimeSeries ts(600, 60);
  ts.Add(600, 2);
  ts.Add(660, 3);
  TimeSeries s = ts.Slice(480, 780);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_DOUBLE_EQ(s.values()[0], 0.0);
  EXPECT_DOUBLE_EQ(s.values()[2], 2.0);
  EXPECT_DOUBLE_EQ(s.values()[3], 3.0);
  EXPECT_DOUBLE_EQ(s.values()[4], 0.0);
}

TEST(TimeSeriesTest, AddSeriesShapeMismatch) {
  TimeSeries a(0, 60);
  a.Add(0, 1);
  TimeSeries b(0, 120);
  b.Add(0, 1);
  EXPECT_FALSE(a.AddSeries(b).ok());
}

TEST(TimeSeriesTest, AddSeriesAndScale) {
  TimeSeries a(0, 60, {1, 2, 3});
  TimeSeries b(0, 60, {4, 5, 6});
  ASSERT_TRUE(a.AddSeries(b).ok());
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a.values()[0], 2.5);
  EXPECT_DOUBLE_EQ(a.values()[2], 4.5);
}

}  // namespace
}  // namespace qb5000
