// Self-tests for the benchmark's own statistics (servebench/src/stats.h).
// run.py runs them before every benchmark run, so a broken percentile or
// self-time rule fails the run instead of skewing its numbers.
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace servebench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, RequiresTenSamplesBeyondThePercentile) {
  EXPECT_EQ(MinSamplesForPercentile(99.0), 1000);
  EXPECT_EQ(MinSamplesForPercentile(90.0), 100);
  EXPECT_EQ(MinSamplesForPercentile(50.0), 20);
  EXPECT_FALSE(Percentile(OneToN(999), 99.0).has_value());
  EXPECT_FALSE(Percentile(OneToN(99), 90.0).has_value());
  EXPECT_FALSE(Percentile({}, 50.0).has_value());
  ASSERT_TRUE(Percentile(OneToN(1000), 99.0).has_value());
  ASSERT_TRUE(Percentile(OneToN(100), 90.0).has_value());
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(*Percentile(OneToN(1000), 99.0), 990.0);  // 10 samples beyond
  EXPECT_EQ(*Percentile(OneToN(100), 90.0), 90.0);
  EXPECT_EQ(*Percentile(OneToN(20), 50.0), 10.0);
  EXPECT_EQ(*Percentile(OneToN(21), 50.0), 11.0);
}

TEST(PercentileTest, BlockMedianTakesTheMedianOfPerBlockTails) {
  std::vector<double> v;
  for (int i = 1; i <= 3500; ++i) v.push_back(i % 1000 == 0 ? 1e6 : i % 1000);
  // Three full blocks of 1000 (the last 500 samples are dropped). Each
  // block's p99 is its 990th smallest, 990, whatever its one outlier.
  EXPECT_EQ(*BlockMedianPercentile(v, 99.0), 990.0);
  // A stalled block raises only its own tail.
  for (int i = 1000; i < 1100; ++i) v[static_cast<size_t>(i)] = 5e5;
  EXPECT_EQ(*BlockMedianPercentile(v, 99.0), 990.0);
  EXPECT_FALSE(BlockMedianPercentile(std::vector<double>(999, 1.0), 99.0).has_value());
  EXPECT_EQ(*BlockMedianPercentile(OneToN(100), 90.0), 90.0);
}

TEST(SelfTimeTest, NestedSpans) {
  // root [0,100) has children [10,30) and [20,50) (overlapping: union 40)
  // and [90,120) (clipped to the root: 10). The first child has its own
  // child [12,18).
  std::vector<Span> spans = {
      {"root", 1, 0, 100, -1},  {"a", 1, 10, 30, 0}, {"b", 1, 20, 50, 0},
      {"c", 1, 90, 120, 0},     {"a.x", 1, 12, 18, 1},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTimeTest, ChildOutsideParentCoversNothing) {
  std::vector<Span> spans = {{"root", 7, 100, 200, -1},
                             {"late", 7, 250, 300, 0}};
  EXPECT_EQ(SelfTimesNs(spans)[0], 100);
}

TEST(FailTallyTest, CountsShedsTransportErrorsAndNonOkStatuses) {
  FailTally t;
  for (int i = 0; i < 7; ++i) t.Record(Outcome::kOk);
  t.Record(Outcome::kShed);
  t.Record(Outcome::kTransportError);
  t.Record(Outcome::kNonOk);
  EXPECT_EQ(t.attempted, 10);
  EXPECT_EQ(t.failed(), 3);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.3);

  FailTally other;
  other.Record(Outcome::kOk);
  t.Merge(other);
  EXPECT_EQ(t.attempted, 11);
  EXPECT_EQ(t.ok, 8);
  EXPECT_EQ(FailTally{}.fail_ratio(), 0.0);
}

TEST(ApproxRatioTest, MeanOfRatios) {
  std::vector<ArTerm> terms = {{2.0, 1.0}, {3.0, 3.0}, {0.0, 0.0}};
  ArResult r = ApproxRatio(terms);
  EXPECT_EQ(r.used, 3);
  EXPECT_EQ(r.unbounded, 0);
  EXPECT_DOUBLE_EQ(r.mean, (2.0 + 1.0 + 1.0) / 3.0);
}

TEST(ApproxRatioTest, ZeroExactWithPositiveApproxIsCountedNotAveraged) {
  std::vector<ArTerm> terms = {{1.5, 1.0}, {0.5, 0.0}};
  ArResult r = ApproxRatio(terms);
  EXPECT_EQ(r.used, 1);
  EXPECT_EQ(r.unbounded, 1);
  EXPECT_DOUBLE_EQ(r.mean, 1.5);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace servebench
