// algo/lower_bounds: the envelopes must equal the brute-force sliding
// window MBRs, and the MBR and nearest-points bounds must actually
// LOWER-bound every subtrajectory's distance, as computed in floating
// point, for every measure that claims an aggregation family (validity is
// what makes engine pruning lossless). No comparison here has a tolerance.
#include "algo/lower_bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "algo/splitting.h"
#include "geo/soa.h"
#include "similarity/cdtw.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"
#include "similarity/hausdorff.h"
#include "util/random.h"

namespace simsub::algo {
namespace {

std::vector<geo::Point> RandomPoints(util::Rng& rng, int n) {
  std::vector<geo::Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(-400.0, 400.0), rng.Uniform(-400.0, 400.0));
  }
  return pts;
}

TEST(LowerBoundsTest, EnvelopesMatchBruteForceWindows) {
  util::Rng rng(11);
  std::vector<geo::Point> pts = RandomPoints(rng, 30);
  for (int w : {0, 1, 3, 29, 100}) {
    std::vector<geo::Mbr> env = BuildMbrEnvelopes(pts, w);
    ASSERT_EQ(env.size(), pts.size());
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      geo::Mbr want;
      int lo = std::max(0, i - w);
      int hi = std::min(static_cast<int>(pts.size()) - 1, i + w);
      for (int j = lo; j <= hi; ++j) want.Extend(pts[static_cast<size_t>(j)]);
      EXPECT_EQ(env[static_cast<size_t>(i)], want) << "w=" << w << " i=" << i;
    }
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

double FullBound(similarity::DistanceAggregation agg,
                 const std::vector<geo::Point>& data,
                 std::span<const geo::Point> query) {
  geo::FlatPoints soa{std::span<const geo::Point>(data)};
  return NearestPointsLowerBound(agg, soa.View(), query, kInf);
}

// Asserts `bound` <= the distance of EVERY subtrajectory of `data`, each
// evaluated twice: forward (the ExactS / PSS prefix order) and with both
// sequences reversed (PSS's suffix pass sums the same path backwards).
void ExpectBoundsEverySubtrajectory(const similarity::SimilarityMeasure& m,
                                    const std::vector<geo::Point>& data,
                                    const std::vector<geo::Point>& query,
                                    double bound, const std::string& label) {
  const int n = static_cast<int>(data.size());
  std::vector<geo::Point> rquery(query.rbegin(), query.rend());
  auto fwd = m.NewEvaluator(query);
  auto rev = m.NewEvaluator(rquery);
  for (int i = 0; i < n; ++i) {
    double d = fwd->Start(data[static_cast<size_t>(i)]);
    for (int j = i;; ++j) {
      ASSERT_LE(bound, d) << label << " forward [" << i << "," << j << "]";
      if (j + 1 == n) break;
      d = fwd->Extend(data[static_cast<size_t>(j + 1)]);
    }
    // Reversed: starts at data[i], extends towards data[0].
    d = rev->Start(data[static_cast<size_t>(i)]);
    for (int j = i;; --j) {
      ASSERT_LE(bound, d) << label << " reversed [" << j << "," << i << "]";
      if (j == 0) break;
      d = rev->Extend(data[static_cast<size_t>(j - 1)]);
    }
  }
}

struct Measures {
  similarity::DtwMeasure dtw;
  similarity::CdtwMeasure cdtw{0.2};
  similarity::FrechetMeasure frechet;
  similarity::HausdorffMeasure hausdorff;
  std::vector<const similarity::SimilarityMeasure*> all() const {
    return {&dtw, &cdtw, &frechet, &hausdorff};
  }
};

TEST(LowerBoundsTest, BoundsAreValidAndOrdered) {
  util::Rng rng(12);
  Measures measures;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<geo::Point> data = RandomPoints(rng, 20);
    std::vector<geo::Point> query = RandomPoints(rng, 7);
    geo::Mbr mbr = geo::ComputeMbr(data);

    for (const similarity::SimilarityMeasure* m : measures.all()) {
      double lb_mbr = MbrLowerBound(m->aggregation(), mbr, query);
      double lb_points = FullBound(m->aggregation(), data, query);
      // The nearest-points bound refines the MBR bound...
      EXPECT_LE(lb_mbr, lb_points) << m->name();
      // ...and both must lower-bound every subtrajectory's distance.
      ExpectBoundsEverySubtrajectory(*m, data, query, lb_points,
                                     m->name() + " trial " +
                                         std::to_string(trial));
      ExactS search(m);
      EXPECT_LE(lb_points, search.Search(data, query).distance) << m->name();
    }
  }
}

// Query point i sits a small irregular offset away from data point s + i,
// so the diagonal alignment of data[s, s+m) pairs every query point with
// its nearest data point: the bound equals the optimum mathematically, and
// only rounding separates them. UTM-scale coordinates make the per-term
// distances round, and the bound adds them in a different order (endpoints
// first) than the DP does.
TEST(LowerBoundsTest, TightCaseStaysBelowTheRoundedOptimum) {
  util::Rng rng(13);
  Measures measures;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 24;
    const int m = 2 + trial % 9;
    std::vector<geo::Point> data;
    for (int i = 0; i < n; ++i) {
      // ~100 m apart, ~5e5 m from the origin.
      data.emplace_back(5.0e5 + 100.0 * i + rng.Uniform(-10.0, 10.0),
                        4.1e6 + rng.Uniform(-30.0, 30.0));
    }
    const int s = static_cast<int>(rng.Uniform(0.0, n - m));
    std::vector<geo::Point> query;
    for (int i = 0; i < m; ++i) {
      const geo::Point& p = data[static_cast<size_t>(s + i)];
      query.emplace_back(p.x + rng.Uniform(-3.0, 3.0),
                         p.y + rng.Uniform(-3.0, 3.0));
    }
    for (const similarity::SimilarityMeasure* m_ : measures.all()) {
      const double lb = FullBound(m_->aggregation(), data, query);
      const std::string label =
          m_->name() + " trial " + std::to_string(trial);
      ExpectBoundsEverySubtrajectory(*m_, data, query, lb, label);
      ExactS search(m_);
      const double best = search.Search(data, query).distance;
      EXPECT_LE(lb, best) << label;
      // The case really is tight: only rounding (and the kSum scale
      // factor) separates the bound from the optimum.
      EXPECT_GE(lb, best * (1.0 - 1e-12)) << label;
    }
  }
}

// A densely sampled trajectory and a sparse query: every warping path of
// a good subtrajectory is much longer than m, so the DP sums many more
// terms than the bound does.
TEST(LowerBoundsTest, LongWarpingPathsStayAboveTheBound) {
  util::Rng rng(14);
  Measures measures;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<geo::Point> data;
    for (int i = 0; i < 300; ++i) {
      data.emplace_back(5.0e5 + 3.3 * i, 4.1e6 + rng.Uniform(-1.0, 1.0));
    }
    std::vector<geo::Point> query = {
        geo::Point(5.0e5 + 10.0, 4.1e6 + 0.5),
        geo::Point(5.0e5 + 500.0, 4.1e6 - 0.7),
        geo::Point(5.0e5 + 980.0, 4.1e6 + 0.3)};
    for (const similarity::SimilarityMeasure* m : measures.all()) {
      const double lb = FullBound(m->aggregation(), data, query);
      ExpectBoundsEverySubtrajectory(*m, data, query, lb,
                                     m->name() + " trial " +
                                         std::to_string(trial));
      PssSearch pss(m);
      EXPECT_LE(lb, pss.Search(data, query).distance) << m->name();
    }
  }
}

// Both query endpoints lie on the trajectory, so the endpoint bound (the
// first two terms) is 0; the interior point is 500 m off it. A threshold
// the endpoint bound stays under is exceeded once the interior counts.
TEST(LowerBoundsTest, InteriorPointsTightenPastTheEndpointBound) {
  std::vector<geo::Point> data;
  for (int i = 0; i <= 10; ++i) data.emplace_back(10.0 * i, 0.0);
  geo::FlatPoints soa{std::span<const geo::Point>(data)};
  std::vector<geo::Point> query = {geo::Point(0.0, 0.0),
                                   geo::Point(50.0, 500.0),
                                   geo::Point(100.0, 0.0)};
  std::vector<geo::Point> endpoints = {query.front(), query.back()};
  const double threshold = 100.0;
  for (auto agg : {similarity::DistanceAggregation::kSum,
                   similarity::DistanceAggregation::kMax}) {
    EXPECT_EQ(MbrLowerBound(agg, geo::ComputeMbr(data), query), 0.0);
    EXPECT_LE(NearestPointsLowerBound(agg, soa.View(), endpoints, kInf),
              threshold);
    EXPECT_GT(NearestPointsLowerBound(agg, soa.View(), query, threshold),
              threshold);
    EXPECT_GE(NearestPointsLowerBound(agg, soa.View(), query, kInf), 499.0);
  }
}

// Early abandoning is only a shortcut: at any finite threshold the result
// exceeds it exactly when the full bound does, and is itself a valid bound
// (never above the full value). Thresholds include the full value itself,
// the value just below it, and the bounds of growing query prefixes (near
// the partial values the visit order passes through).
TEST(LowerBoundsTest, AbandonedBoundDecidesLikeTheFullBound) {
  util::Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<geo::Point> data = RandomPoints(rng, 5 + trial % 17);
    std::vector<geo::Point> query = RandomPoints(rng, 1 + trial % 9);
    geo::FlatPoints soa{std::span<const geo::Point>(data)};
    for (auto agg : {similarity::DistanceAggregation::kSum,
                     similarity::DistanceAggregation::kMax}) {
      const double full = NearestPointsLowerBound(agg, soa.View(), query, kInf);
      std::vector<double> thresholds = {0.0, full, full * 0.5, full * 2.0,
                                        std::nextafter(full, 0.0)};
      // Partial values: the bound over the first t visited points.
      std::vector<geo::Point> prefix = {query.front()};
      if (query.size() > 1) prefix.push_back(query.back());
      for (size_t i = 1; i + 1 < query.size(); ++i) {
        thresholds.push_back(
            NearestPointsLowerBound(agg, soa.View(), prefix, kInf));
        prefix.push_back(query[i]);
      }
      for (double t : thresholds) {
        const double got = NearestPointsLowerBound(agg, soa.View(), query, t);
        EXPECT_EQ(got > t, full > t) << "trial " << trial << " t=" << t;
        EXPECT_LE(got, full) << "trial " << trial << " t=" << t;
      }
    }
  }
}

TEST(LowerBoundsTest, SinglePointQueryCountsOneEndpoint) {
  geo::Mbr mbr;
  mbr.Extend(geo::Point(0.0, 0.0));
  mbr.Extend(geo::Point(10.0, 10.0));
  std::vector<geo::Point> q = {geo::Point(20.0, 10.0)};  // 10m from the box
  EXPECT_DOUBLE_EQ(
      MbrLowerBound(similarity::DistanceAggregation::kSum, mbr, q), 10.0);
  EXPECT_DOUBLE_EQ(
      MbrLowerBound(similarity::DistanceAggregation::kMax, mbr, q), 10.0);
  EXPECT_EQ(MbrLowerBound(similarity::DistanceAggregation::kOther, mbr, q),
            0.0);

  // The nearest-points bound counts the single point once too.
  std::vector<geo::Point> data = {geo::Point(0.0, 10.0),
                                  geo::Point(10.0, 10.0)};
  geo::FlatPoints soa{std::span<const geo::Point>(data)};
  const double sum = NearestPointsLowerBound(
      similarity::DistanceAggregation::kSum, soa.View(), q, kInf);
  EXPECT_LE(sum, 10.0);
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_EQ(NearestPointsLowerBound(similarity::DistanceAggregation::kMax,
                                    soa.View(), q, kInf),
            10.0);
  EXPECT_EQ(NearestPointsLowerBound(similarity::DistanceAggregation::kOther,
                                    soa.View(), q, kInf),
            0.0);
}

}  // namespace
}  // namespace simsub::algo
