// Subtrajectory-level top-k (paper Section 3.1: the exact enumeration,
// "simply maintaining the k most similar subtrajectories"), run through
// SimSubEngine::QueryTopKSubtrajectories over small databases. Every query
// runs with the pruning cascade on and off, and the two must agree bit for
// bit.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "algo/exacts.h"
#include "engine/engine.h"
#include "similarity/dtw.h"
#include "util/random.h"

namespace simsub::algo {
namespace {

using engine::TopKEntry;
using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

similarity::DtwMeasure kDtw;

/// Top-k over `db`, pruned; EXPECTs the unpruned run to match bit for bit.
std::vector<TopKEntry> TopK(std::vector<geo::Trajectory> db,
                            const std::vector<Point>& query, int k,
                            int min_size = 1) {
  engine::SimSubEngine engine(std::move(db));
  auto run = [&](bool prune) {
    return engine
        .QueryTopKSubtrajectories(query, kDtw, k, engine::PruningFilter::kNone,
                                  min_size, {.prune = prune})
        .results;
  };
  std::vector<TopKEntry> pruned = run(true);
  std::vector<TopKEntry> unpruned = run(false);
  EXPECT_EQ(pruned.size(), unpruned.size());
  for (size_t i = 0; i < std::min(pruned.size(), unpruned.size()); ++i) {
    EXPECT_EQ(pruned[i].trajectory_id, unpruned[i].trajectory_id) << i;
    EXPECT_EQ(pruned[i].range, unpruned[i].range) << i;
    EXPECT_EQ(std::memcmp(&pruned[i].distance, &unpruned[i].distance,
                          sizeof(double)),
              0)
        << i;
  }
  return pruned;
}

std::vector<TopKEntry> TopK(const std::vector<Point>& data,
                            const std::vector<Point>& query, int k,
                            int min_size = 1) {
  return TopK({geo::Trajectory(data, 0)}, query, k, min_size);
}

TEST(TopKSubtrajectoriesTest, Top1MatchesExactS) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> data, query;
    for (int i = 0; i < 12; ++i) {
      data.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    for (int i = 0; i < 4; ++i) {
      query.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    auto top = TopK(data, query, 1);
    ASSERT_EQ(top.size(), 1u);
    ExactS exact(&kDtw);
    auto r = exact.Search(data, query);
    EXPECT_DOUBLE_EQ(top[0].distance, r.distance);
    EXPECT_EQ(top[0].range, r.best);
  }
}

TEST(TopKSubtrajectoriesTest, ResultsAreDistinctAndSorted) {
  auto data = Line({3, 1, 4, 1, 5, 9, 2, 6});
  auto query = Line({1, 5});
  auto top = TopK(data, query, 10);
  ASSERT_EQ(top.size(), 10u);
  std::set<std::pair<int, int>> ranges;
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(ranges.emplace(top[i].range.start, top[i].range.end).second);
    if (i > 0) {
      EXPECT_GE(top[i].distance, top[i - 1].distance);
    }
  }
}

TEST(TopKSubtrajectoriesTest, KLargerThanCandidateCount) {
  auto top = TopK(Line({1, 2}), Line({1}), 100);
  EXPECT_EQ(top.size(), 3u);  // (0,0), (1,1), (0,1)
}

TEST(TopKSubtrajectoriesTest, MinSizeFiltersShortCandidates) {
  auto top = TopK(Line({1, 2, 3, 4, 5}), Line({1, 2}), 100, /*min_size=*/3);
  for (const auto& entry : top) {
    EXPECT_GE(entry.range.size(), 3);
  }
  // Candidates of sizes 3..5: 3 + 2 + 1 = 6.
  EXPECT_EQ(top.size(), 6u);
}

TEST(TopKSubtrajectoriesTest, DistancesMatchReScoring) {
  util::Rng rng(9);
  std::vector<Point> data, query;
  for (int i = 0; i < 10; ++i) {
    data.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  }
  for (int i = 0; i < 3; ++i) {
    query.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  }
  for (const auto& entry : TopK(data, query, 5)) {
    std::span<const Point> sub(&data[static_cast<size_t>(entry.range.start)],
                               static_cast<size_t>(entry.range.size()));
    EXPECT_NEAR(entry.distance, similarity::DtwDistance(sub, query), 1e-9);
  }
}

// Ties at the k-th distance still enter through the (id, range) tie-break,
// so the threshold must reject only strictly larger distances: the
// trajectory scanned second (smaller id) must displace the first one's
// equally distant entries.
TEST(TopKSubtrajectoriesTest, TiesAtTheKthDistanceStillEnter) {
  auto flat = Line({1, 1, 1});
  auto top = TopK({geo::Trajectory(flat, 7), geo::Trajectory(flat, 2)},
                  Line({1}), 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].trajectory_id, 2);
  EXPECT_EQ(top[0].range, geo::SubRange(0, 0));
  EXPECT_EQ(top[1].trajectory_id, 2);
  EXPECT_EQ(top[1].range, geo::SubRange(0, 1));
  EXPECT_EQ(top[1].distance, 0.0);
}

}  // namespace
}  // namespace simsub::algo
