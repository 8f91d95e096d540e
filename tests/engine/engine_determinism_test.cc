// Regression tests for top-k tie-break determinism: with equal-distance
// candidates (e.g. duplicated trajectories), a heap without a total order
// keeps an arbitrary subset of the ties. The total order (distance,
// trajectory_id, range.start, range.end) pins the answer, and it must stay
// pinned when many queries run at once on the service's worker pool.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "data/generator.h"
#include "service/query_service.h"
#include "similarity/dtw.h"

namespace simsub::engine {
namespace {

similarity::DtwMeasure kDtw;

QueryReport RunQuery(const SimSubEngine& engine, std::span<const geo::Point> query,
                const algo::SubtrajectorySearch& search, int k) {
  QueryOptions options;
  options.k = k;
  return engine.Query(query, search, options);
}

// Serves `copies` identical specs concurrently on a `workers`-wide pool.
std::vector<QueryReport> ServeConcurrently(std::vector<geo::Trajectory> db,
                                           std::span<const geo::Point> query,
                                           int k, int workers, int copies) {
  service::ServiceOptions options;
  options.threads = workers;
  service::QueryService service(SimSubEngine(std::move(db)), options);
  service::QuerySpec spec;
  spec.points = query;
  spec.k = k;
  spec.filter = PruningFilter::kNone;
  std::vector<service::QuerySpec> specs(static_cast<size_t>(copies), spec);
  std::vector<QueryReport> reports;
  for (auto& future : service.SubmitBatch(specs)) {
    reports.push_back(future.get());
  }
  return reports;
}

// Database of `copies` identical trajectories (distinct ids) plus a few
// distinct decoys: every copy ties at distance 0 against the copy-query.
std::vector<geo::Trajectory> TiedDatabase(int copies) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 8, 903);
  std::vector<geo::Trajectory> db;
  for (int c = 0; c < copies; ++c) {
    geo::Trajectory copy = d.trajectories[0];
    copy.set_id(100 + c);
    db.push_back(std::move(copy));
  }
  for (int i = 1; i < 5; ++i) {
    db.push_back(d.trajectories[static_cast<size_t>(i)]);
    db.back().set_id(i);
  }
  return db;
}

TEST(EngineDeterminismTest, EntryBetterIsAStrictTotalOrder) {
  TopKEntry a{1, geo::SubRange(0, 3), 2.0};
  TopKEntry b{2, geo::SubRange(0, 3), 2.0};
  TopKEntry c{1, geo::SubRange(1, 3), 2.0};
  TopKEntry d{1, geo::SubRange(0, 4), 2.0};
  EXPECT_TRUE(EntryBetter(a, b));   // id breaks the distance tie
  EXPECT_FALSE(EntryBetter(b, a));
  EXPECT_TRUE(EntryBetter(a, c));   // range.start breaks the id tie
  EXPECT_TRUE(EntryBetter(a, d));   // range.end breaks the start tie
  EXPECT_FALSE(EntryBetter(a, a));  // irreflexive
  EXPECT_TRUE(EntryBetter(TopKEntry{9, {}, 1.0}, a));  // distance first
}

TEST(EngineDeterminismTest, TiedEntriesKeepSmallestIdsAtAnyWorkerCount) {
  std::vector<geo::Trajectory> db = TiedDatabase(6);
  // 6 copies tie at distance 0; k = 3 must keep ids 100, 101, 102 — the
  // smallest under the total order — directly and on any pool width.
  std::span<const geo::Point> query = db[0].View();
  SimSubEngine engine(db);
  algo::ExactS exact(&kDtw);
  std::vector<QueryReport> reports = {RunQuery(engine, query, exact, 3)};
  for (int workers : {1, 2, 3, 8}) {
    for (QueryReport& r : ServeConcurrently(db, query, 3, workers, 4)) {
      reports.push_back(std::move(r));
    }
  }
  for (size_t r = 0; r < reports.size(); ++r) {
    ASSERT_EQ(reports[r].results.size(), 3u) << "report " << r;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(reports[r].results[static_cast<size_t>(i)].trajectory_id,
                100 + i)
          << "report " << r;
      EXPECT_EQ(reports[r].results[static_cast<size_t>(i)].distance, 0.0)
          << "report " << r;
    }
  }
}

TEST(EngineDeterminismTest, RepeatedConcurrentQueriesAreIdentical) {
  std::vector<geo::Trajectory> db = TiedDatabase(4);
  std::span<const geo::Point> query = db[0].View();
  std::vector<QueryReport> reports =
      ServeConcurrently(db, query, 5, /*workers=*/4, /*copies=*/6);
  const QueryReport& first = reports.front();
  for (size_t run = 1; run < reports.size(); ++run) {
    const QueryReport& again = reports[run];
    ASSERT_EQ(again.results.size(), first.results.size()) << "run " << run;
    EXPECT_EQ(again.trajectories_scanned, first.trajectories_scanned);
    EXPECT_EQ(again.lb_skipped, first.lb_skipped);
    EXPECT_EQ(again.dp_abandoned, first.dp_abandoned);
    for (size_t i = 0; i < first.results.size(); ++i) {
      EXPECT_EQ(again.results[i].trajectory_id,
                first.results[i].trajectory_id);
      EXPECT_EQ(again.results[i].range, first.results[i].range);
      EXPECT_EQ(again.results[i].distance, first.results[i].distance);
    }
  }
}

TEST(EngineDeterminismTest, ResultsAscendUnderTheTotalOrder) {
  std::vector<geo::Trajectory> db = TiedDatabase(5);
  SimSubEngine engine(db);
  algo::ExactS exact(&kDtw);
  QueryReport report = RunQuery(engine, db[0].View(), exact, 9);
  for (size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_TRUE(EntryBetter(report.results[i - 1], report.results[i]))
        << "entries " << i - 1 << " and " << i;
  }
}

}  // namespace
}  // namespace simsub::engine
