// End-to-end deadline enforcement (QuerySpec::deadline_ms): a deadline
// expiring MID-EXECUTION stops the scan at per-trajectory granularity (per
// start point for topk-sub) and returns DeadlineExceeded with partial
// results; one expiring in the queue answers without running; and the
// no-deadline default never pays for a clock read it didn't ask for (same
// results as before the feature).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "data/generator.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/random.h"

namespace simsub::service {
namespace {

/// Big enough that an unpruned exhaustive scan takes well over the
/// millisecond-scale deadlines below on any machine.
QueryService MakeService(int threads, int trajectories = 150) {
  data::Dataset d =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 6001);
  ServiceOptions options;
  options.threads = threads;
  return QueryService(engine::SimSubEngine(std::move(d.trajectories)),
                      options);
}

geo::Trajectory SampleQuery() {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 2, 6002);
  return d.trajectories.front();
}

QuerySpec SlowSpec(const geo::Trajectory& query) {
  QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "exacts";
  spec.k = 5;
  spec.filter = engine::PruningFilter::kNone;  // full scan, no pruning
  return spec;
}

TEST(QueryServiceDeadlineTest, ExpiringMidScanReturnsDeadlineExceeded) {
  QueryService service = MakeService(1);
  geo::Trajectory query = SampleQuery();

  QuerySpec spec = SlowSpec(query);
  spec.deadline_ms = 1.0;  // expires mid-scan, far before a full pass
  engine::QueryReport report = service.RunOne(spec);

  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  // The scan STARTED (it was not a queue expiry) but stopped early: fewer
  // trajectories visited than the database holds.
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_LT(report.trajectories_scanned,
            static_cast<int64_t>(service.engine().database().size()));
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

TEST(QueryServiceDeadlineTest, TopkSubHonorsDeadlineMidEnumeration) {
  QueryService service = MakeService(1, 600);
  geo::Trajectory query = SampleQuery();

  QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "topk-sub";
  spec.prune = false;  // exhaustive subtrajectory enumeration
  spec.k = 5;
  spec.min_size = 2;
  spec.deadline_ms = 1.0;
  engine::QueryReport report = service.RunOne(spec);
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(report.trajectories_scanned,
            static_cast<int64_t>(service.engine().database().size()));
}

TEST(QueryServiceDeadlineTest, TopkSubDeadlineStopsInsideOneTrajectory) {
  // One 2400-point trajectory and a 300-point query: the unpruned
  // enumeration is ~2.9M subtrajectories x 300 query points (~860M DP
  // cells, seconds on any machine), and all of it sits inside a single
  // trajectory, so only the per-start-point check can stop it in time.
  util::Rng rng(6003);
  std::vector<geo::Point> walk;
  geo::Point p(0.0, 0.0);
  for (int i = 0; i < 2400; ++i) {
    p = geo::Point(p.x + rng.Uniform(-50.0, 50.0),
                   p.y + rng.Uniform(-50.0, 50.0));
    walk.push_back(p);
  }
  std::vector<geo::Point> query(walk.begin() + 1000, walk.begin() + 1300);
  std::vector<geo::Trajectory> db;
  db.emplace_back(std::move(walk), 0);
  ServiceOptions options;
  options.threads = 1;
  QueryService service(engine::SimSubEngine(std::move(db)), options);

  QuerySpec spec;
  spec.points = query;
  spec.measure = "dtw";
  spec.algorithm = "topk-sub";
  spec.prune = false;
  spec.k = 5;
  spec.deadline_ms = 1.0;
  engine::QueryReport report = service.RunOne(spec);
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.trajectories_scanned, 1);
  // A start point costs at most 2400 x 300 cells, well under a millisecond
  // (a few under sanitizers); the whole scan costs seconds.
  EXPECT_LT(report.seconds, 0.25);
}

TEST(QueryServiceDeadlineTest, QueueExpiryAnswersWithoutRunning) {
  QueryService service = MakeService(/*threads=*/1);
  geo::Trajectory query = SampleQuery();

  // The single worker is held by a slow no-deadline query; the next
  // request's 1 ms budget burns entirely in the dispatch queue.
  std::future<engine::QueryReport> hostage =
      service.Submit(SlowSpec(query));
  QuerySpec expiring = SlowSpec(query);
  expiring.deadline_ms = 1.0;
  std::future<engine::QueryReport> doomed = service.Submit(expiring);

  engine::QueryReport report = doomed.get();
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.trajectories_scanned, 0);
  EXPECT_TRUE(report.results.empty());
  EXPECT_GT(report.queue_seconds, 0.0);

  EXPECT_TRUE(hostage.get().status.ok());
}

TEST(QueryServiceDeadlineTest, GenerousDeadlineCompletesIdentically) {
  QueryService service = MakeService(2, 40);
  geo::Trajectory query = SampleQuery();

  QuerySpec unlimited;
  unlimited.points = query.View();
  unlimited.k = 5;
  engine::QueryReport baseline = service.RunOne(unlimited);
  ASSERT_TRUE(baseline.status.ok());

  QuerySpec bounded = unlimited;
  bounded.deadline_ms = 60'000.0;
  engine::QueryReport timed = service.RunOne(bounded);
  ASSERT_TRUE(timed.status.ok());

  ASSERT_EQ(timed.results.size(), baseline.results.size());
  for (size_t i = 0; i < baseline.results.size(); ++i) {
    EXPECT_EQ(timed.results[i].trajectory_id,
              baseline.results[i].trajectory_id);
    EXPECT_EQ(timed.results[i].range, baseline.results[i].range);
    EXPECT_EQ(timed.results[i].distance, baseline.results[i].distance);
  }
}

TEST(QueryServiceDeadlineTest, NegativeDeadlineIsInvalidArgument) {
  QueryService service = MakeService(2, 20);
  geo::Trajectory query = SampleQuery();
  QuerySpec spec;
  spec.points = query.View();
  spec.deadline_ms = -5.0;
  engine::QueryReport report = service.RunOne(spec);
  EXPECT_EQ(report.status.code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simsub::service
