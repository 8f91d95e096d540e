// The lower-bound pruning cascade must never change WHAT a top-k query
// returns — only how much work it does. Pruned results are compared
// bit-for-bit against the unpruned scan, across
// measures from each aggregation family (sum: DTW; max: Frechet, Hausdorff;
// other/no-MBR-bound: EDR) and across the bailout-aware algorithms
// (ExactS, SizeS, PSS). The subtrajectory-level top-k is held to the same
// contract across every built-in measure, filter and corpus format.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "algo/sizes.h"
#include "algo/splitting.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "similarity/edr.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"
#include "similarity/hausdorff.h"
#include "similarity/registry.h"
#include "util/random.h"

namespace simsub::engine {
namespace {

std::vector<geo::Trajectory> MakeDatabase(int count, uint64_t seed) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, count,
                                          seed);
  return std::move(d.trajectories);
}

// Queries cut from data trajectories (near matches exist, so pruning has
// teeth) plus one whole short trajectory.
std::vector<std::vector<geo::Point>> MakeQueries(
    const std::vector<geo::Trajectory>& db) {
  std::vector<std::vector<geo::Point>> queries;
  const auto& t0 = db[3].points();
  queries.emplace_back(t0.begin() + 5,
                       t0.begin() + std::min<size_t>(25, t0.size()));
  const auto& t1 = db[17].points();
  queries.emplace_back(t1.begin(), t1.begin() + std::min<size_t>(12, t1.size()));
  return queries;
}

void ExpectSameResults(const QueryReport& want, const QueryReport& got,
                       const std::string& label) {
  ASSERT_EQ(want.results.size(), got.results.size()) << label;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(want.results[i].trajectory_id, got.results[i].trajectory_id)
        << label << " rank " << i;
    EXPECT_EQ(want.results[i].range, got.results[i].range)
        << label << " rank " << i;
    // Bit-identical distances: pruning may only skip strictly-worse work.
    EXPECT_EQ(want.results[i].distance, got.results[i].distance)
        << label << " rank " << i;
  }
}

TEST(EnginePruneTest, PrunedTopKBitIdenticalAcrossMeasures) {
  std::vector<geo::Trajectory> db = MakeDatabase(36, 511);
  SimSubEngine engine(db);

  similarity::DtwMeasure dtw;
  similarity::FrechetMeasure frechet;
  similarity::HausdorffMeasure hausdorff;
  similarity::EdrMeasure edr(150.0);
  std::vector<const similarity::SimilarityMeasure*> measures = {
      &dtw, &frechet, &hausdorff, &edr};

  for (const auto& query : MakeQueries(db)) {
    for (const similarity::SimilarityMeasure* m : measures) {
      algo::ExactS search(m);
      for (int k : {1, 3, 7}) {
        QueryOptions unpruned;
        unpruned.k = k;
        unpruned.prune = false;
        QueryReport want = engine.Query(query, search, unpruned);

        QueryOptions pruned;
        pruned.k = k;
        pruned.prune = true;
        QueryReport got = engine.Query(query, search, pruned);
        ExpectSameResults(want, got, m->name() + " k=" + std::to_string(k));
      }
    }
  }
}

TEST(EnginePruneTest, PrunedSizeSAndPssMatchUnpruned) {
  std::vector<geo::Trajectory> db = MakeDatabase(24, 622);
  SimSubEngine engine(db);
  similarity::DtwMeasure dtw;
  algo::SizeS sizes(&dtw, /*xi=*/5);
  algo::PssSearch pss(&dtw);
  for (const auto& query : MakeQueries(db)) {
    for (const algo::SubtrajectorySearch* search :
         {static_cast<const algo::SubtrajectorySearch*>(&sizes),
          static_cast<const algo::SubtrajectorySearch*>(&pss)}) {
      QueryOptions unpruned;
      unpruned.k = 3;
      unpruned.prune = false;
      QueryReport want = engine.Query(query, *search, unpruned);
      QueryOptions pruned;
      pruned.k = 3;
      QueryReport got = engine.Query(query, *search, pruned);
      ExpectSameResults(want, got, search->name());
    }
  }
}

// Regression for the PSS bounded-scan early exit. The unsound variant
// (exiting once remaining candidates exceed the engine's BAILOUT rather
// than the scan's own running best) only misfires in a narrow geometry:
// the trajectory's true winner must be a post-split PREFIX segment whose
// distance dips below the bailout while every suffix candidate and the
// pre-split chain stay above it. Road-grid data never produces that shape;
// small databases of uniformly random trajectories with short in-box
// queries produce it reliably (this test fails 12+ times under the
// unsound exit).
TEST(EnginePruneTest, PrunedPssMatchesOnRandomBoxTrajectories) {
  util::Rng rng(978);
  similarity::DtwMeasure dtw;
  similarity::FrechetMeasure frechet;
  similarity::HausdorffMeasure hausdorff;
  algo::PssSearch pss_dtw(&dtw);
  algo::PssSearch pss_frechet(&frechet);
  algo::PssSearch pss_hausdorff(&hausdorff);

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<geo::Trajectory> db;
    int traj_count = 6 + trial % 5;
    for (int t = 0; t < traj_count; ++t) {
      std::vector<geo::Point> pts;
      int n = 10 + static_cast<int>(rng.Uniform(0.0, 20.0));
      for (int i = 0; i < n; ++i) {
        pts.emplace_back(rng.Uniform(-1000.0, 1000.0),
                         rng.Uniform(-1000.0, 1000.0));
      }
      db.emplace_back(std::move(pts), t);
    }
    SimSubEngine engine(db);
    std::vector<geo::Point> query;
    int m = 1 + trial % 4;
    for (int i = 0; i < m; ++i) {
      query.emplace_back(rng.Uniform(-1000.0, 1000.0),
                         rng.Uniform(-1000.0, 1000.0));
    }

    for (const algo::SubtrajectorySearch* search :
         {static_cast<const algo::SubtrajectorySearch*>(&pss_dtw),
          static_cast<const algo::SubtrajectorySearch*>(&pss_frechet),
          static_cast<const algo::SubtrajectorySearch*>(&pss_hausdorff)}) {
      for (int k : {1, 2, 3, 5}) {
        QueryOptions unpruned;
        unpruned.k = k;
        unpruned.prune = false;
        QueryReport want = engine.Query(query, *search, unpruned);
        QueryOptions pruned;
        pruned.k = k;
        QueryReport got = engine.Query(query, *search, pruned);
        ExpectSameResults(want, got,
                          search->name() + " random-box trial " +
                              std::to_string(trial) + " k=" +
                              std::to_string(k));
      }
    }
  }
}

// Trajectories the DTW/PSS corpus below must skip (of 1200 scanned).
constexpr int64_t kDtwPssSkipFloor = 900;

TEST(EnginePruneTest, CascadeActuallySkipsAndAbandons) {
  std::vector<geo::Trajectory> db = MakeDatabase(48, 733);
  SimSubEngine engine(db);
  similarity::DtwMeasure dtw;
  algo::ExactS search(&dtw);
  // Query cut from a data trajectory: an excellent best-so-far appears
  // early, so later trajectories should fall to the lower bounds.
  const auto& t = db[0].points();
  std::vector<geo::Point> query(t.begin(), t.begin() + 20);

  QueryOptions options;
  options.k = 1;
  QueryReport report = engine.Query(query, search, options);
  EXPECT_GT(report.lb_skipped, 0) << "MBR/nearest-points cascade inert";
  EXPECT_GT(report.dp_abandoned, 0) << "DP bailout inert";
  // Counters stay within the scan.
  EXPECT_LE(report.lb_skipped, report.trajectories_scanned);

  QueryOptions off;
  off.k = 1;
  off.prune = false;
  QueryReport unpruned = engine.Query(query, search, off);
  EXPECT_EQ(unpruned.lb_skipped, 0);
  EXPECT_EQ(unpruned.dp_abandoned, 0);
  ExpectSameResults(unpruned, report, "counters-query");

  // DTW under PSS, the paper's main configuration: PSS takes no DP
  // bailout, so the trajectory skip is its only pruning. Held-out queries
  // over a larger corpus, k = 10 as in the serving benchmark. Skipping on
  // the two query endpoints alone stays well under the floor; the
  // all-points bound clears it.
  std::vector<geo::Trajectory> corpus = MakeDatabase(400, 734);
  SimSubEngine dtw_engine(corpus);
  algo::PssSearch pss(&dtw);
  int64_t skipped = 0;
  int64_t scanned = 0;
  for (uint64_t seed : {735u, 736u, 737u}) {
    std::vector<geo::Trajectory> other = MakeDatabase(1, seed);
    const auto& pts = other.front().points();
    std::vector<geo::Point> held_out(
        pts.begin(), pts.begin() + std::min<size_t>(24, pts.size()));
    QueryOptions pss_options;
    pss_options.k = 10;
    QueryReport pruned = dtw_engine.Query(held_out, pss, pss_options);
    pss_options.prune = false;
    ExpectSameResults(dtw_engine.Query(held_out, pss, pss_options), pruned,
                      "dtw/pss seed " + std::to_string(seed));
    skipped += pruned.lb_skipped;
    scanned += pruned.trajectories_scanned;
  }
  EXPECT_GE(skipped, kDtwPssSkipFloor) << "of " << scanned << " scanned";
}

// Subtrajectory-level top-k, pruned vs unpruned, bit for bit: ids, ranges
// and distance bit patterns. Pruned runs share one evaluator cache across
// measures (the serving layer's reuse pattern) and run on both corpus
// formats: the in-memory engine (lazily built SoA columns) and one over a
// mapped snapshot (zero-copy columns).
TEST(EnginePruneTest, TopKSubtrajectoriesPrunedBitIdenticalToUnpruned) {
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 24, 955);
  const std::string path =
      (std::filesystem::temp_directory_path() / "simsub_prune_topk_sub.snap")
          .string();
  ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
  auto snapshot = data::CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // Cut queries find their source trajectory's near-duplicates first; a
  // held-out query spreads the top-k over several trajectories, so the
  // trajectory skip is exercised near the k-th distance too.
  std::vector<std::vector<geo::Point>> queries =
      MakeQueries(dataset.trajectories);
  for (uint64_t seed : {956u, 957u}) {
    data::Dataset other =
        data::GenerateDataset(data::DatasetKind::kPorto, 1, seed);
    const auto& held_out = other.trajectories.front().points();
    queries.emplace_back(held_out.begin(),
                         held_out.begin() +
                             std::min<size_t>(8, held_out.size()));
  }
  SimSubEngine mem_engine(std::move(dataset.trajectories));
  SimSubEngine snap_engine(**snapshot);
  for (SimSubEngine* engine : {&mem_engine, &snap_engine}) {
    engine->BuildIndex();
    engine->BuildInvertedIndex();
  }
  similarity::EvaluatorCache scratch;
  int64_t lb_skipped = 0;
  int64_t dp_abandoned = 0;

  for (const std::string& name : similarity::BuiltinMeasureNames()) {
    auto measure = similarity::MakeMeasure(name);
    ASSERT_TRUE(measure.ok()) << measure.status();
    for (const auto& query : queries) {
      for (PruningFilter filter : {PruningFilter::kNone, PruningFilter::kRTree,
                                   PruningFilter::kInvertedGrid}) {
        for (int k : {1, 3, 10}) {
          for (int min_size : {1, 2, 5}) {
            const std::string label =
                name + " filter=" + PruningFilterName(filter) +
                " k=" + std::to_string(k) +
                " min_size=" + std::to_string(min_size);
            QueryReport want = mem_engine.QueryTopKSubtrajectories(
                query, **measure, k, filter, min_size, {.prune = false});
            EXPECT_EQ(want.lb_skipped, 0) << label;
            EXPECT_EQ(want.dp_abandoned, 0) << label;
            for (const SimSubEngine* engine : {&mem_engine, &snap_engine}) {
              QueryReport got = engine->QueryTopKSubtrajectories(
                  query, **measure, k, filter, min_size,
                  {.prune = true, .scratch = &scratch});
              lb_skipped += got.lb_skipped;
              dp_abandoned += got.dp_abandoned;
              const std::string where =
                  label + (engine->from_snapshot() ? " snapshot" : " csv");
              ASSERT_EQ(want.results.size(), got.results.size()) << where;
              for (size_t i = 0; i < want.results.size(); ++i) {
                const TopKEntry& a = want.results[i];
                const TopKEntry& b = got.results[i];
                EXPECT_EQ(a.trajectory_id, b.trajectory_id)
                    << where << " #" << i;
                EXPECT_EQ(a.range, b.range) << where << " #" << i;
                EXPECT_EQ(std::bit_cast<uint64_t>(a.distance),
                          std::bit_cast<uint64_t>(b.distance))
                    << where << " #" << i;
              }
            }
          }
        }
      }
    }
  }
  // The comparison has teeth only if the pruned runs actually pruned.
  EXPECT_GT(lb_skipped, 0);
  EXPECT_GT(dp_abandoned, 0);
  std::filesystem::remove(path);
}

TEST(EnginePruneTest, TopKSubtrajectoriesCascadeSkipsAndAbandons) {
  std::vector<geo::Trajectory> db = MakeDatabase(48, 733);
  SimSubEngine engine(db);
  const auto& t = db[0].points();
  std::vector<geo::Point> query(t.begin(), t.begin() + 8);
  similarity::DtwMeasure dtw;
  similarity::FrechetMeasure frechet;
  for (const similarity::SimilarityMeasure* m :
       {static_cast<const similarity::SimilarityMeasure*>(&dtw),
        static_cast<const similarity::SimilarityMeasure*>(&frechet)}) {
    QueryReport report = engine.QueryTopKSubtrajectories(
        query, *m, /*k=*/10, PruningFilter::kNone, /*min_size=*/2);
    EXPECT_GT(report.lb_skipped, 0) << m->name() << ": trajectory skip inert";
    EXPECT_GT(report.dp_abandoned, 0) << m->name() << ": early abandon inert";
    EXPECT_LE(report.lb_skipped, report.trajectories_scanned);
  }
}

TEST(EnginePruneTest, ReportDefaultsAndPruneFlagPlumbed) {
  std::vector<geo::Trajectory> db = MakeDatabase(8, 844);
  SimSubEngine engine(db);
  similarity::EdrMeasure edr(100.0);  // kOther: no MBR bound applies
  algo::ExactS search(&edr);
  std::vector<geo::Point> query(db[1].points().begin(),
                                db[1].points().begin() + 10);
  QueryOptions options;
  options.k = 2;
  QueryReport report = engine.Query(query, search, options);
  EXPECT_EQ(report.lb_skipped, 0) << "kOther measures must skip the cascade";
  EXPECT_EQ(report.results.size(), 2u);
}

}  // namespace
}  // namespace simsub::engine
