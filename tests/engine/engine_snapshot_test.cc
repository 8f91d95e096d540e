// Property test for the snapshot-backed engine: for random generated
// corpora, an engine constructed over a mmap'd snapshot must return
// BIT-identical top-k results to the in-memory engine built from the same
// trajectories — pruned and unpruned, under every candidate filter, and
// served through a query service at any worker count — and the planner
// must see identical persisted statistics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "service/planner.h"
#include "service/query_service.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"

namespace simsub::engine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectSameResults(const QueryReport& a, const QueryReport& b,
                       const std::string& context) {
  ASSERT_EQ(a.results.size(), b.results.size()) << context;
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].trajectory_id, b.results[i].trajectory_id)
        << context << " entry " << i;
    EXPECT_EQ(a.results[i].range, b.results[i].range)
        << context << " entry " << i;
    // Exact floating-point equality: the snapshot path must read the very
    // same coordinate bits, so every computed distance matches exactly.
    EXPECT_EQ(a.results[i].distance, b.results[i].distance)
        << context << " entry " << i;
  }
  EXPECT_EQ(a.trajectories_scanned, b.trajectories_scanned) << context;
  EXPECT_EQ(a.lb_skipped, b.lb_skipped) << context;
  EXPECT_EQ(a.dp_abandoned, b.dp_abandoned) << context;
}

TEST(EngineSnapshotTest, SnapshotEngineIsBitIdenticalToInMemory) {
  similarity::DtwMeasure dtw;
  similarity::FrechetMeasure frechet;  // max-aggregating cascade path
  algo::ExactS exact_dtw(&dtw);
  algo::ExactS exact_frechet(&frechet);
  struct Case {
    const algo::SubtrajectorySearch* search;
    const char* label;
  };
  const Case cases[] = {{&exact_dtw, "dtw"}, {&exact_frechet, "frechet"}};

  for (uint64_t seed : {11u}) {
    for (data::DatasetKind kind :
         {data::DatasetKind::kPorto, data::DatasetKind::kHarbin}) {
      data::Dataset dataset = data::GenerateDataset(kind, 30, seed);
      auto workload = data::SampleWorkload(dataset, 2, seed + 1);

      std::string path = TempPath("simsub_engine_snapshot_prop.snap");
      ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
      auto snapshot = data::CorpusSnapshot::Open(path);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();

      SimSubEngine mem_engine(std::move(dataset.trajectories));
      SimSubEngine snap_engine(**snapshot);
      ASSERT_TRUE(snap_engine.from_snapshot());
      ASSERT_FALSE(mem_engine.from_snapshot());
      mem_engine.BuildIndex();
      snap_engine.BuildIndex();
      mem_engine.BuildInvertedIndex();
      snap_engine.BuildInvertedIndex();

      for (const auto& pair : workload) {
        for (const Case& c : cases) {
          for (bool prune : {false, true}) {
            for (PruningFilter filter :
                 {PruningFilter::kNone, PruningFilter::kRTree,
                  PruningFilter::kInvertedGrid}) {
              QueryOptions qo;
              qo.k = 5;
              qo.filter = filter;
              qo.prune = prune;
              QueryReport a =
                  mem_engine.Query(pair.query.View(), *c.search, qo);
              QueryReport b =
                  snap_engine.Query(pair.query.View(), *c.search, qo);
              ExpectSameResults(
                  a, b,
                  std::string(c.label) + " prune=" + std::to_string(prune) +
                      " filter=" + PruningFilterName(filter) + " seed=" +
                      std::to_string(seed));
            }
          }
        }
      }
      std::remove(path.c_str());
    }
  }
}

TEST(EngineSnapshotTest, PlannerSeesIdenticalPersistedStats) {
  data::Dataset dataset = data::GenerateDataset(data::DatasetKind::kPorto,
                                                30, 99);
  std::string path = TempPath("simsub_engine_snapshot_stats.snap");
  ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
  auto snapshot = data::CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  SimSubEngine mem_engine(std::move(dataset.trajectories));
  SimSubEngine snap_engine(**snapshot);
  // The snapshot engine loads stats from the persisted header; they must be
  // bit-identical to the in-memory statistics pass, so the planner makes
  // exactly the same decisions over either engine.
  EXPECT_EQ(mem_engine.corpus_stats().extent,
            snap_engine.corpus_stats().extent);
  EXPECT_EQ(mem_engine.corpus_stats().mean_trajectory_width,
            snap_engine.corpus_stats().mean_trajectory_width);
  EXPECT_EQ(mem_engine.corpus_stats().mean_trajectory_height,
            snap_engine.corpus_stats().mean_trajectory_height);

  service::QueryPlanner mem_planner(mem_engine);
  service::QueryPlanner snap_planner(snap_engine);
  EXPECT_EQ(mem_planner.extent(), snap_planner.extent());
  EXPECT_EQ(mem_planner.mean_trajectory_width(),
            snap_planner.mean_trajectory_width());
  EXPECT_EQ(mem_planner.mean_trajectory_height(),
            snap_planner.mean_trajectory_height());
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, QueryServiceOverSnapshotMatchesInMemoryService) {
  data::Dataset dataset = data::GenerateDataset(data::DatasetKind::kPorto,
                                                30, 7);
  auto workload = data::SampleWorkload(dataset, 6, 8);
  std::string path = TempPath("simsub_engine_snapshot_service.snap");
  ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
  auto snapshot = data::CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  std::vector<service::QuerySpec> specs;
  for (const auto& pair : workload) {
    service::QuerySpec spec;
    spec.points = pair.query.View();
    spec.k = 4;
    specs.push_back(spec);
  }
  // The in-memory service answers each spec inline: the reference.
  service::ServiceOptions inline_options;
  inline_options.threads = 1;
  service::QueryService mem_service(SimSubEngine(dataset.trajectories),
                                    inline_options);
  std::vector<QueryReport> mem_reports;
  for (const auto& spec : specs) mem_reports.push_back(mem_service.RunOne(spec));

  for (int workers : {1, 3}) {
    service::ServiceOptions options;
    options.threads = workers;
    service::QueryService snap_service(**snapshot, options);
    auto futures = snap_service.SubmitBatch(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      QueryReport snap = futures[i].get();
      // Identical stats => identical plans => identical candidate sets.
      EXPECT_EQ(mem_reports[i].filter_used, snap.filter_used);
      EXPECT_EQ(mem_reports[i].planned_selectivity, snap.planned_selectivity);
      ExpectSameResults(mem_reports[i], snap,
                        "service query " + std::to_string(i) + " workers=" +
                            std::to_string(workers));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simsub::engine
