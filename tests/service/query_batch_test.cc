// The async-vs-sequential contract: a spec served through the worker pool
// (SubmitBatch or Submit) must come back BIT-IDENTICAL to the same spec
// run inline through RunOne — same entries, same distance bits, same plan
// and the same scan counters (trajectories_scanned, lb_skipped,
// dp_abandoned), which depend on nothing but the query, the corpus and the
// options, since each query is one sequential scan. The property test
// sweeps seeds x worker counts x prune on/off over a batch that mixes
// measures, per-trajectory algorithms, "topk-sub", "random-s" and an
// invalid spec. This is the determinism contract the CI TSan job and the
// isa-matrix legs both lean on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "service/query_spec.h"

namespace simsub::service {
namespace {

void ExpectSameReport(const engine::QueryReport& got,
                      const engine::QueryReport& want, const std::string& tag) {
  EXPECT_EQ(got.status.code(), want.status.code()) << tag;
  EXPECT_EQ(got.filter_used, want.filter_used) << tag;
  EXPECT_EQ(got.trajectories_scanned, want.trajectories_scanned) << tag;
  EXPECT_EQ(got.trajectories_pruned, want.trajectories_pruned) << tag;
  EXPECT_EQ(got.lb_skipped, want.lb_skipped) << tag;
  EXPECT_EQ(got.dp_abandoned, want.dp_abandoned) << tag;
  ASSERT_EQ(got.results.size(), want.results.size()) << tag;
  for (size_t j = 0; j < want.results.size(); ++j) {
    EXPECT_EQ(got.results[j].trajectory_id, want.results[j].trajectory_id)
        << tag << " entry " << j;
    EXPECT_EQ(got.results[j].range, want.results[j].range)
        << tag << " entry " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.results[j].distance),
              std::bit_cast<uint64_t>(want.results[j].distance))
        << tag << " entry " << j;
  }
}

// A deliberately heterogeneous batch over `workload`: three measures
// crossed with three per-trajectory algorithms, a topk-sub spec, a
// random-s spec, and (last) one invalid spec.
std::vector<QuerySpec> MixedSpecs(
    const std::vector<data::WorkloadPair>& workload) {
  const char* measures[] = {"dtw", "frechet", "cdtw"};
  const char* algorithms[] = {"exacts", "pss", "sizes"};
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec;
    spec.points = workload[i].query.View();
    spec.measure = measures[i % 3];
    spec.algorithm = algorithms[(i / 3) % 3];
    spec.k = 4;
    specs.push_back(spec);
  }
  QuerySpec topk;
  topk.points = workload[0].query.View();
  topk.algorithm = "topk-sub";
  topk.k = 5;
  topk.min_size = 2;
  specs.push_back(topk);
  QuerySpec rnd;
  rnd.points = workload[1].query.View();
  rnd.algorithm = "random-s";
  rnd.k = 3;
  specs.push_back(rnd);
  QuerySpec bad;
  bad.points = workload[2].query.View();
  bad.k = 0;  // invalid
  specs.push_back(bad);
  return specs;
}

TEST(QueryBatchTest, AsyncMatchesSequentialAcrossWorkersAndPrune) {
  for (uint64_t seed : {101u, 202u}) {
    data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 36,
                                            4500 + seed);
    auto workload = data::SampleWorkload(d, 9, 4600 + seed);
    for (int workers : {1, 2, 8}) {
      for (bool prune : {true, false}) {
        ServiceOptions options;
        options.threads = workers;
        options.prune = prune;
        data::Dataset copy = d;
        QueryService service(
            engine::SimSubEngine(std::move(copy.trajectories)), options);
        const std::vector<QuerySpec> specs = MixedSpecs(workload);

        // The batch path and the one-spec path, both in flight at once.
        auto batch = service.SubmitBatch(specs);
        std::vector<std::future<engine::QueryReport>> singles;
        for (const QuerySpec& spec : specs) {
          singles.push_back(service.Submit(spec));
        }
        ASSERT_EQ(batch.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
          const std::string tag =
              "seed=" + std::to_string(seed) + " workers=" +
              std::to_string(workers) + " prune=" + std::to_string(prune) +
              " spec=" + std::to_string(i) + " (" + specs[i].measure + "/" +
              specs[i].algorithm + ")";
          engine::QueryReport want = service.RunOne(specs[i]);
          engine::QueryReport got = batch[i].get();
          ExpectSameReport(got, want, tag + " SubmitBatch");
          ExpectSameReport(singles[i].get(), want, tag + " Submit");
          if (i + 1 == specs.size()) {
            EXPECT_EQ(got.status.code(), util::StatusCode::kInvalidArgument)
                << tag;
          } else {
            EXPECT_TRUE(got.status.ok()) << tag << ": " << got.status.message();
          }
        }

        ServiceStats stats = service.stats();
        EXPECT_EQ(stats.batches_served, 1);
        // The bad spec, once per serving path (batch, single, RunOne).
        EXPECT_EQ(stats.rejected, 3);
        EXPECT_EQ(stats.failed, 0);
        if (!prune) {
          EXPECT_EQ(stats.lb_skipped, 0);
          EXPECT_EQ(stats.dp_abandoned, 0);
        }
      }
    }
  }
}

// The comparison has teeth only if the pruned runs actually pruned: the
// counters asserted equal above must be non-trivial somewhere.
TEST(QueryBatchTest, PrunedBatchExercisesTheCascade) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 36, 4601);
  auto workload = data::SampleWorkload(d, 9, 4602);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       options);
  int64_t lb_skipped = 0;
  int64_t dp_abandoned = 0;
  for (auto& future : service.SubmitBatch(MixedSpecs(workload))) {
    engine::QueryReport report = future.get();
    lb_skipped += report.lb_skipped;
    dp_abandoned += report.dp_abandoned;
  }
  EXPECT_GT(lb_skipped, 0);
  EXPECT_GT(dp_abandoned, 0);
}

// QueryBatch is a loop over Query: each report equals the one-query call
// with the matching per-query options, filters mixed across the batch.
TEST(QueryBatchTest, EngineQueryBatchMatchesQueryBitwise) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 32, 4900);
  auto workload = data::SampleWorkload(d, 5, 4901);
  engine::SimSubEngine engine(std::move(d.trajectories));
  engine.BuildIndex();
  auto measure = similarity::MakeMeasure("dtw");
  ASSERT_TRUE(measure.ok());
  auto search = algo::MakeSearch("exacts", measure->get());
  ASSERT_TRUE(search.ok());

  std::vector<engine::BatchedQueryView> views;
  for (size_t i = 0; i < workload.size(); ++i) {
    engine::BatchedQueryView v;
    v.points = workload[i].query.View();
    v.k = 3;
    v.filter = (i % 2 == 0) ? engine::PruningFilter::kNone
                            : engine::PruningFilter::kRTree;
    views.push_back(v);
  }
  for (bool prune : {true, false}) {
    engine::BatchQueryOptions bo;
    bo.prune = prune;
    auto batch = engine.QueryBatch(views, **search, bo);
    ASSERT_EQ(batch.size(), views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      engine::QueryOptions qo;
      qo.k = views[i].k;
      qo.filter = views[i].filter;
      qo.prune = prune;
      ExpectSameReport(batch[i], engine.Query(views[i].points, **search, qo),
                       "prune=" + std::to_string(prune) + " q=" +
                           std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace simsub::service
