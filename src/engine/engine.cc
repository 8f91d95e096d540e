#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <queue>
#include <vector>

#include "algo/lower_bounds.h"
#include "data/snapshot.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace simsub::engine {

namespace {

// Max-heap under EntryBetter keeps the k best entries (worst on top).
struct WorseEntry {
  bool operator()(const TopKEntry& a, const TopKEntry& b) const {
    return EntryBetter(a, b);
  }
};
using TopKHeap =
    std::priority_queue<TopKEntry, std::vector<TopKEntry>, WorseEntry>;

void OfferEntry(TopKHeap& heap, int k, const TopKEntry& entry) {
  if (static_cast<int>(heap.size()) < k) {
    heap.push(entry);
  } else if (EntryBetter(entry, heap.top())) {
    heap.pop();
    heap.push(entry);
  }
}

std::vector<TopKEntry> ExtractAscending(TopKHeap& heap) {
  std::vector<TopKEntry> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

// The cooperative stop check of every scan, polled between units of work:
// a relaxed load of the cancel flag (noise next to one DP row), and the
// clock only when a deadline was set. On a stop, writes the report status
// and returns true.
bool Interrupted(const std::atomic<bool>* cancel,
                 std::chrono::steady_clock::time_point deadline,
                 util::Status* status) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    *status = util::Status::Cancelled("query cancelled mid-scan");
    return true;
  }
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline) {
    *status = util::Status::DeadlineExceeded(
        "deadline expired mid-scan (partial results)");
    return true;
  }
  return false;
}

}  // namespace

const char* PruningFilterName(PruningFilter filter) {
  switch (filter) {
    case PruningFilter::kNone:
      return "none";
    case PruningFilter::kRTree:
      return "rtree";
    case PruningFilter::kInvertedGrid:
      return "grid";
  }
  return "?";
}

bool EntryBetter(const TopKEntry& a, const TopKEntry& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.trajectory_id != b.trajectory_id) {
    return a.trajectory_id < b.trajectory_id;
  }
  if (a.range.start != b.range.start) return a.range.start < b.range.start;
  return a.range.end < b.range.end;
}

SimSubEngine::SimSubEngine(std::vector<geo::Trajectory> database)
    : database_(std::move(database)), soa_(std::make_unique<SoaCache>()) {
  SIMSUB_CHECK(!database_.empty());
  mbrs_.reserve(database_.size());
  for (const auto& t : database_) {
    mbrs_.push_back(geo::ComputeMbr(t.View()));
  }
  corpus_stats_ = geo::ComputeCorpusStats(mbrs_);
}

SimSubEngine::SimSubEngine(const data::CorpusSnapshot& snapshot)
    : database_(snapshot.MaterializeTrajectories()),
      mbrs_(snapshot.mbrs()),
      corpus_stats_(snapshot.stats()),
      store_(snapshot.store()),
      soa_(std::make_unique<SoaCache>()) {
  SIMSUB_CHECK(!database_.empty());
}

const geo::PointsStore& SimSubEngine::EnsureSoa() const {
  if (store_ != nullptr) return *store_;
  if (!soa_->ready.load(std::memory_order_acquire)) {
    util::MutexLock lock(soa_->mu);
    if (!soa_->ready.load(std::memory_order_relaxed)) {
      soa_->store = geo::PointsStore::FromTrajectories(database_);
      soa_->ready.store(true, std::memory_order_release);
    }
  }
  return soa_->published();
}

int64_t SimSubEngine::TotalPoints() const {
  int64_t total = 0;
  for (const auto& t : database_) total += t.size();
  return total;
}

void SimSubEngine::BuildIndex(int node_capacity) {
  if (index_.has_value()) return;
  std::vector<index::RTreeEntry> entries;
  entries.reserve(database_.size());
  for (size_t i = 0; i < database_.size(); ++i) {
    entries.push_back(index::RTreeEntry{mbrs_[i], static_cast<int64_t>(i)});
  }
  index_ = index::RTree::BulkLoad(std::move(entries), node_capacity);
}

void SimSubEngine::BuildInvertedIndex(int cols, int rows) {
  if (inverted_.has_value()) return;
  // The corpus extent hydrates from construction-time statistics — persisted
  // envelope stats when the engine sits on a snapshot — instead of being
  // re-folded from the MBR cache here.
  inverted_ = index::InvertedGridIndex::Build(database_, corpus_stats_.extent,
                                              cols, rows);
}

std::vector<int64_t> SimSubEngine::CandidateOrdinals(
    std::span<const geo::Point> query, PruningFilter filter,
    double index_margin) const {
  switch (filter) {
    case PruningFilter::kRTree: {
      SIMSUB_CHECK(index_.has_value()) << "BuildIndex() before R-tree query";
      geo::Mbr qmbr = geo::ComputeMbr(query).Inflated(index_margin);
      std::vector<int64_t> out = index_->QueryIntersects(qmbr);
      std::sort(out.begin(), out.end());
      return out;
    }
    case PruningFilter::kInvertedGrid: {
      SIMSUB_CHECK(inverted_.has_value())
          << "BuildInvertedIndex() before grid query";
      return inverted_->QueryCandidates(query);
    }
    case PruningFilter::kNone:
      break;
  }
  std::vector<int64_t> all(database_.size());
  for (size_t i = 0; i < database_.size(); ++i) {
    all[i] = static_cast<int64_t>(i);
  }
  return all;
}

similarity::DistanceAggregation SimSubEngine::CascadeAggregation(
    const similarity::SimilarityMeasure* measure) const {
  const similarity::DistanceAggregation agg =
      measure != nullptr ? measure->aggregation()
                         : similarity::DistanceAggregation::kOther;
  // Build the lazy SoA cache before the scan, not inside its first bound.
  if (agg != similarity::DistanceAggregation::kOther) EnsureSoa();
  return agg;
}

bool SimSubEngine::CascadeSkips(similarity::DistanceAggregation agg,
                                int64_t ordinal,
                                std::span<const geo::Point> query,
                                double threshold) const {
  // O(1) MBR endpoint bound, then the early-abandoned all-points bound over
  // the cached SoA copy. Both bound dist(sub, query) for EVERY
  // subtrajectory, so a strict excess over the threshold discards the
  // whole trajectory.
  if (threshold == std::numeric_limits<double>::infinity() ||
      agg == similarity::DistanceAggregation::kOther) {
    return false;
  }
  return algo::MbrLowerBound(agg, TrajectoryMbr(ordinal), query) >
             threshold ||
         algo::NearestPointsLowerBound(agg, TrajectorySoa(ordinal), query,
                                       threshold) > threshold;
}

QueryReport SimSubEngine::Query(std::span<const geo::Point> query,
                                const algo::SubtrajectorySearch& search,
                                const QueryOptions& options) const {
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK_GT(options.k, 0);
  util::Stopwatch timer;
  QueryReport report;
  report.filter_used = options.filter;
  // Ascending ordinals for every filter: the scan order is fixed.
  const std::vector<int64_t> candidates =
      CandidateOrdinals(query, options.filter, options.index_margin);
  report.trajectories_pruned = static_cast<int64_t>(database_.size()) -
                               static_cast<int64_t>(candidates.size());

  const similarity::DistanceAggregation agg =
      CascadeAggregation(options.prune ? search.measure() : nullptr);
  similarity::EvaluatorCache local_scratch;
  similarity::EvaluatorCache* scratch =
      options.scratch != nullptr ? options.scratch : &local_scratch;

  // The heap's k-th distance is the pruning threshold once it fills: a
  // candidate whose distance provably exceeds it is strictly worse than k
  // kept entries and can never enter — not even through the (distance, id,
  // range) tie-break, which requires distance equality.
  TopKHeap heap;
  double threshold = std::numeric_limits<double>::infinity();
  for (int64_t ordinal : candidates) {
    if (Interrupted(options.cancel, options.deadline, &report.status)) break;
    const geo::Trajectory& traj = database_[static_cast<size_t>(ordinal)];
    if (traj.empty()) continue;
    ++report.trajectories_scanned;
    if (CascadeSkips(agg, ordinal, query, threshold)) {
      ++report.lb_skipped;
      continue;
    }
    algo::SearchResult r =
        options.prune ? search.Search(traj.View(), query, scratch, threshold)
                      : search.Search(traj.View(), query, scratch);
    report.dp_abandoned += r.stats.abandoned;
    OfferEntry(heap, options.k, TopKEntry{traj.id(), r.best, r.distance});
    if (options.prune && static_cast<int>(heap.size()) == options.k) {
      threshold = heap.top().distance;
    }
  }
  report.results = ExtractAscending(heap);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

std::vector<QueryReport> SimSubEngine::QueryBatch(
    std::span<const BatchedQueryView> queries,
    const algo::SubtrajectorySearch& search,
    const BatchQueryOptions& options) const {
  std::vector<QueryReport> reports;
  reports.reserve(queries.size());
  for (const BatchedQueryView& q : queries) {
    QueryOptions qo;
    qo.k = q.k;
    qo.filter = q.filter;
    qo.index_margin = options.index_margin;
    qo.scratch = options.scratch;
    qo.prune = options.prune;
    qo.cancel = q.cancel;
    qo.deadline = q.deadline;
    reports.push_back(Query(q.points, search, qo));
  }
  return reports;
}

QueryReport SimSubEngine::QueryTopKSubtrajectories(
    std::span<const geo::Point> query,
    const similarity::SimilarityMeasure& measure, int k, PruningFilter filter,
    int min_size, const SubtrajectoryTopKOptions& options) const {
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK_GT(k, 0);
  SIMSUB_CHECK_GE(min_size, 1);
  util::Stopwatch timer;
  QueryReport report;
  report.filter_used = filter;
  std::vector<int64_t> candidates =
      CandidateOrdinals(query, filter, /*index_margin=*/0.0);
  report.trajectories_pruned = static_cast<int64_t>(database_.size()) -
                               static_cast<int64_t>(candidates.size());

  const similarity::DistanceAggregation agg =
      CascadeAggregation(options.prune ? &measure : nullptr);
  std::unique_ptr<similarity::PrefixEvaluator> owned;
  similarity::PrefixEvaluator* eval =
      similarity::AcquireEvaluator(measure, query, options.scratch, &owned);

  // One global heap; its k-th distance is the admission threshold (+inf
  // until it fills). A candidate strictly above it is worse than k kept
  // entries and can never enter; one equal to it still can, through the
  // EntryBetter tie-break.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  TopKHeap heap;
  double threshold = kInf;
  auto offer = [&](int64_t id, geo::SubRange range, double distance) {
    if (distance > threshold) return;
    OfferEntry(heap, k, TopKEntry{id, range, distance});
    if (static_cast<int>(heap.size()) == k) threshold = heap.top().distance;
  };

  // Polled per trajectory and per start point (one DP row scan each).
  auto interrupted = [&] {
    return Interrupted(options.cancel, options.deadline, &report.status);
  };
  for (int64_t ordinal : candidates) {
    if (interrupted()) break;
    const geo::Trajectory& traj = database_[static_cast<size_t>(ordinal)];
    if (traj.empty()) continue;
    ++report.trajectories_scanned;
    // The bounds hold for every subtrajectory, whatever its size.
    if (CascadeSkips(agg, ordinal, query, threshold)) {
      ++report.lb_skipped;
      continue;
    }
    const std::span<const geo::Point> pts = traj.View();
    const int n = static_cast<int>(pts.size());
    for (int i = 0; i < n; ++i) {
      if (i > 0 && interrupted()) break;
      double d = eval->Start(pts[static_cast<size_t>(i)]);
      if (min_size <= 1) offer(traj.id(), geo::SubRange(i, i), d);
      for (int j = i + 1; j < n; ++j) {
        if (options.prune && eval->ExtensionLowerBound() > threshold) {
          ++report.dp_abandoned;
          break;
        }
        d = eval->Extend(pts[static_cast<size_t>(j)]);
        if (j - i + 1 >= min_size) offer(traj.id(), geo::SubRange(i, j), d);
      }
    }
    if (!report.status.ok()) break;
  }
  report.results = ExtractAscending(heap);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace simsub::engine
