#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <future>
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
  // Warm the lazy SoA cache on the coordinating thread, not under the
  // workers' first bound call.
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
  // A one-query batch: the batched scan IS the single-query scan (same
  // candidate order, partitioning, cascade and deadline/cancel cadence).
  const BatchedQueryView view{query, options.k, options.filter,
                              options.cancel, options.deadline};
  BatchQueryOptions batch;
  batch.index_margin = options.index_margin;
  batch.threads = options.threads;
  batch.pool = options.pool;
  batch.scratch = options.scratch;
  batch.prune = options.prune;
  return std::move(QueryBatch(std::span(&view, 1), search, batch).front());
}

std::vector<QueryReport> SimSubEngine::QueryBatch(
    std::span<const BatchedQueryView> queries,
    const algo::SubtrajectorySearch& search,
    const BatchQueryOptions& options) const {
  const size_t nq = queries.size();
  std::vector<QueryReport> reports(nq);
  if (nq == 0) return reports;
  SIMSUB_CHECK_GE(options.threads, 1);
  util::Stopwatch timer;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Per-query candidate lists. CandidateOrdinals returns ascending ordinals
  // for every filter; the scan below walks each query's candidates in
  // exactly that order whatever the batch, so per-query results do not
  // depend on their batchmates.
  std::vector<std::vector<int64_t>> cands(nq);
  for (size_t q = 0; q < nq; ++q) {
    SIMSUB_CHECK(!queries[q].points.empty());
    SIMSUB_CHECK_GT(queries[q].k, 0);
    cands[q] =
        CandidateOrdinals(queries[q].points, queries[q].filter,
                          options.index_margin);
    reports[q].filter_used = queries[q].filter;
    reports[q].trajectories_pruned = static_cast<int64_t>(database_.size()) -
                                     static_cast<int64_t>(cands[q].size());
  }

  // Sorted union of the candidate sets: the outer scan axis. Each
  // trajectory is loaded once and searched against every query that wants
  // it while its columns are hot.
  std::vector<int64_t> uni = cands[0];
  for (size_t q = 1; q < nq; ++q) {
    uni.insert(uni.end(), cands[q].begin(), cands[q].end());
  }
  if (nq > 1) {  // one query's list is already sorted and unique
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
  }

  // Per-query state shared across scan partitions. bounds[q] is the
  // best-kth distance, monotonically tightened (CAS-min) by any worker
  // whose local heap for q fills: a candidate whose distance provably
  // exceeds it is strictly worse than k already-found entries and can never
  // enter the merged top-k — not even through the (distance, id, range)
  // tie-break, which requires distance equality. expired[q] is set by
  // whichever partition first observes the clock past q's deadline; every
  // partition then skips q's remaining candidates.
  auto bounds = std::make_unique<std::atomic<double>[]>(nq);
  auto expired = std::make_unique<std::atomic<bool>[]>(nq);
  for (size_t q = 0; q < nq; ++q) {
    bounds[q].store(kInf, std::memory_order_relaxed);
    expired[q].store(false, std::memory_order_relaxed);
  }

  const similarity::DistanceAggregation agg =
      CascadeAggregation(options.prune ? search.measure() : nullptr);

  // One partition's scan over union indices [lo, hi). heaps/scanned/
  // lb_skipped/dp_abandoned are this partition's per-query slices.
  auto scan_range = [&](size_t lo, size_t hi, std::vector<TopKHeap>& heaps,
                        std::vector<int64_t>& scanned,
                        std::vector<int64_t>& lb_skipped,
                        std::vector<int64_t>& dp_abandoned,
                        similarity::EvaluatorCache* scratch) {
    // cursor[q] tracks the next unconsumed entry of cands[q]; seeded by
    // binary search at the chunk boundary, then advanced incrementally (the
    // union is sorted, so each cursor only moves forward).
    std::vector<size_t> cursor(nq);
    for (size_t q = 0; q < nq; ++q) {
      cursor[q] = static_cast<size_t>(
          std::lower_bound(cands[q].begin(), cands[q].end(), uni[lo]) -
          cands[q].begin());
    }
    for (size_t c = lo; c < hi; ++c) {
      const int64_t ordinal = uni[c];
      const geo::Trajectory& traj = database_[static_cast<size_t>(ordinal)];
      for (size_t q = 0; q < nq; ++q) {
        size_t& cu = cursor[q];
        while (cu < cands[q].size() && cands[q][cu] < ordinal) ++cu;
        if (cu == cands[q].size() || cands[q][cu] != ordinal) continue;
        ++cu;
        const BatchedQueryView& query = queries[q];
        // Per-query cancellation / deadline between per-trajectory
        // searches: a relaxed load per candidate is noise next to even one
        // DP row, and the clock is read only when a deadline was set. Only
        // this query stops; its batchmates keep scanning.
        if (query.cancel != nullptr &&
            query.cancel->load(std::memory_order_relaxed)) {
          continue;
        }
        const bool has_deadline =
            query.deadline != std::chrono::steady_clock::time_point::max();
        if (has_deadline &&
            (expired[q].load(std::memory_order_relaxed) ||
             std::chrono::steady_clock::now() >= query.deadline)) {
          expired[q].store(true, std::memory_order_relaxed);
          continue;
        }
        if (traj.empty()) continue;
        ++scanned[q];

        double threshold = kInf;
        if (options.prune) {
          if (static_cast<int>(heaps[q].size()) == query.k) {
            threshold = heaps[q].top().distance;
          }
          threshold = std::min(
              threshold, bounds[q].load(std::memory_order_relaxed));
        }
        if (CascadeSkips(agg, ordinal, query.points, threshold)) {
          ++lb_skipped[q];
          continue;
        }

        algo::SearchResult r =
            options.prune
                ? search.Search(traj.View(), query.points, scratch, threshold)
                : search.Search(traj.View(), query.points, scratch);
        dp_abandoned[q] += r.stats.abandoned;
        OfferEntry(heaps[q], query.k, TopKEntry{traj.id(), r.best, r.distance});

        if (options.prune &&
            static_cast<int>(heaps[q].size()) == query.k) {
          double kth = heaps[q].top().distance;
          double cur = bounds[q].load(std::memory_order_relaxed);
          while (kth < cur && !bounds[q].compare_exchange_weak(
                                  cur, kth, std::memory_order_relaxed)) {
          }
        }
      }
    }
  };

  util::ThreadPool* pool =
      options.pool != nullptr ? options.pool : &util::ThreadPool::Shared();
  // Run inline when parallelism cannot pay off — and always when already on
  // a worker of the target pool, where blocking on our own futures could
  // deadlock (every worker waiting on tasks stuck behind it in the queue).
  bool sequential =
      options.threads <= 1 ||
      uni.size() < 2 * static_cast<size_t>(options.threads) ||
      pool->OnWorkerThread();

  std::vector<TopKHeap> merged(nq);
  if (sequential) {
    similarity::EvaluatorCache local_scratch;
    similarity::EvaluatorCache* scratch =
        options.scratch != nullptr ? options.scratch : &local_scratch;
    std::vector<int64_t> scanned(nq, 0);
    std::vector<int64_t> lb_skipped(nq, 0);
    std::vector<int64_t> dp_abandoned(nq, 0);
    if (!uni.empty()) {
      scan_range(0, uni.size(), merged, scanned, lb_skipped, dp_abandoned,
                 scratch);
    }
    for (size_t q = 0; q < nq; ++q) {
      reports[q].trajectories_scanned = scanned[q];
      reports[q].lb_skipped = lb_skipped[q];
      reports[q].dp_abandoned = dp_abandoned[q];
    }
  } else {
    // Partition the union into one task per requested thread; each task
    // keeps per-query local heaps, counters and its own evaluator scratch,
    // merged after the futures resolve. The per-trajectory search objects
    // must be thread-compatible — all algorithms except Random-S are (they
    // share no mutable state). The deterministic EntryBetter order makes
    // the merged top-k independent of the partitioning.
    size_t workers = static_cast<size_t>(options.threads);
    std::vector<std::vector<TopKHeap>> heaps(workers);
    std::vector<std::vector<int64_t>> scanned(workers);
    std::vector<std::vector<int64_t>> lb_skipped(workers);
    std::vector<std::vector<int64_t>> dp_abandoned(workers);
    std::vector<std::future<void>> futures;
    size_t chunk = (uni.size() + workers - 1) / workers;
    for (size_t w = 0; w < workers; ++w) {
      size_t lo = w * chunk;
      size_t hi = std::min(uni.size(), lo + chunk);
      if (lo >= hi) break;
      heaps[w].resize(nq);
      scanned[w].assign(nq, 0);
      lb_skipped[w].assign(nq, 0);
      dp_abandoned[w].assign(nq, 0);
      futures.push_back(pool->Submit([&, lo, hi, w] {
        similarity::EvaluatorCache chunk_scratch;
        scan_range(lo, hi, heaps[w], scanned[w], lb_skipped[w],
                   dp_abandoned[w], &chunk_scratch);
      }));
    }
    // Drain every future before propagating any failure: rethrowing while
    // sibling tasks still run would unwind the stack frame their captured
    // references (heaps, scanned, cands) point into.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    for (size_t w = 0; w < workers; ++w) {
      if (heaps[w].empty()) continue;  // unstarted tail partition
      for (size_t q = 0; q < nq; ++q) {
        reports[q].trajectories_scanned += scanned[w][q];
        reports[q].lb_skipped += lb_skipped[w][q];
        reports[q].dp_abandoned += dp_abandoned[w][q];
        while (!heaps[w][q].empty()) {
          OfferEntry(merged[q], queries[q].k, heaps[w][q].top());
          heaps[w][q].pop();
        }
      }
    }
  }

  double seconds = timer.ElapsedSeconds();
  for (size_t q = 0; q < nq; ++q) {
    reports[q].results = ExtractAscending(merged[q]);
    if (queries[q].cancel != nullptr &&
        queries[q].cancel->load(std::memory_order_relaxed)) {
      reports[q].status = util::Status::Cancelled("query cancelled mid-scan");
    } else if (expired[q].load(std::memory_order_relaxed)) {
      reports[q].status = util::Status::DeadlineExceeded(
          "deadline expired mid-scan (partial results)");
    }
    reports[q].seconds = seconds;
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

  // Polled per trajectory and per start point (one DP row scan each), with
  // the same relaxed-load / clock-only-with-a-deadline idiom as QueryBatch.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  auto interrupted = [&] {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      report.status = util::Status::Cancelled("query cancelled mid-scan");
    } else if (has_deadline &&
               std::chrono::steady_clock::now() >= options.deadline) {
      report.status = util::Status::DeadlineExceeded(
          "deadline expired mid-scan (partial results)");
    }
    return !report.status.ok();
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
