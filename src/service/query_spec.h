// The declarative request object of the serving layer.
//
// A QuerySpec is fully self-describing: it names its similarity measure and
// search algorithm (resolved through similarity::MakeMeasure and
// algo::MakeSearch inside the service, with per-service caching of the
// resolved pairs) and carries every execution knob — k, filter override,
// prune flag, deadline, cancellation — so a single batch can mix measures,
// algorithms and deadlines freely, and a spec round-trips 1:1 from CLI
// flags or a wire request. This replaces the old (span, shared-algorithm,
// knobs) call-site triple, where one SubtrajectorySearch& was wired across
// an entire batch.
#ifndef SIMSUB_SERVICE_QUERY_SPEC_H_
#define SIMSUB_SERVICE_QUERY_SPEC_H_

#include <atomic>
#include <optional>
#include <span>
#include <string>

#include "algo/registry.h"
#include "engine/engine.h"
#include "geo/point.h"
#include "similarity/registry.h"

namespace simsub::service {

/// One declarative query. The points span, the cancel flag and the
/// algorithm_options.rls_policy pointer (the latter two when set) must stay
/// valid until the request's future resolves; everything else is copied
/// into the request.
struct QuerySpec {
  /// Query trajectory points: non-empty, at most
  /// QueryService::kMaxQueryPoints.
  std::span<const geo::Point> points;

  /// similarity::MakeMeasure name ("dtw", "frechet", "cdtw", ...).
  std::string measure = "dtw";
  similarity::MeasureOptions measure_options;

  /// algo::MakeSearch name ("exacts", "sizes", "pss", "rls-skip", ...), or
  /// the service-level "topk-sub": the subtrajectory-level top-k query
  /// (engine::SimSubEngine::QueryTopKSubtrajectories) driven by the measure
  /// alone, where one data trajectory may contribute several results and
  /// `min_size` filters degenerate near-single-point answers.
  std::string algorithm = "exacts";
  algo::SearchOptions algorithm_options;

  /// Number of results, in [1, QueryService::kMaxK].
  int k = 10;
  /// Minimum subtrajectory size (>= 1); consulted by "topk-sub" only. It
  /// filters results, not pruning: the cascade's trajectory bounds hold
  /// for subtrajectories of every size.
  int min_size = 1;

  /// Explicit pruning filter; nullopt lets the planner decide per query.
  std::optional<engine::PruningFilter> filter;
  /// Per-request lower-bound-cascade toggle (AND-ed with the service-wide
  /// ServiceOptions::prune; results are bit-identical either way). Applies
  /// to every algorithm, "topk-sub" included, whose enumeration then skips
  /// trajectories and abandons start points against its k-th distance.
  bool prune = true;

  /// Relative deadline in milliseconds, measured from Submit(). Enforced
  /// end-to-end: a request still queued when it expires is answered with a
  /// DeadlineExceeded report instead of running, and a request that starts
  /// on time but runs past the deadline stops mid-scan at per-trajectory
  /// granularity ("topk-sub": per start point), returning DeadlineExceeded
  /// with the partial results accumulated so far (see
  /// engine::QueryOptions::deadline). 0 = no deadline.
  double deadline_ms = 0.0;

  /// Caller-owned cooperative cancellation flag, checked before execution
  /// and between per-trajectory searches ("topk-sub": start points) inside
  /// the scan. A tripped flag
  /// yields a Cancelled report (partial results, do not use).
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace simsub::service

#endif  // SIMSUB_SERVICE_QUERY_SPEC_H_
