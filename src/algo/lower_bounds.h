// Cheap lower bounds on subtrajectory similarity — the pruning cascade
// shared by the UCR-adapted matcher and the database engine.
//
// The UCR suite (Rakthanmanon et al., KDD 2012) gets its speed from a
// cascade of ever-tighter, ever-costlier lower bounds that discard
// candidates before the full DP runs, each bound abandoning as soon as it
// exceeds the best-so-far. This unit hosts the reusable pieces:
//
//  * BuildMbrEnvelopes — the sliding-window MBR envelopes behind LB_Keogh
//    (moved out of ucr.cc so other matchers can build them);
//  * MbrLowerBound — an O(1) LB_KimFL-style bound from the data
//    trajectory's MBR: every warping path must align the first and last
//    query point with SOME data point, each at least the MBR distance away;
//  * NearestPointsLowerBound — the O(n*m) early-abandoned tightening: the
//    exact distance from EVERY query point to its nearest data point
//    (vectorized min-reductions over the engine's cached SoA copy of the
//    trajectory), endpoints first so that it abandons on the endpoint
//    decision whenever that decision is already enough.
//
// Both bounds are valid for the WHOLE-trajectory optimum: they bound
// dist(sub, query) for every subtrajectory simultaneously, because a
// subtrajectory's points are a subset of the trajectory's. Validity depends
// on the measure's aggregation family (similarity::DistanceAggregation):
// every DTW/CDTW warping path and every Frechet/Hausdorff coupling pairs
// each query point with at least one subtrajectory point, so kSum measures
// (DTW, CDTW) get the sum of the per-point distances, kMax measures
// (Frechet, Hausdorff) the max, and kOther measures get 0 (no bound —
// pruning falls back to DP-level early abandoning only).
#ifndef SIMSUB_ALGO_LOWER_BOUNDS_H_
#define SIMSUB_ALGO_LOWER_BOUNDS_H_

#include <span>
#include <vector>

#include "geo/mbr.h"
#include "geo/point.h"
#include "geo/soa.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Sliding-window MBR envelopes: env[i] = MBR(points[max(0, i-w) ..
/// min(end, i+w)]). Monotonic-deque sliding min/max per coordinate, O(n)
/// total. The 2-D adaptation of the LB_Keogh envelope.
std::vector<geo::Mbr> BuildMbrEnvelopes(std::span<const geo::Point> pts,
                                        int w);

/// O(1) LB_KimFL-style bound on min over subtrajectories T' of T of
/// dist(T', query), from T's bounding box alone. Returns 0 for kOther.
double MbrLowerBound(similarity::DistanceAggregation aggregation,
                     const geo::Mbr& data_mbr,
                     std::span<const geo::Point> query);

/// Tightening of MbrLowerBound: sum (kSum) or max (kMax) over every query
/// point of the distance to its nearest data point. Visits both endpoints
/// first, then the interior, and returns as soon as the partial value
/// exceeds `threshold` (pass +infinity for the full bound); whatever it
/// returns is a valid bound, and it returns a value > `threshold` exactly
/// when the full bound is > `threshold`. The kSum value is scaled by
/// (1 - (n + m) * DBL_EPSILON), n = data.size, m = query.size(), so it stays
/// at or below the DP's rounded sum of up to n + m - 1 terms in any
/// summation order (forward, or PSS's reversed suffix pass): a tie at the
/// k-th distance is never pruned by rounding. kMax needs no factor (max,
/// min and sqrt are exact or correctly rounded and monotone). Returns 0 for
/// kOther. Requires !data.empty().
double NearestPointsLowerBound(similarity::DistanceAggregation aggregation,
                               geo::PointsView data,
                               std::span<const geo::Point> query,
                               double threshold);

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_LOWER_BOUNDS_H_
