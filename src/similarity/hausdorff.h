// Symmetric (discrete) Hausdorff distance: the largest distance from any
// point of one trajectory to its nearest point on the other. A shape-only
// measure (ignores point order) that rounds out the measure catalog; it
// supports the incremental Phi_inc = O(m) contract like the DP measures.
#ifndef SIMSUB_SIMILARITY_HAUSDORFF_H_
#define SIMSUB_SIMILARITY_HAUSDORFF_H_

#include <memory>
#include <span>

#include "similarity/measure.h"

namespace simsub::similarity {

/// Symmetric discrete Hausdorff measure. Phi = O(n*m),
/// Phi_inc = Phi_ini = O(m).
class HausdorffMeasure : public SimilarityMeasure {
 public:
  std::string name() const override { return "hausdorff"; }

  std::unique_ptr<PrefixEvaluator> NewEvaluator(
      std::span<const geo::Point> query) const override;

  double Distance(std::span<const geo::Point> a,
                  std::span<const geo::Point> b) const override;

  /// Hausdorff is at least the distance from every query point to its
  /// nearest subtrajectory point, so max-style bounds apply: the MBR
  /// endpoint bound and the max over every query point of its
  /// nearest-data-point distance.
  DistanceAggregation aggregation() const override {
    return DistanceAggregation::kMax;
  }
};

/// Free-function symmetric Hausdorff distance.
double HausdorffDistance(std::span<const geo::Point> a,
                         std::span<const geo::Point> b);

}  // namespace simsub::similarity

#endif  // SIMSUB_SIMILARITY_HAUSDORFF_H_
