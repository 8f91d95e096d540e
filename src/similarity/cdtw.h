// Constrained DTW (Sakoe-Chiba band), listed by the paper's conclusion as a
// future-work measurement; shipped here as a first-class measure.
//
// The band is applied in subtrajectory-local coordinates: row r of the
// evaluated subtrajectory may align with query index j only when
// |r - j| <= band. Subtrajectories much longer or shorter than the query can
// become unreachable (+infinity), which is the intended pruning behaviour of
// a banded measure.
#ifndef SIMSUB_SIMILARITY_CDTW_H_
#define SIMSUB_SIMILARITY_CDTW_H_

#include <memory>
#include <span>

#include "similarity/measure.h"

namespace simsub::similarity {

/// Sakoe-Chiba banded DTW measure. `band_fraction` expresses the half-width
/// as a fraction of the query length m: band = max(1, ceil(fraction * m)).
class CdtwMeasure : public SimilarityMeasure {
 public:
  explicit CdtwMeasure(double band_fraction);

  std::string name() const override { return "cdtw"; }

  double band_fraction() const { return band_fraction_; }

  std::unique_ptr<PrefixEvaluator> NewEvaluator(
      std::span<const geo::Point> query) const override;

  /// Every banded warping path is an unconstrained DTW path, so it too
  /// aligns every query point with some subtrajectory point, and DTW's
  /// sum-style bounds (the MBR endpoint bound, the sum of every query
  /// point's nearest-data-point distance) remain valid for CDTW.
  DistanceAggregation aggregation() const override {
    return DistanceAggregation::kSum;
  }

 private:
  double band_fraction_;
};

}  // namespace simsub::similarity

#endif  // SIMSUB_SIMILARITY_CDTW_H_
