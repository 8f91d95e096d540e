#include "algo/lower_bounds.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "util/logging.h"

namespace simsub::algo {

std::vector<geo::Mbr> BuildMbrEnvelopes(std::span<const geo::Point> pts,
                                        int w) {
  const int n = static_cast<int>(pts.size());
  std::vector<geo::Mbr> env(static_cast<size_t>(n));
  auto slide = [&](auto key, bool want_max, auto assign) {
    std::vector<int> dq;  // indices, values monotonic
    int head = 0;
    // Window for i is [i-w, i+w]; advance right edge to i+w as i grows.
    int right = -1;
    for (int i = 0; i < n; ++i) {
      int hi = std::min(n - 1, i + w);
      while (right < hi) {
        ++right;
        double v = key(pts[static_cast<size_t>(right)]);
        while (static_cast<int>(dq.size()) > head) {
          double back = key(pts[static_cast<size_t>(dq.back())]);
          if ((want_max && back <= v) || (!want_max && back >= v)) {
            dq.pop_back();
          } else {
            break;
          }
        }
        dq.push_back(right);
      }
      int lo = std::max(0, i - w);
      while (head < static_cast<int>(dq.size()) &&
             dq[static_cast<size_t>(head)] < lo) {
        ++head;
      }
      assign(&env[static_cast<size_t>(i)],
             key(pts[static_cast<size_t>(dq[static_cast<size_t>(head)])]));
    }
  };
  slide([](const geo::Point& p) { return p.x; }, /*want_max=*/false,
        [](geo::Mbr* m, double v) { m->min_x = v; });
  slide([](const geo::Point& p) { return p.x; }, /*want_max=*/true,
        [](geo::Mbr* m, double v) { m->max_x = v; });
  slide([](const geo::Point& p) { return p.y; }, /*want_max=*/false,
        [](geo::Mbr* m, double v) { m->min_y = v; });
  slide([](const geo::Point& p) { return p.y; }, /*want_max=*/true,
        [](geo::Mbr* m, double v) { m->max_y = v; });
  return env;
}

namespace {

// Combines the two endpoint distances per the aggregation family. A
// single-point query has only one endpoint; counting it twice would break
// the kSum bound (one query point aligns once).
double CombineEndpoints(similarity::DistanceAggregation aggregation,
                        double d_front, double d_back, bool single_point) {
  switch (aggregation) {
    case similarity::DistanceAggregation::kSum:
      return single_point ? d_front : d_front + d_back;
    case similarity::DistanceAggregation::kMax:
      return std::max(d_front, d_back);
    case similarity::DistanceAggregation::kOther:
      break;
  }
  return 0.0;
}

}  // namespace

double MbrLowerBound(similarity::DistanceAggregation aggregation,
                     const geo::Mbr& data_mbr,
                     std::span<const geo::Point> query) {
  SIMSUB_CHECK(!query.empty());
  if (aggregation == similarity::DistanceAggregation::kOther) return 0.0;
  if (data_mbr.IsEmpty()) return 0.0;
  return CombineEndpoints(aggregation, data_mbr.Distance(query.front()),
                          data_mbr.Distance(query.back()),
                          query.size() == 1);
}

double NearestPointsLowerBound(similarity::DistanceAggregation aggregation,
                               geo::PointsView data,
                               std::span<const geo::Point> query,
                               double threshold) {
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK(!data.empty());
  const size_t m = query.size();
  // Step s visits query index 0, m-1, 1, 2, ..., m-2: after two steps the
  // value is the endpoint bound.
  auto nearest = [&](size_t step) {
    const size_t i = step == 0 ? 0 : step == 1 ? m - 1 : step - 1;
    return std::sqrt(geo::MinSquaredDistance(query[i], data));
  };
  double bound = 0.0;
  switch (aggregation) {
    case similarity::DistanceAggregation::kSum: {
      const double scale =
          1.0 - static_cast<double>(data.size + m) * DBL_EPSILON;
      double sum = 0.0;
      for (size_t step = 0; step < m && bound <= threshold; ++step) {
        sum += nearest(step);
        bound = sum * scale;
      }
      break;
    }
    case similarity::DistanceAggregation::kMax:
      for (size_t step = 0; step < m && bound <= threshold; ++step) {
        bound = std::max(bound, nearest(step));
      }
      break;
    case similarity::DistanceAggregation::kOther:
      break;
  }
  return bound;
}

}  // namespace simsub::algo
