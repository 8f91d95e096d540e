#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace servebench {

int64_t MinSamplesForPercentile(double pct) {
  // n samples leave n * (1 - pct/100) beyond the percentile; ten are needed.
  // Computed in hundredths to dodge 1 - 0.99 rounding below 0.01.
  const double beyond_per_100 = 100.0 - pct;
  if (beyond_per_100 <= 0.0) return INT64_MAX;
  return static_cast<int64_t>(std::ceil(1000.0 / beyond_per_100 - 1e-9));
}

std::optional<double> Percentile(std::vector<double> samples, double pct) {
  const auto n = static_cast<int64_t>(samples.size());
  if (n == 0 || n < MinSamplesForPercentile(pct)) return std::nullopt;
  auto rank = static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

std::optional<double> BlockMedianPercentile(std::span<const double> samples, double pct) {
  const auto block = static_cast<size_t>(MinSamplesForPercentile(pct));
  std::vector<double> tails;
  for (size_t at = 0; block > 0 && at + block <= samples.size(); at += block) {
    tails.push_back(*Percentile({samples.begin() + at, samples.begin() + at + block}, pct));
  }
  if (tails.empty()) return std::nullopt;
  return Median(std::move(tails));
}

std::vector<int64_t> SelfTimesNs(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

void FailTally::Record(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kNonOk: ++non_ok; break;
    case Outcome::kTransportError: ++transport_errors; break;
  }
}

void FailTally::Merge(const FailTally& other) {
  attempted += other.attempted;
  ok += other.ok;
  shed += other.shed;
  non_ok += other.non_ok;
  transport_errors += other.transport_errors;
}

double FailTally::fail_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

ArResult ApproxRatio(std::span<const ArTerm> terms) {
  ArResult r;
  double sum = 0.0;
  for (const ArTerm& t : terms) {
    if (t.exact > 0.0) {
      sum += t.approx / t.exact;
    } else if (t.approx == 0.0) {
      sum += 1.0;
    } else {
      ++r.unbounded;
      continue;
    }
    ++r.used;
  }
  r.mean = r.used > 0 ? sum / static_cast<double>(r.used) : 0.0;
  return r;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace servebench
