// Statistics the serving benchmark reports: tail percentiles under the
// ten-samples-beyond rule, span self time, failure accounting and the
// paper's approximation ratio. Kept free of any simsub dependency so the
// self-tests in servebench/tests exercise exactly the code the runs use.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace servebench {

/// Smallest sample count that leaves at least ten samples strictly beyond
/// the `pct` percentile (p99 -> 1000, p90 -> 100, p50 -> 20).
int64_t MinSamplesForPercentile(double pct);

/// Nearest-rank percentile (the ceil(pct/100 * n)-th smallest sample).
/// Returns nullopt when fewer than MinSamplesForPercentile(pct) samples
/// are given: a tail read from fewer samples is one or two outliers.
std::optional<double> Percentile(std::vector<double> samples, double pct);

/// Median, over consecutive blocks of MinSamplesForPercentile(pct) samples
/// taken in the given order (a shorter last block is dropped), of each
/// block's `pct` percentile. Every block still leaves ten samples beyond its
/// percentile, and a stall that inflates the tail of one block moves the
/// median by at most one rank. nullopt when not even one block fits.
std::optional<double> BlockMedianPercentile(std::span<const double> samples, double pct);

/// One recorded span: [start_ns, end_ns) with the index of the span that
/// caused it (-1 for a request root) inside the same span list.
struct Span {
  const char* name = "";
  int64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children clipped to the parent,
/// overlapping children counted once). result[i] answers spans[i].
std::vector<int64_t> SelfTimesNs(std::span<const Span> spans);

/// How one request ended, as the client saw it.
enum class Outcome {
  kOk,
  kShed,            ///< answered ResourceExhausted by admission control
  kNonOk,           ///< answered with any other non-OK status
  kTransportError,  ///< no answer: the conversation failed
};

/// Failure accounting: every attempted request lands in exactly one bin.
struct FailTally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t non_ok = 0;
  int64_t transport_errors = 0;

  void Record(Outcome outcome);
  void Merge(const FailTally& other);
  int64_t failed() const { return shed + non_ok + transport_errors; }
  /// failed() / attempted (0 when nothing was attempted).
  double fail_ratio() const;
};

/// One approximate answer and the exact answer to the same query.
struct ArTerm {
  double approx = 0.0;  ///< returned top-1 distance, re-scored exactly
  double exact = 0.0;   ///< ExactS top-1 distance
};

struct ArResult {
  double mean = 0.0;
  int64_t used = 0;
  /// Terms with an exact distance of 0 and a positive approximate one: the
  /// ratio is unbounded, so they are counted here instead of averaged.
  int64_t unbounded = 0;
};

/// The paper's approximation ratio: mean of approx / exact. A term whose
/// exact and approximate distances are both 0 contributes 1.
ArResult ApproxRatio(std::span<const ArTerm> terms);

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
double Median(std::vector<double> values);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
