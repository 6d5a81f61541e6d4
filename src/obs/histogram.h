#ifndef MBTA_OBS_HISTOGRAM_H_
#define MBTA_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mbta {

/// Fixed-boundary histogram with deterministic bucketing. Boundaries are
/// strictly increasing and frozen at construction; a recorded value lands
/// in the first bucket whose upper boundary is strictly greater than it
/// (bucket i covers [boundaries[i-1], boundaries[i]), bucket 0 is the
/// underflow bucket (-inf, boundaries[0]) and the last bucket is the
/// overflow bucket [boundaries.back(), +inf)). Because the boundaries are
/// compile-time-chosen constants — never derived from the data — the
/// bucket counts for a deterministic value stream are byte-identical
/// across runs, so they can sit in bench records that
/// `bench_compare` diffs exactly.
///
/// Like the other obs value types, Histogram is a plain single-threaded
/// object: solvers record into a local instance in their hot loop (one
/// branchless upper_bound per value) and publish once per solve into a
/// HistogramRegistry.
class Histogram {
 public:
  /// An empty histogram with no boundaries: one catch-all bucket. Useful
  /// only as a placeholder (e.g. map default construction).
  Histogram() = default;

  /// Boundaries must be strictly increasing (MBTA_CHECK).
  explicit Histogram(std::vector<double> boundaries);

  void Record(double value);

  /// Accumulates `other` into this histogram. Boundaries must match
  /// exactly (MBTA_CHECK) unless this histogram is still default-empty
  /// with zero recordings, in which case it adopts `other` wholesale.
  void Merge(const Histogram& other);

  void Clear();

  const std::vector<double>& boundaries() const { return boundaries_; }
  /// Bucket counts; size is boundaries().size() + 1.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t total_count() const { return total_count_; }
  double sum() const { return sum_; }
  /// Min/max of recorded values; 0 when total_count() == 0.
  double min() const { return total_count_ == 0 ? 0.0 : min_; }
  double max() const { return total_count_ == 0 ? 0.0 : max_; }

 private:
  std::vector<double> boundaries_;
  std::vector<std::uint64_t> counts_ = {0};  // boundaries_.size() + 1 buckets
  std::uint64_t total_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric boundary ladder: first, first*factor, first*factor^2, ...
/// (`count` boundaries). The standard shape for latency and gain-value
/// distributions, whose interesting structure spans orders of magnitude.
std::vector<double> ExponentialBoundaries(double first, double factor,
                                          std::size_t count);

/// Standard boundary sets, shared by every solver that publishes the
/// corresponding histogram so rows stay comparable across solvers:
///  * GainBoundaries        — committed marginal gains ("greedy/gain"):
///                            1e-4 * 4^k, 16 boundaries (1e-4 .. ~1e5).
///  * LatencyBoundariesMs   — per-event latencies in milliseconds
///                            ("latency/epoch_ms"): 1e-3 * 2^k, 24
///                            boundaries (1µs .. ~8.4s).
std::vector<double> GainBoundaries();
std::vector<double> LatencyBoundariesMs();

/// Registry of named histograms, mirroring CounterRegistry: stable
/// slash-path keys (lint rule R5 applies), key-ordered iteration so every
/// rendering is deterministic, publish-once-per-solve usage.
class HistogramRegistry {
 public:
  /// Merges `histogram` into the entry at `key`, inserting a copy when
  /// the key is new. This is the publish step at the end of a solve.
  void Add(std::string_view key, const Histogram& histogram);

  /// The histogram registered at `key`; nullptr when never published.
  const Histogram* Find(std::string_view key) const;

  bool empty() const { return histograms_.empty(); }
  void Clear();

  /// Key-ordered view for reporting.
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Merges every histogram of `other` into this registry.
  void Merge(const HistogramRegistry& other);

 private:
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mbta

#endif  // MBTA_OBS_HISTOGRAM_H_
