#ifndef MBTA_PERFBENCH_BENCH_LIB_H_
#define MBTA_PERFBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "market/types.h"
#include "service/delta.h"

/// Helpers of the repository benchmark (perfbench/workloads.cc) that carry
/// their own tests: sample statistics and the seeded service delta stream.
namespace mbta::perfbench {

/// A latency distribution reduced the way the benchmark reports it: the
/// median, plus the nearest-rank p90 only when at least `kMinTail` samples
/// lie above it (a p90 resting on fewer is an anecdote, not a percentile).
struct PercentileSummary {
  static constexpr std::size_t kMinTail = 10;

  std::size_t samples = 0;
  double p50 = 0.0;
  /// Nearest-rank p90, set iff `above_p90 >= kMinTail`, i.e. at least
  /// 100 samples.
  std::optional<double> p90;
  /// Samples ranked strictly above the nearest-rank p90.
  std::size_t above_p90 = 0;
};

PercentileSummary SummarizeLatencies(std::vector<double> samples);

/// The service-500 delta stream: a bulk load of 500 workers and 500 tasks
/// followed by 126 churn batches of 32 deltas, all addressed by stable ids
/// (workers and tasks are numbered from 1 on their own side).
struct ServiceStream {
  std::vector<Delta> bulk;
  std::vector<std::vector<Delta>> churn;  // one batch per epoch
  /// The generator's edge model; the service must use the same one.
  EdgeModelParams edge_model;
};

/// Draws the stream from `seed`. Entity payloads come from the synthetic-
/// uniform generator preset. The churn mix is 20% worker arrivals, 20% task
/// arrivals, 20% worker departures, 20% task departures, 10% task payment
/// patches and 10% capacity patches; an arrival on a side already 5% over
/// 500 becomes a departure and vice versa. Departures and patches only
/// name ids that are live at that point of the stream.
ServiceStream MakeServiceStream(std::uint64_t seed);

}  // namespace mbta::perfbench

#endif  // MBTA_PERFBENCH_BENCH_LIB_H_
