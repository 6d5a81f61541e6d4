#ifndef MBTA_OBS_COUNTERS_H_
#define MBTA_OBS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace mbta {

/// Registry of named work counters (monotone uint64) and gauges (double
/// snapshots) with stable string keys. Keys follow the project convention
/// `<subsystem>/<noun>` in lower_snake_case, e.g. "greedy/heap_pushes" or
/// "flow/augmenting_paths" (see CONTRIBUTING.md, "Observability").
///
/// Solvers keep hot-loop tallies in local integers and publish them here
/// once per solve, so the registry itself is never on a hot path; when
/// instrumentation is disabled (the caller passed no SolveStats) nothing
/// is allocated or touched at all. Iteration is in key order, so every
/// rendering of a registry is deterministic. Single-threaded: a
/// registry has one writer at a time.
class CounterRegistry {
 public:
  /// Adds `delta` to the counter `key`, creating it at zero first.
  void Add(std::string_view key, std::uint64_t delta = 1);

  /// Overwrites the counter `key`.
  void Set(std::string_view key, std::uint64_t value);

  /// Overwrites the gauge `key` (a point-in-time double, e.g. a calibrated
  /// threshold or a heap's peak size in MiB).
  void SetGauge(std::string_view key, double value);

  /// Counter value; 0 if the key was never touched.
  std::uint64_t Value(std::string_view key) const;

  /// Gauge value; 0.0 if the key was never touched.
  double Gauge(std::string_view key) const;

  bool Has(std::string_view key) const;

  bool empty() const { return counters_.empty() && gauges_.empty(); }
  void Clear();

  /// Key-ordered views for reporting.
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }

  /// Adds every counter/gauge of `other` into this registry (counters sum,
  /// gauges overwrite). Used to roll per-phase registries into a total.
  void Merge(const CounterRegistry& other);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace mbta

#endif  // MBTA_OBS_COUNTERS_H_
