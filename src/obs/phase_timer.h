#ifndef MBTA_OBS_PHASE_TIMER_H_
#define MBTA_OBS_PHASE_TIMER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace mbta {

/// Accumulated wall-clock per named phase. Phases nest: entering "solve"
/// and then "build_heap" records under the path "solve/build_heap", so a
/// flat key-ordered dump reconstructs the phase tree. Re-entering a path
/// accumulates (total ms + call count), which is what loops want.
/// Single-threaded, like CounterRegistry.
class PhaseTimings {
 public:
  struct Entry {
    double total_ms = 0.0;
    std::uint64_t calls = 0;
  };

  /// Adds one timed call to `path` (a full nested path, "a/b/c").
  void Record(std::string_view path, double ms);

  /// Total milliseconds recorded under `path`; 0 if never entered.
  double TotalMs(std::string_view path) const;

  bool empty() const { return entries_.empty(); }
  void Clear();

  const std::map<std::string, Entry, std::less<>>& entries() const {
    return entries_;
  }

  /// Accumulates every entry of `other` into this object, nested under
  /// the currently open phase chain: with "fallback/stage_0" open,
  /// `other`'s "flow" lands at "fallback/stage_0/flow". The tracer
  /// binding is not merged: phase *data* rolls up, the trace stream does not.
  void Merge(const PhaseTimings& other);

  /// Attaches a Tracer: from then on every ScopedPhase recording into
  /// this object also emits a trace span (cat "phase"), which is how all
  /// already-instrumented solvers get timeline spans without touching a
  /// single call site. Set before the solve, clear (nullptr) to detach.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  friend class ScopedPhase;

  /// Appends `label` to the open-phase chain and returns the previous
  /// chain length (for the matching PopAndRecord).
  std::size_t PushLabel(std::string_view label);
  /// Records `ms` against the full current path, then truncates the chain
  /// back to `parent_len`.
  void PopAndRecord(std::size_t parent_len, double ms);

  std::map<std::string, Entry, std::less<>> entries_;
  /// Path of the currently open ScopedPhase chain ("" at top level). Only
  /// non-empty while phases are open, so copies of a quiescent object are
  /// cheap and self-contained.
  std::string stack_;
  /// Optional span sink; see set_tracer.
  Tracer* tracer_ = nullptr;
};

/// RAII phase timer. Construct with the PhaseTimings to record into (or
/// nullptr to disable — then the constructor and destructor do nothing,
/// not even a clock read) and a label; nesting scopes builds the path.
///
///   ScopedPhase solve(timings, "solve");
///   { ScopedPhase p(timings, "build_heap"); ... }  // "solve/build_heap"
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimings* timings, std::string_view label);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  // mbta-lint: taint-ok(phase timings are observability-only; durations never flow into solver state)
  using Clock = std::chrono::steady_clock;
  PhaseTimings* timings_;
  std::size_t parent_len_ = 0;  // stack_ length to restore on exit
  Clock::time_point start_;
  /// Trace span mirroring this phase when the timings carry a Tracer.
  Tracer::SpanHandle span_;
};

}  // namespace mbta

#endif  // MBTA_OBS_PHASE_TIMER_H_
