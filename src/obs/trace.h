#ifndef MBTA_OBS_TRACE_H_
#define MBTA_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mbta {

/// One flight-recorder entry: a compact copy of a finished span or
/// instant, kept in the Tracer's bounded ring (see Tracer below).
struct FlightEvent {
  std::string name;    // span/instant name (slash-path grammar)
  int depth = 0;       // nesting depth at emission
  double ts_us = 0.0;  // start, microseconds since tracer construction
  double dur_us = 0.0;  // 0 for instants
};

/// Snapshot of the flight recorder, taken when a solve degrades
/// (deadline hit, cancellation observed, fallback retry). Stored in
/// SolveStats::flight so post-mortems can see the last things the solver
/// did before it gave up, without shipping the whole trace around.
struct TraceSnapshot {
  std::string trigger;  // "deadline", "cancel" or "fallback/retry"
  /// Events ever recorded to the ring (>= events.size(); the difference
  /// is how many old events the bounded ring has already evicted).
  std::uint64_t total_events = 0;
  std::vector<FlightEvent> events;  // oldest first

  bool empty() const { return trigger.empty() && events.empty(); }
};

/// Span/timeline recorder emitting Chrome trace-event JSON — the
/// `{"traceEvents": [...]}` format that chrome://tracing and Perfetto
/// open directly. Spans are complete events (`ph:"X"`) on one track,
/// "main", with deterministic sequential span ids.
///
/// Single-threaded, like CounterRegistry: the solvers and the service
/// run on the caller's thread, and so does every emission. A span costs
/// a couple of stores and one clock read.
///
/// Determinism: span ids are sequence numbers and events serialize in
/// begin order, so the emitted event *sequence* (everything except the
/// ts/dur fields) is byte-identical across runs whenever the span
/// structure is deterministic. `tools/mbta_trace --diff` enforces
/// exactly that in CI.
///
/// The tracer also feeds a bounded ring of finished events (the "flight
/// recorder"); SnapshotFlight copies out the last `flight_capacity`
/// events when a deadline/cancel/fallback trigger fires.
class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1 << 16;
  static constexpr std::size_t kDefaultFlightCapacity = 128;

  /// Starts the trace clock. Once `max_events` events are recorded,
  /// further spans and instants are dropped (counted in the emitted
  /// metadata) instead of growing without bound.
  explicit Tracer(std::size_t max_events = kDefaultMaxEvents,
                  std::size_t flight_capacity = kDefaultFlightCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opaque handle to an open span: its event index, or -1.
  struct SpanHandle {
    std::ptrdiff_t index = -1;
    bool valid() const { return index >= 0; }
  };

  /// Opens a span. Returns an invalid handle (all subsequent calls
  /// no-ops) when the event buffer is full. Prefer ScopedSpan.
  SpanHandle BeginSpan(std::string_view name, std::string_view cat);
  /// Closes `handle`, fixing the span's duration and feeding the flight
  /// ring.
  void EndSpan(SpanHandle handle);
  /// Attaches an integer/string arg, rendered into the span's `args`
  /// object. Call between BeginSpan and EndSpan.
  void AddSpanArg(SpanHandle handle, std::string_view key,
                  std::int64_t value);
  void AddSpanArg(SpanHandle handle, std::string_view key,
                  std::string_view value);

  /// Emits a zero-duration instant event (`ph:"i"`), e.g.
  /// "fallback/retry".
  void Instant(std::string_view name, std::string_view cat);

  /// Copies the flight ring, oldest first. The deadline and fallback
  /// paths call it right after a budget expires.
  TraceSnapshot SnapshotFlight(std::string_view trigger) const;

  /// Serializes the whole trace as a Chrome trace-event JSON document.
  std::string ToJson() const;

  /// ToJson written to `path`. Returns false (and fills `error` when
  /// non-null) if the file cannot be written.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;

  /// Spans and instants dropped because the event buffer was full.
  std::uint64_t dropped_events() const { return dropped_; }

 private:
  struct SpanArg {
    std::string key;
    std::string string_value;
    std::int64_t int_value = 0;
    bool is_int = false;
  };

  struct Event {
    std::string name;
    std::string cat;
    int depth = 0;            // nesting depth at begin
    double ts_us = 0.0;
    double dur_us = -1.0;     // -1 while the span is still open
    bool instant = false;
    std::vector<SpanArg> args;
  };

  // mbta-lint: taint-ok(span timestamps are trace-output-only; solver state never reads them)
  using Clock = std::chrono::steady_clock;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Appends a new event at the current depth and returns its index, or
  /// -1 (counted as dropped) when the buffer is full.
  std::ptrdiff_t Append(std::string_view name, std::string_view cat);
  void PushFlight(const Event& event);

  const Clock::time_point epoch_;
  const std::size_t max_events_;
  const std::size_t flight_capacity_;

  std::vector<Event> events_;
  std::vector<std::size_t> open_;  // indices of open spans, innermost last
  std::uint64_t dropped_ = 0;

  std::vector<FlightEvent> flight_;  // ring
  std::size_t flight_next_ = 0;
  std::uint64_t flight_total_ = 0;
};

/// RAII span, the tracing analogue of ScopedPhase:
///
///   ScopedSpan span(tracer, "mcf/shortest_path", "flow");
///   span.Arg("arcs", static_cast<std::int64_t>(arcs_scanned));
///
/// A null tracer disables the span entirely (no clock read), so call
/// sites follow the same `info != nullptr` discipline as counters. Span
/// names use the full slash-path grammar (lint rule R5).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             std::string_view cat = "span")
      : tracer_(tracer) {
    if (tracer_ != nullptr) handle_ = tracer_->BeginSpan(name, cat);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(handle_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string_view key, std::int64_t value) {
    if (tracer_ != nullptr) tracer_->AddSpanArg(handle_, key, value);
  }
  void Arg(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->AddSpanArg(handle_, key, value);
  }

 private:
  Tracer* tracer_;
  Tracer::SpanHandle handle_;
};

}  // namespace mbta

#endif  // MBTA_OBS_TRACE_H_
