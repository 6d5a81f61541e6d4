#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json_writer.h"

namespace mbta {

Tracer::Tracer(std::size_t max_events, std::size_t flight_capacity)
    : epoch_(Clock::now()),
      max_events_(std::max<std::size_t>(1, max_events)),
      flight_capacity_(std::max<std::size_t>(1, flight_capacity)) {}

std::ptrdiff_t Tracer::Append(std::string_view name, std::string_view cat) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return -1;
  }
  Event event;
  event.name = std::string(name);
  event.cat = std::string(cat);
  event.depth = static_cast<int>(open_.size());
  event.ts_us = NowUs();
  events_.push_back(std::move(event));
  return static_cast<std::ptrdiff_t>(events_.size() - 1);
}

Tracer::SpanHandle Tracer::BeginSpan(std::string_view name,
                                     std::string_view cat) {
  const std::ptrdiff_t index = Append(name, cat);
  if (index >= 0) open_.push_back(static_cast<std::size_t>(index));
  return SpanHandle{index};
}

void Tracer::EndSpan(SpanHandle handle) {
  if (!handle.valid()) return;
  const auto index = static_cast<std::size_t>(handle.index);
  Event& event = events_[index];
  event.dur_us = NowUs() - event.ts_us;
  // Close any deeper spans left open by mismatched scopes too; in
  // correct RAII usage the handle is exactly the innermost open span.
  while (!open_.empty() && open_.back() >= index) open_.pop_back();
  PushFlight(event);
}

void Tracer::AddSpanArg(SpanHandle handle, std::string_view key,
                        std::int64_t value) {
  if (!handle.valid()) return;
  SpanArg arg;
  arg.key = std::string(key);
  arg.int_value = value;
  arg.is_int = true;
  events_[static_cast<std::size_t>(handle.index)].args.push_back(
      std::move(arg));
}

void Tracer::AddSpanArg(SpanHandle handle, std::string_view key,
                        std::string_view value) {
  if (!handle.valid()) return;
  SpanArg arg;
  arg.key = std::string(key);
  arg.string_value = std::string(value);
  events_[static_cast<std::size_t>(handle.index)].args.push_back(
      std::move(arg));
}

void Tracer::Instant(std::string_view name, std::string_view cat) {
  const std::ptrdiff_t index = Append(name, cat);
  if (index < 0) return;
  Event& event = events_[static_cast<std::size_t>(index)];
  event.dur_us = 0.0;
  event.instant = true;
  PushFlight(event);
}

void Tracer::PushFlight(const Event& event) {
  FlightEvent fe;
  fe.name = event.name;
  fe.depth = event.depth;
  fe.ts_us = event.ts_us;
  fe.dur_us = event.dur_us < 0.0 ? 0.0 : event.dur_us;
  if (flight_.size() < flight_capacity_) {
    flight_.push_back(std::move(fe));
  } else {
    flight_[flight_next_] = std::move(fe);
    flight_next_ = (flight_next_ + 1) % flight_capacity_;
  }
  ++flight_total_;
}

TraceSnapshot Tracer::SnapshotFlight(std::string_view trigger) const {
  TraceSnapshot snapshot;
  snapshot.trigger = std::string(trigger);
  snapshot.total_events = flight_total_;
  snapshot.events.reserve(flight_.size());
  // flight_next_ is the oldest entry once the ring has wrapped.
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    snapshot.events.push_back(
        flight_[(flight_next_ + i) % flight_.size()]);
  }
  return snapshot;
}

std::string Tracer::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  // Metadata events name the process (tid 0) and the one track (tid 1).
  const auto metadata = [&w](std::string_view kind, std::uint64_t tid,
                             std::string_view name) {
    w.BeginObject();
    w.Key("name");
    w.String(kind);
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Number(1);
    w.Key("tid");
    w.Number(tid);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.EndObject();
    w.EndObject();
  };
  metadata("process_name", 0, "mbta");
  metadata("thread_name", 1, "main");
  for (std::size_t id = 0; id < events_.size(); ++id) {
    const Event& event = events_[id];
    w.BeginObject();
    w.Key("name");
    w.String(event.name);
    w.Key("cat");
    w.String(event.cat);
    w.Key("ph");
    w.String(event.instant ? "i" : "X");
    w.Key("ts");
    w.Number(event.ts_us);
    if (!event.instant) {
      w.Key("dur");
      w.Number(event.dur_us < 0.0 ? 0.0 : event.dur_us);
    }
    w.Key("pid");
    w.Number(1);
    w.Key("tid");
    w.Number(1);
    w.Key("id");
    w.Number(static_cast<std::uint64_t>(id));
    // Custom field (viewers ignore it): nesting depth at begin, which
    // lets mbta_trace rebuild the span tree without trusting
    // timestamps and lets --diff compare nesting with ts excluded.
    w.Key("depth");
    w.Number(event.depth);
    if (event.instant) {
      w.Key("s");
      w.String("t");
    }
    if (!event.args.empty()) {
      w.Key("args");
      w.BeginObject();
      for (const SpanArg& arg : event.args) {
        w.Key(arg.key);
        if (arg.is_int) {
          w.Number(arg.int_value);
        } else {
          w.String(arg.string_value);
        }
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  // Non-standard extras live beside traceEvents, where Chrome and
  // Perfetto tolerate (and ignore) them.
  w.Key("mbta");
  w.BeginObject();
  w.Key("tracks");
  w.Number(1);
  w.Key("events");
  w.Number(static_cast<std::uint64_t>(events_.size()));
  w.Key("dropped_events");
  w.Number(dropped_);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

bool Tracer::WriteFile(const std::string& path, std::string* error) const {
  const std::string text = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != text.size() || !close_ok) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace mbta
