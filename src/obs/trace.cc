#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"
#include "util/check.h"

namespace mbta {

namespace {

/// Thread → tracer binding. A thread may outlive a tracer (or bind to a
/// sequence of tracers across solves), so every emission checks that the
/// binding still refers to *this* tracer before trusting the cached
/// track pointer.
struct TlsBinding {
  const Tracer* tracer = nullptr;
  void* track = nullptr;
};
thread_local TlsBinding tls_binding;

}  // namespace

Tracer::Tracer(std::size_t max_events_per_track, std::size_t flight_capacity)
    : epoch_(Clock::now()),
      max_events_per_track_(std::max<std::size_t>(1, max_events_per_track)),
      flight_capacity_(std::max<std::size_t>(1, flight_capacity)) {
  RegisterThread("main");
}

Tracer::~Tracer() {
  // Leave a stale binding behind rather than touching other threads'
  // TLS; emissions through it fail the `tracer == this` check.
  if (tls_binding.tracer == this) tls_binding = TlsBinding{};
}

void Tracer::RegisterThread(std::string_view track_name) {
  MutexLock lock(&mu_);
  Track* track = nullptr;
  for (const std::unique_ptr<Track>& t : tracks_) {
    if (t->name == track_name) {
      track = t.get();
      break;
    }
  }
  if (track == nullptr) {
    tracks_.push_back(std::make_unique<Track>());
    track = tracks_.back().get();
    track->name = std::string(track_name);
  }
  tls_binding = {this, track};
}

Tracer::Track* Tracer::BoundTrack() {
  if (tls_binding.tracer == this) {
    return static_cast<Track*>(tls_binding.track);
  }
  MutexLock lock(&mu_);
  ++unregistered_drops_;
  return nullptr;
}

Tracer::SpanHandle Tracer::BeginSpan(std::string_view name,
                                     std::string_view cat) {
  Track* track = BoundTrack();
  if (track == nullptr) return SpanHandle{};
  if (track->events.size() >= max_events_per_track_) {
    ++track->dropped;
    return SpanHandle{};
  }
  Event event;
  event.name = std::string(name);
  event.cat = std::string(cat);
  event.id = track->next_id++;
  event.depth = static_cast<int>(track->open.size());
  event.ts_us = NowUs();
  const std::size_t index = track->events.size();
  track->events.push_back(std::move(event));
  track->open.push_back(index);
  return SpanHandle{track, static_cast<std::ptrdiff_t>(index)};
}

void Tracer::EndSpan(SpanHandle handle) {
  if (!handle.valid()) return;
  Track* track = static_cast<Track*>(handle.track);
  Event& event = track->events[static_cast<std::size_t>(handle.index)];
  event.dur_us = NowUs() - event.ts_us;
  // Close any deeper spans left open by mismatched scopes too; in
  // correct RAII usage the handle is exactly the innermost open span.
  while (!track->open.empty() &&
         track->open.back() >= static_cast<std::size_t>(handle.index)) {
    track->open.pop_back();
  }
  PushFlight(*track, event);
}

void Tracer::AddSpanArg(SpanHandle handle, std::string_view key,
                        std::int64_t value) {
  if (!handle.valid()) return;
  Track* track = static_cast<Track*>(handle.track);
  SpanArg arg;
  arg.key = std::string(key);
  arg.int_value = value;
  arg.is_int = true;
  track->events[static_cast<std::size_t>(handle.index)].args.push_back(
      std::move(arg));
}

void Tracer::AddSpanArg(SpanHandle handle, std::string_view key,
                        std::string_view value) {
  if (!handle.valid()) return;
  Track* track = static_cast<Track*>(handle.track);
  SpanArg arg;
  arg.key = std::string(key);
  arg.string_value = std::string(value);
  track->events[static_cast<std::size_t>(handle.index)].args.push_back(
      std::move(arg));
}

void Tracer::Instant(std::string_view name, std::string_view cat) {
  Track* track = BoundTrack();
  if (track == nullptr) return;
  if (track->events.size() >= max_events_per_track_) {
    ++track->dropped;
    return;
  }
  Event event;
  event.name = std::string(name);
  event.cat = std::string(cat);
  event.id = track->next_id++;
  event.depth = static_cast<int>(track->open.size());
  event.ts_us = NowUs();
  event.dur_us = 0.0;
  event.instant = true;
  track->events.push_back(std::move(event));
  PushFlight(*track, track->events.back());
}

void Tracer::PushFlight(const Track& track, const Event& event) {
  FlightEvent fe;
  fe.track = track.name;
  fe.name = event.name;
  fe.depth = event.depth;
  fe.ts_us = event.ts_us;
  fe.dur_us = event.dur_us < 0.0 ? 0.0 : event.dur_us;
  MutexLock lock(&flight_mu_);
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
  MutexLock lock(&flight_mu_);
  snapshot.total_events = flight_total_;
  snapshot.events.reserve(flight_.size());
  // flight_next_ is the oldest entry once the ring has wrapped.
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    snapshot.events.push_back(
        flight_[(flight_next_ + i) % flight_.size()]);
  }
  return snapshot;
}

std::uint64_t Tracer::dropped_events() const {
  MutexLock lock(&mu_);
  std::uint64_t dropped = unregistered_drops_;
  for (const std::unique_ptr<Track>& t : tracks_) dropped += t->dropped;
  return dropped;
}

std::string Tracer::ToJson() const {
  MutexLock lock(&mu_);
  // Deterministic tid assignment: "main" is always tid 1; the remaining
  // tracks sort by (length, name) so numeric suffixes of different
  // widths ("worker_2" vs "worker_10") still order numerically.
  std::vector<const Track*> ordered;
  ordered.reserve(tracks_.size());
  for (const std::unique_ptr<Track>& t : tracks_) ordered.push_back(t.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Track* a, const Track* b) {
              if ((a->name == "main") != (b->name == "main")) {
                return a->name == "main";
              }
              if (a->name.size() != b->name.size()) {
                return a->name.size() < b->name.size();
              }
              return a->name < b->name;
            });

  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  w.BeginObject();
  w.Key("name");
  w.String("process_name");
  w.Key("ph");
  w.String("M");
  w.Key("pid");
  w.Number(1);
  w.Key("tid");
  w.Number(0);
  w.Key("args");
  w.BeginObject();
  w.Key("name");
  w.String("mbta");
  w.EndObject();
  w.EndObject();
  for (std::size_t t = 0; t < ordered.size(); ++t) {
    w.BeginObject();
    w.Key("name");
    w.String("thread_name");
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Number(1);
    w.Key("tid");
    w.Number(static_cast<std::uint64_t>(t + 1));
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(ordered[t]->name);
    w.EndObject();
    w.EndObject();
  }
  for (std::size_t t = 0; t < ordered.size(); ++t) {
    for (const Event& event : ordered[t]->events) {
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
      w.Number(static_cast<std::uint64_t>(t + 1));
      w.Key("id");
      w.Number(event.id);
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
  }
  w.EndArray();
  // Non-standard extras live beside traceEvents, where Chrome and
  // Perfetto tolerate (and ignore) them.
  std::uint64_t dropped = unregistered_drops_;
  std::uint64_t total = 0;
  for (const Track* t : ordered) {
    dropped += t->dropped;
    total += t->events.size();
  }
  w.Key("mbta");
  w.BeginObject();
  w.Key("tracks");
  w.Number(static_cast<std::uint64_t>(ordered.size()));
  w.Key("events");
  w.Number(total);
  w.Key("dropped_events");
  w.Number(dropped);
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
