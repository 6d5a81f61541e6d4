/// Analyzer for the Chrome trace-event files written by mbta::Tracer
/// (`mbta_cli solve --trace`, `smoke_suite --trace`). Three modes:
///
///   mbta_trace <trace.json> [--top N]
///       Per-span-name summary: calls, total time, self time (total
///       minus direct children), sorted by self time. Instant events are
///       listed separately with their counts.
///
///   mbta_trace <trace.json> --critical-path
///       Starts from the longest root span in the file and descends the
///       max-duration child at every level: the chain a latency
///       investigation should read first.
///
///   mbta_trace --diff <a.json> <b.json>
///       Compares the two traces as *sequences* — per track (matched by
///       thread name, not tid): event name, category, phase, nesting
///       depth, and args, in emission order. Timestamps, durations, and
///       ids are excluded, so two runs of a deterministic program must
///       diff clean even though their clocks differ.
///
/// Exit codes: 0 ok / 1 usage / 2 bad input / 3 traces differ.
///
/// The span tree is rebuilt from the writer's custom "depth" field via a
/// stack (emission order within a track is begin order), not from
/// timestamps — the same reason --diff can exclude them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/json_value.h"
#include "util/table.h"

namespace mbta {
namespace {

struct TraceEvent {
  std::string name;
  std::string cat;
  std::string ph;
  int depth = 0;
  double dur_us = 0.0;
  std::string args;  // normalized "key=value key=value" form

  // Filled by the tree pass.
  double child_dur_us = 0.0;
  std::vector<std::size_t> children;  // indices into the track's events
};

struct Track {
  std::string name;
  std::vector<TraceEvent> events;
};

/// Prints integers without a decimal point so args like {"tasks": 512}
/// normalize identically regardless of how the parser stored them.
std::string FormatNumber(double value) {
  if (std::floor(value) == value && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

/// Loads a trace file into name-keyed tracks, in the writer's track
/// order. Returns false with a message on parse/shape errors.
bool LoadTrace(const char* path, std::vector<Track>* tracks,
               std::string* error) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    *error = std::string("cannot open ") + path;
    return false;
  }
  std::string text;
  char buffer[1 << 16];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);

  JsonValue doc;
  if (!JsonValue::Parse(text, &doc, error)) {
    *error = std::string(path) + ": " + *error;
    return false;
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = std::string(path) + ": missing traceEvents array";
    return false;
  }

  // First pass: thread_name metadata maps tids to track names.
  std::map<int, std::string> tid_names;
  for (const JsonValue& event : events->array_items) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* name = event.Find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (ph->StringOr("") != "M" || name->StringOr("") != "thread_name") {
      continue;
    }
    const JsonValue* tid = event.Find("tid");
    const JsonValue* args = event.Find("args");
    const JsonValue* thread = args != nullptr ? args->Find("name") : nullptr;
    if (tid == nullptr || thread == nullptr) continue;
    tid_names[static_cast<int>(tid->NumberOr(-1.0))] =
        std::string(thread->StringOr("?"));
  }

  std::map<int, std::size_t> track_of_tid;
  for (const JsonValue& event : events->array_items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr) continue;
    const std::string phase(ph->StringOr(""));
    if (phase != "X" && phase != "i") continue;
    const int tid =
        static_cast<int>(event.Find("tid") != nullptr
                             ? event.Find("tid")->NumberOr(-1.0)
                             : -1.0);
    auto it = track_of_tid.find(tid);
    if (it == track_of_tid.end()) {
      Track track;
      const auto name_it = tid_names.find(tid);
      track.name = name_it != tid_names.end()
                       ? name_it->second
                       : "tid_" + std::to_string(tid);
      tracks->push_back(std::move(track));
      it = track_of_tid.emplace(tid, tracks->size() - 1).first;
    }
    TraceEvent out;
    if (const JsonValue* name = event.Find("name")) {
      out.name = std::string(name->StringOr("?"));
    }
    if (const JsonValue* cat = event.Find("cat")) {
      out.cat = std::string(cat->StringOr(""));
    }
    out.ph = phase;
    if (const JsonValue* depth = event.Find("depth")) {
      out.depth = static_cast<int>(depth->NumberOr(0.0));
    }
    if (const JsonValue* dur = event.Find("dur")) {
      out.dur_us = dur->NumberOr(0.0);
    }
    if (const JsonValue* args = event.Find("args")) {
      for (const auto& [key, value] : args->object_items) {
        if (!out.args.empty()) out.args += " ";
        out.args += key + "=";
        out.args += value.is_string() ? std::string(value.StringOr(""))
                                      : FormatNumber(value.NumberOr(0.0));
      }
    }
    (*tracks)[it->second].events.push_back(std::move(out));
  }
  return true;
}

/// Links every complete span to its parent via the depth field and
/// accumulates direct-child durations (for self time).
void BuildTree(Track* track) {
  std::vector<std::size_t> stack;  // indices of open ancestor spans
  for (std::size_t i = 0; i < track->events.size(); ++i) {
    TraceEvent& event = track->events[i];
    while (!stack.empty() &&
           track->events[stack.back()].depth >= event.depth) {
      stack.pop_back();
    }
    if (event.ph != "X") continue;  // instants neither nest nor parent
    if (!stack.empty()) {
      TraceEvent& parent = track->events[stack.back()];
      parent.child_dur_us += event.dur_us;
      parent.children.push_back(i);
    }
    stack.push_back(i);
  }
}

int Summarize(const std::vector<Track>& tracks, int top) {
  struct NameStats {
    std::size_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, NameStats> spans;
  std::map<std::string, std::size_t> instants;
  for (const Track& track : tracks) {
    for (const TraceEvent& event : track.events) {
      if (event.ph == "i") {
        ++instants[event.name];
        continue;
      }
      NameStats& stats = spans[event.name];
      ++stats.calls;
      stats.total_us += event.dur_us;
      stats.self_us += event.dur_us - event.child_dur_us;
    }
  }

  std::vector<std::pair<std::string, NameStats>> ordered(spans.begin(),
                                                         spans.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second.self_us != b.second.self_us) {
                return a.second.self_us > b.second.self_us;
              }
              return a.first < b.first;
            });
  if (top > 0 && ordered.size() > static_cast<std::size_t>(top)) {
    ordered.resize(static_cast<std::size_t>(top));
  }

  Table table({"span", "calls", "total ms", "self ms"});
  for (const auto& [name, stats] : ordered) {
    table.AddRow({name, Table::Num(static_cast<std::int64_t>(stats.calls)),
                  Table::Num(stats.total_us / 1000.0),
                  Table::Num(stats.self_us / 1000.0)});
  }
  std::printf("%s", table.ToString().c_str());
  if (!instants.empty()) {
    Table itable({"instant", "count"});
    for (const auto& [name, count] : instants) {
      itable.AddRow({name, Table::Num(static_cast<std::int64_t>(count))});
    }
    std::printf("\n%s", itable.ToString().c_str());
  }
  std::size_t total_events = 0;
  for (const Track& track : tracks) total_events += track.events.size();
  std::printf("\n%zu tracks, %zu events\n", tracks.size(), total_events);
  return 0;
}

int CriticalPath(std::vector<Track>& tracks) {
  const Track* best_track = nullptr;
  std::size_t best_root = 0;
  double best_dur = -1.0;
  for (Track& track : tracks) {
    BuildTree(&track);
    for (std::size_t i = 0; i < track.events.size(); ++i) {
      const TraceEvent& event = track.events[i];
      if (event.ph != "X" || event.depth != 0) continue;
      if (event.dur_us > best_dur) {
        best_dur = event.dur_us;
        best_track = &track;
        best_root = i;
      }
    }
  }
  if (best_track == nullptr) {
    std::printf("no complete spans in trace\n");
    return 0;
  }

  std::printf("critical path (track %s):\n", best_track->name.c_str());
  Table table({"span", "total ms", "self ms"});
  std::size_t current = best_root;
  for (;;) {
    const TraceEvent& event = best_track->events[current];
    std::string indent(static_cast<std::size_t>(event.depth) * 2, ' ');
    table.AddRow({indent + event.name, Table::Num(event.dur_us / 1000.0),
                  Table::Num((event.dur_us - event.child_dur_us) / 1000.0)});
    if (event.children.empty()) break;
    std::size_t next = event.children.front();
    for (const std::size_t child : event.children) {
      if (best_track->events[child].dur_us >
          best_track->events[next].dur_us) {
        next = child;
      }
    }
    current = next;
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

/// One comparable line per event: everything deterministic, nothing
/// clock-derived.
std::vector<std::string> NormalizedSequence(const std::vector<Track>& tracks) {
  // Tracks match by name across files; sort so a tid permutation between
  // the two files cannot masquerade as a difference.
  std::vector<const Track*> ordered;
  for (const Track& track : tracks) ordered.push_back(&track);
  std::sort(ordered.begin(), ordered.end(),
            [](const Track* a, const Track* b) { return a->name < b->name; });
  std::vector<std::string> lines;
  for (const Track* track : ordered) {
    for (const TraceEvent& event : track->events) {
      std::string line = track->name;
      line += "|" + std::to_string(event.depth);
      line += "|" + event.cat;
      line += "|" + event.ph;
      line += "|" + event.name;
      line += "|" + event.args;
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

int Diff(const char* path_a, const char* path_b) {
  std::vector<Track> tracks_a, tracks_b;
  std::string error;
  if (!LoadTrace(path_a, &tracks_a, &error) ||
      !LoadTrace(path_b, &tracks_b, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::vector<std::string> a = NormalizedSequence(tracks_a);
  const std::vector<std::string> b = NormalizedSequence(tracks_b);

  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      std::printf("traces differ at event %zu:\n  %s: %s\n  %s: %s\n", i,
                  path_a, a[i].c_str(), path_b, b[i].c_str());
      return 3;
    }
  }
  if (a.size() != b.size()) {
    std::printf("traces differ in length: %zu vs %zu events\n", a.size(),
                b.size());
    return 3;
  }
  std::printf("traces identical: %zu events\n", a.size());
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--top N] [--critical-path]\n"
               "       %s --diff <a.json> <b.json>\n"
               "exit codes: 0 ok, 1 usage, 2 bad input, 3 traces differ\n",
               argv0, argv0);
  return 1;
}

}  // namespace
}  // namespace mbta

int main(int argc, char** argv) {
  using namespace mbta;
  if (argc < 2) return Usage(argv[0]);

  if (std::string(argv[1]) == "--diff") {
    if (argc != 4) return Usage(argv[0]);
    return Diff(argv[2], argv[3]);
  }

  int top = 0;
  bool critical_path = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--top" && i + 1 < argc) {
      top = std::atoi(argv[++i]);
    } else if (flag == "--critical-path") {
      critical_path = true;
    } else {
      return Usage(argv[0]);
    }
  }

  std::vector<Track> tracks;
  std::string error;
  if (!LoadTrace(argv[1], &tracks, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (critical_path) return CriticalPath(tracks);
  for (Track& track : tracks) BuildTree(&track);
  return Summarize(tracks, top);
}
