#ifndef MBTA_TESTS_REFERENCE_TEXT_READERS_H_
#define MBTA_TESTS_REFERENCE_TEXT_READERS_H_

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "market/assignment.h"
#include "market/labor_market.h"
#include "service/delta.h"
#include "service/state.h"
#include "util/crc32.h"

/// The istringstream readers and the ostream writers that the one text
/// codec (io/text_codec.h) replaced, kept as the oracle of
/// text_codec_differential_test: markets and assignments (market_io),
/// delta lines and scripts (delta), service states (state) and the
/// snapshot trailer check (snapshot). Fault injection is left out; the
/// rest is the replaced code with its helpers renamed apart.
namespace mbta::reference {

namespace detail {

constexpr char kMarketHeader[] = "mbta-market v1";
constexpr char kAssignmentHeader[] = "mbta-assignment v1";
constexpr long long kMaxEntities = 50'000'000;
constexpr long long kMaxEdgeCount = 500'000'000;
constexpr std::size_t kMaxSkillDims = 4096;
constexpr long long kMaxPairs = 500'000'000;
constexpr long long kMaxPending = 10'000'000;

inline bool AllFinite(std::initializer_list<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

inline void Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// market_io's line rule: no trimming.
inline bool NextMarketLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    if (!line->empty() && (*line)[0] != '#') return true;
  }
  return false;
}

inline bool ExpectMarketCount(std::istream& in, const std::string& keyword,
                              long long max_count, std::size_t* count,
                              std::string* error) {
  std::string line;
  if (!NextMarketLine(in, &line)) {
    Fail(error, "unexpected end of file before '" + keyword + "'");
    return false;
  }
  std::istringstream ls(line);
  std::string word;
  long long n = -1;
  if (!(ls >> word >> n) || word != keyword || n < 0) {
    Fail(error, "expected '" + keyword + " <count>', got: " + line);
    return false;
  }
  if (n > max_count) {
    Fail(error, "implausible " + keyword + " count " + std::to_string(n) +
                    " (limit " + std::to_string(max_count) + ")");
    return false;
  }
  *count = static_cast<std::size_t>(n);
  return true;
}

inline void WriteSkills(const SkillVector& skills, std::ostream& out) {
  for (double s : skills) out << ' ' << s;
}

inline bool ReadSkills(std::istringstream& ls, SkillVector* skills) {
  double v = 0.0;
  while (ls >> v) {
    if (!std::isfinite(v) || v < 0.0) return false;
    if (skills->size() >= kMaxSkillDims) return false;
    skills->push_back(v);
  }
  return ls.eof();
}

inline bool FinitePositiveSkills(const SkillVector& skills,
                                 std::string* error) {
  if (skills.size() > kMaxSkillDims) {
    if (error != nullptr) *error = "skill vector too long";
    return false;
  }
  for (double s : skills) {
    if (!std::isfinite(s) || s < 0.0) {
      if (error != nullptr) *error = "skill weights must be finite and >= 0";
      return false;
    }
  }
  return true;
}

/// state's line rule: trimmed.
inline bool NextStateLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    const std::size_t first = line->find_first_not_of(" \t\r");
    if (first == std::string::npos || (*line)[first] == '#') continue;
    const std::size_t last = line->find_last_not_of(" \t\r");
    *line = line->substr(first, last - first + 1);
    return true;
  }
  return false;
}

inline bool ExpectStateCount(std::istream& in, const std::string& keyword,
                             long long ceiling, long long* count,
                             std::string* error) {
  std::string line;
  if (!NextStateLine(in, &line)) {
    Fail(error, "unexpected end of file before '" + keyword + "'");
    return false;
  }
  std::istringstream ls(line);
  std::string word;
  long long n = 0;
  if (!(ls >> word >> n) || word != keyword || (ls >> word)) {
    Fail(error, "expected '" + keyword + " <count>', got: " + line);
    return false;
  }
  if (n < 0 || n > ceiling) {
    Fail(error, "implausible " + keyword + " count " + std::to_string(n) +
                    " (max " + std::to_string(ceiling) + ")");
    return false;
  }
  *count = n;
  return true;
}

inline bool ExpectStateScalar(std::istream& in, const std::string& keyword,
                              std::uint64_t* value, std::string* error) {
  std::string line;
  if (!NextStateLine(in, &line)) {
    Fail(error, "unexpected end of file before '" + keyword + "'");
    return false;
  }
  std::istringstream ls(line);
  std::string word;
  if (!(ls >> word >> *value) || word != keyword || (ls >> word)) {
    Fail(error, "expected '" + keyword + " <value>', got: " + line);
    return false;
  }
  return true;
}

}  // namespace detail

inline void WriteMarket(const LaborMarket& market, std::ostream& out) {
  out << detail::kMarketHeader << '\n';
  out << "name " << market.name() << '\n';
  out << std::setprecision(17);
  out << "workers " << market.NumWorkers() << '\n';
  for (const Worker& w : market.workers()) {
    out << "w " << w.capacity << ' ' << w.unit_cost << ' ' << w.fatigue
        << ' ' << w.reliability;
    detail::WriteSkills(w.skills, out);
    out << '\n';
  }
  out << "tasks " << market.NumTasks() << '\n';
  for (const Task& t : market.tasks()) {
    out << "t " << t.capacity << ' ' << t.payment << ' ' << t.value << ' '
        << t.difficulty << ' ' << t.requester;
    detail::WriteSkills(t.required_skills, out);
    out << '\n';
  }
  out << "edges " << market.NumEdges() << '\n';
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    out << "e " << market.EdgeWorker(e) << ' ' << market.EdgeTask(e) << ' '
        << market.Quality(e) << ' ' << market.WorkerBenefit(e) << '\n';
  }
}

inline std::optional<LaborMarket> ReadMarket(std::istream& in,
                                             std::string* error) {
  using detail::Fail;
  std::string line;
  if (!detail::NextMarketLine(in, &line) || line != detail::kMarketHeader) {
    Fail(error, "missing or bad header (want '" +
                    std::string(detail::kMarketHeader) + "')");
    return std::nullopt;
  }
  if (!detail::NextMarketLine(in, &line) || line.rfind("name ", 0) != 0) {
    Fail(error, "expected 'name <name>'");
    return std::nullopt;
  }
  LaborMarketBuilder builder;
  builder.SetName(line.substr(5));

  std::size_t num_workers = 0;
  if (!detail::ExpectMarketCount(in, "workers", detail::kMaxEntities,
                                 &num_workers, error)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    if (!detail::NextMarketLine(in, &line)) {
      Fail(error, "truncated worker section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    Worker w;
    if (!(ls >> tag >> w.capacity >> w.unit_cost >> w.fatigue >>
          w.reliability) ||
        tag != "w" || !detail::ReadSkills(ls, &w.skills) ||
        !detail::AllFinite({w.unit_cost, w.fatigue, w.reliability}) ||
        w.capacity < 0 || w.unit_cost < 0.0 || w.fatigue <= 0.0 ||
        w.fatigue > 1.0 || w.reliability < 0.0 || w.reliability > 1.0) {
      Fail(error, "bad worker line: " + line);
      return std::nullopt;
    }
    builder.AddWorker(std::move(w));
  }

  std::size_t num_tasks = 0;
  if (!detail::ExpectMarketCount(in, "tasks", detail::kMaxEntities,
                                 &num_tasks, error)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < num_tasks; ++i) {
    if (!detail::NextMarketLine(in, &line)) {
      Fail(error, "truncated task section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    Task t;
    if (!(ls >> tag >> t.capacity >> t.payment >> t.value >>
          t.difficulty >> t.requester) ||
        tag != "t" || !detail::ReadSkills(ls, &t.required_skills) ||
        !detail::AllFinite({t.payment, t.value, t.difficulty}) ||
        t.capacity < 0 || t.payment < 0.0 || t.value < 0.0 ||
        t.difficulty < 0.0 || t.difficulty > 1.0) {
      Fail(error, "bad task line: " + line);
      return std::nullopt;
    }
    builder.AddTask(std::move(t));
  }

  std::size_t num_edges = 0;
  if (!detail::ExpectMarketCount(in, "edges", detail::kMaxEdgeCount,
                                 &num_edges, error)) {
    return std::nullopt;
  }
  if (num_edges > num_workers * num_tasks) {
    Fail(error, "edge count exceeds workers * tasks");
    return std::nullopt;
  }
  std::unordered_set<std::uint64_t> seen_pairs;
  for (std::size_t i = 0; i < num_edges; ++i) {
    if (!detail::NextMarketLine(in, &line)) {
      Fail(error, "truncated edge section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t w = 0, t = 0;
    EdgeAttributes attr;
    if (!(ls >> tag >> w >> t >> attr.quality >> attr.worker_benefit) ||
        tag != "e" || w >= num_workers || t >= num_tasks ||
        !detail::AllFinite({attr.quality, attr.worker_benefit}) ||
        attr.quality < 0.0 || attr.quality > 1.0 ||
        attr.worker_benefit < 0.0) {
      Fail(error, "bad edge line: " + line);
      return std::nullopt;
    }
    if (!seen_pairs.insert((w << 32) | t).second) {
      Fail(error, "duplicate edge: " + line);
      return std::nullopt;
    }
    builder.AddEdge(static_cast<WorkerId>(w), static_cast<TaskId>(t), attr);
  }
  return builder.Build();
}

inline void WriteAssignment(const LaborMarket& market, const Assignment& a,
                            std::ostream& out) {
  out << detail::kAssignmentHeader << '\n';
  out << "pairs " << a.edges.size() << '\n';
  for (EdgeId e : a.edges) {
    out << "a " << market.EdgeWorker(e) << ' ' << market.EdgeTask(e)
        << '\n';
  }
}

inline std::optional<Assignment> ReadAssignment(const LaborMarket& market,
                                                std::istream& in,
                                                std::string* error) {
  using detail::Fail;
  std::string line;
  if (!detail::NextMarketLine(in, &line) ||
      line != detail::kAssignmentHeader) {
    Fail(error, "missing or bad header (want '" +
                    std::string(detail::kAssignmentHeader) + "')");
    return std::nullopt;
  }
  std::size_t pairs = 0;
  if (!detail::ExpectMarketCount(in, "pairs", detail::kMaxEdgeCount, &pairs,
                                 error)) {
    return std::nullopt;
  }
  Assignment a;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (!detail::NextMarketLine(in, &line)) {
      Fail(error, "truncated pair section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t w = 0, t = 0;
    if (!(ls >> tag >> w >> t) || tag != "a" || w >= market.NumWorkers() ||
        t >= market.NumTasks()) {
      Fail(error, "bad pair line: " + line);
      return std::nullopt;
    }
    const EdgeId e = market.graph().FindEdge(static_cast<VertexId>(w),
                                             static_cast<VertexId>(t));
    if (e == kInvalidEdge) {
      Fail(error, "pair is not an eligible edge: " + line);
      return std::nullopt;
    }
    a.edges.push_back(e);
  }
  if (!IsFeasible(market, a)) {
    Fail(error, "assignment violates capacities or repeats a pair");
    return std::nullopt;
  }
  return a;
}

inline bool ValidateDelta(const Delta& delta, std::string* error) {
  using detail::AllFinite;
  using detail::Fail;
  switch (delta.kind) {
    case DeltaKind::kAddWorker: {
      const Worker& w = delta.worker;
      if (!AllFinite({w.unit_cost, w.fatigue, w.reliability}) ||
          w.capacity < 0 || w.unit_cost < 0.0 || w.fatigue <= 0.0 ||
          w.fatigue > 1.0 || w.reliability < 0.0 || w.reliability > 1.0) {
        Fail(error, "bad worker fields");
        return false;
      }
      return detail::FinitePositiveSkills(w.skills, error);
    }
    case DeltaKind::kAddTask: {
      const Task& t = delta.task;
      if (!AllFinite({t.payment, t.value, t.difficulty}) || t.capacity < 0 ||
          t.payment < 0.0 || t.value < 0.0 || t.difficulty < 0.0 ||
          t.difficulty > 1.0) {
        Fail(error, "bad task fields");
        return false;
      }
      return detail::FinitePositiveSkills(t.required_skills, error);
    }
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      return true;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      if (delta.capacity < 0) {
        Fail(error, "capacity must be >= 0");
        return false;
      }
      return true;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      if (!std::isfinite(delta.amount) || delta.amount < 0.0) {
        Fail(error, "amount must be finite and >= 0");
        return false;
      }
      return true;
  }
  Fail(error, "unknown delta kind");
  return false;
}

inline std::optional<Delta> ParseDelta(const std::string& line,
                                       std::string* error) {
  using detail::Fail;
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) {
    Fail(error, "empty delta line");
    return std::nullopt;
  }
  Delta d;
  if (verb == "add-worker") {
    d.kind = DeltaKind::kAddWorker;
  } else if (verb == "add-task") {
    d.kind = DeltaKind::kAddTask;
  } else if (verb == "rm-worker") {
    d.kind = DeltaKind::kRemoveWorker;
  } else if (verb == "rm-task") {
    d.kind = DeltaKind::kRemoveTask;
  } else if (verb == "worker-capacity") {
    d.kind = DeltaKind::kWorkerCapacity;
  } else if (verb == "task-capacity") {
    d.kind = DeltaKind::kTaskCapacity;
  } else if (verb == "task-payment") {
    d.kind = DeltaKind::kTaskPayment;
  } else if (verb == "task-value") {
    d.kind = DeltaKind::kTaskValue;
  } else {
    Fail(error, "unknown delta verb: " + verb);
    return std::nullopt;
  }
  bool ok = static_cast<bool>(in >> d.id);
  switch (d.kind) {
    case DeltaKind::kAddWorker:
      ok = ok && (in >> d.worker.capacity >> d.worker.unit_cost >>
                  d.worker.fatigue >> d.worker.reliability);
      if (ok) {
        double s = 0.0;
        while (in >> s) d.worker.skills.push_back(s);
        ok = in.eof();
      }
      break;
    case DeltaKind::kAddTask:
      ok = ok && (in >> d.task.capacity >> d.task.payment >> d.task.value >>
                  d.task.difficulty >> d.task.requester);
      if (ok) {
        double s = 0.0;
        while (in >> s) d.task.required_skills.push_back(s);
        ok = in.eof();
      }
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      ok = ok && (in >> d.capacity);
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      ok = ok && (in >> d.amount);
      break;
  }
  if (ok && !in.eof()) {
    std::string junk;
    if (in >> junk) ok = false;
  }
  if (!ok) {
    Fail(error, "bad delta line: " + line);
    return std::nullopt;
  }
  if (!reference::ValidateDelta(d, error)) return std::nullopt;
  return d;
}

inline std::optional<std::vector<ScriptEntry>> ParseDeltaScript(
    std::istream& in, std::string* error) {
  std::vector<ScriptEntry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(first, last - first + 1);
    ScriptEntry entry;
    if (body == "epoch") {
      entry.epoch = true;
    } else {
      std::string why;
      std::optional<Delta> d = reference::ParseDelta(body, &why);
      if (!d.has_value()) {
        detail::Fail(error, "line " + std::to_string(lineno) + ": " + why);
        return std::nullopt;
      }
      entry.delta = *d;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

inline std::optional<ServiceState> ParseServiceState(std::istream& in,
                                                     std::string* error) {
  using detail::Fail;
  ServiceState state;
  std::string line;
  if (!detail::NextStateLine(in, &line) || line != "mbta-service-state v1") {
    Fail(error, "missing or bad header (want 'mbta-service-state v1')");
    return std::nullopt;
  }
  if (!detail::ExpectStateScalar(in, "epoch", &state.epoch, error) ||
      !detail::ExpectStateScalar(in, "wal_records", &state.wal_records,
                                 error) ||
      !detail::ExpectStateScalar(in, "reference", &state.reference_bits,
                                 error)) {
    return std::nullopt;
  }

  long long num_workers = 0;
  if (!detail::ExpectStateCount(in, "workers", detail::kMaxEntities,
                                &num_workers, error)) {
    return std::nullopt;
  }
  for (long long i = 0; i < num_workers; ++i) {
    if (!detail::NextStateLine(in, &line)) {
      Fail(error, "truncated worker section");
      return std::nullopt;
    }
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 'w' && line[1] == ' ') {
      d = reference::ParseDelta("add-worker " + line.substr(2), error);
    }
    if (!d.has_value() || d->kind != DeltaKind::kAddWorker) {
      Fail(error, "bad worker line: " + line);
      return std::nullopt;
    }
    if (state.WorkerIndex(d->id) != ServiceState::npos) {
      Fail(error, "duplicate worker id: " + std::to_string(d->id));
      return std::nullopt;
    }
    state.workers.push_back(StableWorker{d->id, d->worker});
  }

  long long num_tasks = 0;
  if (!detail::ExpectStateCount(in, "tasks", detail::kMaxEntities,
                                &num_tasks, error)) {
    return std::nullopt;
  }
  for (long long i = 0; i < num_tasks; ++i) {
    if (!detail::NextStateLine(in, &line)) {
      Fail(error, "truncated task section");
      return std::nullopt;
    }
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 't' && line[1] == ' ') {
      d = reference::ParseDelta("add-task " + line.substr(2), error);
    }
    if (!d.has_value() || d->kind != DeltaKind::kAddTask) {
      Fail(error, "bad task line: " + line);
      return std::nullopt;
    }
    if (state.TaskIndex(d->id) != ServiceState::npos) {
      Fail(error, "duplicate task id: " + std::to_string(d->id));
      return std::nullopt;
    }
    state.tasks.push_back(StableTask{d->id, d->task});
  }

  long long num_pairs = 0;
  if (!detail::ExpectStateCount(in, "pairs", detail::kMaxPairs, &num_pairs,
                                error)) {
    return std::nullopt;
  }
  for (long long i = 0; i < num_pairs; ++i) {
    if (!detail::NextStateLine(in, &line)) {
      Fail(error, "truncated pair section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    StablePair p;
    if (!(ls >> tag >> p.worker >> p.task) || tag != "a" || (ls >> tag)) {
      Fail(error, "bad pair line: " + line);
      return std::nullopt;
    }
    if (state.WorkerIndex(p.worker) == ServiceState::npos ||
        state.TaskIndex(p.task) == ServiceState::npos) {
      Fail(error, "pair references unknown entity: " + line);
      return std::nullopt;
    }
    state.pairs.push_back(p);
  }
  if (!std::is_sorted(state.pairs.begin(), state.pairs.end()) ||
      std::adjacent_find(state.pairs.begin(), state.pairs.end()) !=
          state.pairs.end()) {
    Fail(error, "pairs must be sorted and unique");
    return std::nullopt;
  }

  long long num_pending = 0;
  if (!detail::ExpectStateCount(in, "pending", detail::kMaxPending,
                                &num_pending, error)) {
    return std::nullopt;
  }
  for (long long i = 0; i < num_pending; ++i) {
    if (!detail::NextStateLine(in, &line)) {
      Fail(error, "truncated pending section");
      return std::nullopt;
    }
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 'd' && line[1] == ' ') {
      d = reference::ParseDelta(line.substr(2), error);
    }
    if (!d.has_value()) {
      Fail(error, "bad pending line: " + line);
      return std::nullopt;
    }
    state.pending.push_back(*d);
  }
  return state;
}

/// ReadSnapshot after its file read: the trailer check, then the parse.
inline std::optional<ServiceState> ReadSnapshotContents(
    const std::string& contents, const std::string& path,
    std::string* error) {
  using detail::Fail;
  const std::size_t trailer_at = contents.rfind("checksum ");
  if (trailer_at == std::string::npos ||
      (trailer_at != 0 && contents[trailer_at - 1] != '\n')) {
    Fail(error, "snapshot missing checksum trailer: " + path);
    return std::nullopt;
  }
  std::istringstream trailer(contents.substr(trailer_at));
  std::string word;
  unsigned long long want = 0;
  std::string junk;
  if (!(trailer >> word >> want) || word != "checksum" || (trailer >> junk) ||
      want > 0xFFFFFFFFull) {
    Fail(error, "snapshot has malformed checksum trailer: " + path);
    return std::nullopt;
  }
  const std::string body = contents.substr(0, trailer_at);
  if (Crc32(body) != static_cast<std::uint32_t>(want)) {
    Fail(error, "snapshot checksum mismatch: " + path);
    return std::nullopt;
  }
  std::istringstream body_in(body);
  std::string why;
  std::optional<ServiceState> state =
      reference::ParseServiceState(body_in, &why);
  if (!state.has_value()) {
    Fail(error, "snapshot parse error: " + why);
    return std::nullopt;
  }
  return state;
}

}  // namespace mbta::reference

#endif  // MBTA_TESTS_REFERENCE_TEXT_READERS_H_
