#include "service/state.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <sstream>

#include "service/text_codec.h"
#include "util/crc32.h"

namespace mbta {

namespace {

// Same pre-allocation ceilings market_io enforces: a hostile snapshot
// header may not make the parser reserve unbounded memory.
constexpr long long kMaxEntities = 50'000'000;
constexpr long long kMaxPairs = 500'000'000;
constexpr long long kMaxPending = 10'000'000;

void Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

bool NextLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    const std::size_t first = line->find_first_not_of(" \t\r");
    if (first == std::string::npos || (*line)[first] == '#') continue;
    const std::size_t last = line->find_last_not_of(" \t\r");
    *line = line->substr(first, last - first + 1);
    return true;
  }
  return false;
}

/// Reads "<keyword> <count>" with overflow-proof extraction (long long
/// never wraps for any decimal that fits a line) and a hard ceiling.
bool ExpectCount(std::istream& in, const std::string& keyword,
                 long long ceiling, long long* count, std::string* error) {
  std::string line;
  if (!NextLine(in, &line)) {
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

bool ExpectScalar(std::istream& in, const std::string& keyword,
                  std::uint64_t* value, std::string* error) {
  std::string line;
  if (!NextLine(in, &line)) {
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

}  // namespace

std::size_t ServiceState::WorkerIndex(std::uint64_t id) const {
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i].id == id) return i;
  }
  return npos;
}

std::size_t ServiceState::TaskIndex(std::uint64_t id) const {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].id == id) return i;
  }
  return npos;
}

bool ApplyDelta(ServiceState& state, const Delta& delta, std::string* error) {
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      if (state.WorkerIndex(delta.id) != ServiceState::npos) {
        Fail(error, "worker id already live: " + std::to_string(delta.id));
        return false;
      }
      state.workers.push_back(StableWorker{delta.id, delta.worker});
      return true;
    case DeltaKind::kAddTask:
      if (state.TaskIndex(delta.id) != ServiceState::npos) {
        Fail(error, "task id already live: " + std::to_string(delta.id));
        return false;
      }
      state.tasks.push_back(StableTask{delta.id, delta.task});
      return true;
    case DeltaKind::kRemoveWorker: {
      const std::size_t i = state.WorkerIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such worker: " + std::to_string(delta.id));
        return false;
      }
      state.workers.erase(state.workers.begin() +
                          static_cast<std::ptrdiff_t>(i));
      std::erase_if(state.pairs, [&](const StablePair& p) {
        return p.worker == delta.id;
      });
      return true;
    }
    case DeltaKind::kRemoveTask: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks.erase(state.tasks.begin() + static_cast<std::ptrdiff_t>(i));
      std::erase_if(state.pairs,
                    [&](const StablePair& p) { return p.task == delta.id; });
      return true;
    }
    case DeltaKind::kWorkerCapacity: {
      const std::size_t i = state.WorkerIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such worker: " + std::to_string(delta.id));
        return false;
      }
      state.workers[i].worker.capacity = delta.capacity;
      return true;
    }
    case DeltaKind::kTaskCapacity: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.capacity = delta.capacity;
      return true;
    }
    case DeltaKind::kTaskPayment: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.payment = delta.amount;
      return true;
    }
    case DeltaKind::kTaskValue: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        Fail(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.value = delta.amount;
      return true;
    }
  }
  Fail(error, "unknown delta kind");
  return false;
}

LaborMarket BuildMarket(const ServiceState& state,
                        const EdgeModelParams& edge_model) {
  LaborMarketBuilder builder;
  for (const StableWorker& w : state.workers) builder.AddWorker(w.worker);
  for (const StableTask& t : state.tasks) builder.AddTask(t.task);
  builder.ConnectEligiblePairs(edge_model);
  builder.SetName("service(epoch=" + std::to_string(state.epoch) + ")");
  return builder.Build();
}

std::string SerializeServiceState(const ServiceState& state) {
  // A number spells in at most 24 bytes; reserving for that bound keeps
  // the one string from regrowing.
  std::size_t numbers = 8 + 2 * state.pairs.size() + 8 * state.pending.size();
  for (const StableWorker& sw : state.workers) {
    numbers += 5 + sw.worker.skills.size();
  }
  for (const StableTask& st : state.tasks) {
    numbers += 6 + st.task.required_skills.size();
  }
  for (const Delta& d : state.pending) {
    numbers += d.worker.skills.size() + d.task.required_skills.size();
  }
  std::string out;
  out.reserve(25 * numbers);
  const auto line = [&out](const char* keyword, std::uint64_t value) {
    out += keyword;
    out += ' ';
    AppendNumber(value, &out);
    out += '\n';
  };
  out += "mbta-service-state v1\n";
  line("epoch", state.epoch);
  line("wal_records", state.wal_records);
  line("reference", state.reference_bits);
  line("workers", state.workers.size());
  for (const StableWorker& sw : state.workers) {
    out += "w ";
    AppendWorkerFields(sw.id, sw.worker, &out);
    out += '\n';
  }
  line("tasks", state.tasks.size());
  for (const StableTask& st : state.tasks) {
    out += "t ";
    AppendTaskFields(st.id, st.task, &out);
    out += '\n';
  }
  line("pairs", state.pairs.size());
  for (const StablePair& p : state.pairs) {
    out += "a ";
    AppendNumber(p.worker, &out);
    out += ' ';
    AppendNumber(p.task, &out);
    out += '\n';
  }
  line("pending", state.pending.size());
  for (const Delta& d : state.pending) {
    out += "d ";
    AppendFormattedDelta(d, &out);
    out += '\n';
  }
  return out;
}

std::optional<ServiceState> ParseServiceState(std::istream& in,
                                              std::string* error) {
  ServiceState state;
  std::string line;
  if (!NextLine(in, &line) || line != "mbta-service-state v1") {
    Fail(error, "missing or bad header (want 'mbta-service-state v1')");
    return std::nullopt;
  }
  if (!ExpectScalar(in, "epoch", &state.epoch, error) ||
      !ExpectScalar(in, "wal_records", &state.wal_records, error) ||
      !ExpectScalar(in, "reference", &state.reference_bits, error)) {
    return std::nullopt;
  }

  long long num_workers = 0;
  if (!ExpectCount(in, "workers", kMaxEntities, &num_workers, error)) {
    return std::nullopt;
  }
  state.workers.reserve(static_cast<std::size_t>(num_workers));
  for (long long i = 0; i < num_workers; ++i) {
    if (!NextLine(in, &line)) {
      Fail(error, "truncated worker section");
      return std::nullopt;
    }
    // Re-spell the line as an add-worker delta and reuse its hardened
    // parser: one validator, one set of range rules.
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 'w' && line[1] == ' ') {
      d = ParseDelta("add-worker " + line.substr(2), error);
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
  if (!ExpectCount(in, "tasks", kMaxEntities, &num_tasks, error)) {
    return std::nullopt;
  }
  state.tasks.reserve(static_cast<std::size_t>(num_tasks));
  for (long long i = 0; i < num_tasks; ++i) {
    if (!NextLine(in, &line)) {
      Fail(error, "truncated task section");
      return std::nullopt;
    }
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 't' && line[1] == ' ') {
      d = ParseDelta("add-task " + line.substr(2), error);
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
  if (!ExpectCount(in, "pairs", kMaxPairs, &num_pairs, error)) {
    return std::nullopt;
  }
  state.pairs.reserve(static_cast<std::size_t>(num_pairs));
  for (long long i = 0; i < num_pairs; ++i) {
    if (!NextLine(in, &line)) {
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
  if (!ExpectCount(in, "pending", kMaxPending, &num_pending, error)) {
    return std::nullopt;
  }
  for (long long i = 0; i < num_pending; ++i) {
    if (!NextLine(in, &line)) {
      Fail(error, "truncated pending section");
      return std::nullopt;
    }
    std::optional<Delta> d;
    if (line.size() > 2 && line[0] == 'd' && line[1] == ' ') {
      d = ParseDelta(line.substr(2), error);
    }
    if (!d.has_value()) {
      Fail(error, "bad pending line: " + line);
      return std::nullopt;
    }
    state.pending.push_back(*d);
  }
  return state;
}

std::uint32_t StateChecksum(const ServiceState& state) {
  return Crc32(SerializeServiceState(state));
}

}  // namespace mbta
