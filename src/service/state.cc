#include "service/state.h"

#include <algorithm>
#include <utility>

#include "io/text_codec.h"
#include "util/crc32.h"

namespace mbta {

namespace {

/// One sorted-id pass over a section's entities, in line order: returns
/// their stable ids sorted, and sets `*repeat` to the id of the first
/// line that repeats an earlier line's id, if any.
template <typename Entity>
std::vector<std::uint64_t> SortIds(const std::vector<Entity>& entities,
                                   std::optional<std::uint64_t>* repeat) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    keyed[i] = {entities[i].id, i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::size_t first = entities.size();
  std::vector<std::uint64_t> sorted(entities.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    sorted[i] = keyed[i].first;
    if (i > 0 && keyed[i].first == keyed[i - 1].first) {
      first = std::min(first, keyed[i].second);
    }
  }
  if (first < entities.size()) *repeat = entities[first].id;
  return sorted;
}

bool Contains(const std::vector<std::uint64_t>& sorted, std::uint64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
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
        SetError(error, "worker id already live: " + std::to_string(delta.id));
        return false;
      }
      state.workers.push_back(StableWorker{delta.id, delta.worker});
      return true;
    case DeltaKind::kAddTask:
      if (state.TaskIndex(delta.id) != ServiceState::npos) {
        SetError(error, "task id already live: " + std::to_string(delta.id));
        return false;
      }
      state.tasks.push_back(StableTask{delta.id, delta.task});
      return true;
    case DeltaKind::kRemoveWorker: {
      const std::size_t i = state.WorkerIndex(delta.id);
      if (i == ServiceState::npos) {
        SetError(error, "no such worker: " + std::to_string(delta.id));
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
        SetError(error, "no such task: " + std::to_string(delta.id));
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
        SetError(error, "no such worker: " + std::to_string(delta.id));
        return false;
      }
      state.workers[i].worker.capacity = delta.capacity;
      return true;
    }
    case DeltaKind::kTaskCapacity: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        SetError(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.capacity = delta.capacity;
      return true;
    }
    case DeltaKind::kTaskPayment: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        SetError(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.payment = delta.amount;
      return true;
    }
    case DeltaKind::kTaskValue: {
      const std::size_t i = state.TaskIndex(delta.id);
      if (i == ServiceState::npos) {
        SetError(error, "no such task: " + std::to_string(delta.id));
        return false;
      }
      state.tasks[i].task.value = delta.amount;
      return true;
    }
  }
  SetError(error, "unknown delta kind");
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
  out += "mbta-service-state v1\n";
  AppendKeyword("epoch", state.epoch, &out);
  AppendKeyword("wal_records", state.wal_records, &out);
  AppendKeyword("reference", state.reference_bits, &out);
  AppendKeyword("workers", state.workers.size(), &out);
  for (const StableWorker& sw : state.workers) {
    out += "w ";
    AppendNumber(sw.id, &out);
    out += ' ';
    AppendWorkerFields(sw.worker, &out);
    out += '\n';
  }
  AppendKeyword("tasks", state.tasks.size(), &out);
  for (const StableTask& st : state.tasks) {
    out += "t ";
    AppendNumber(st.id, &out);
    out += ' ';
    AppendTaskFields(st.task, &out);
    out += '\n';
  }
  AppendKeyword("pairs", state.pairs.size(), &out);
  for (const StablePair& p : state.pairs) {
    out += "a ";
    AppendNumber(p.worker, &out);
    out += ' ';
    AppendNumber(p.task, &out);
    out += '\n';
  }
  AppendKeyword("pending", state.pending.size(), &out);
  for (const Delta& d : state.pending) {
    out += "d ";
    AppendFormattedDelta(d, &out);
    out += '\n';
  }
  return out;
}

std::optional<ServiceState> ParseServiceState(std::string_view text,
                                              std::string* error) {
  ServiceState state;
  LineReader lines(text);
  std::string_view line;
  if (!lines.NextLine(&line) || line != "mbta-service-state v1") {
    SetError(error, "missing or bad header (want 'mbta-service-state v1')");
    return std::nullopt;
  }
  if (!ExpectScalar(lines, "epoch", &state.epoch, error) ||
      !ExpectScalar(lines, "wal_records", &state.wal_records, error) ||
      !ExpectScalar(lines, "reference", &state.reference_bits, error)) {
    return std::nullopt;
  }

  // Each entity section is checked for repeated ids in one sorted pass
  // over the lines it read, even when a later line is bad: a repeat is
  // reported at its own line, as a line-at-a-time check would.
  const auto ids_unique = [error](const char* side, const auto& entities,
                                 bool read,
                                 std::vector<std::uint64_t>* sorted) {
    std::optional<std::uint64_t> repeat;
    *sorted = SortIds(entities, &repeat);
    if (repeat.has_value()) {
      SetError(error, std::string("duplicate ") + side + " id: " +
                          std::to_string(*repeat));
      return false;
    }
    return read;
  };
  std::size_t count = 0;
  std::vector<std::uint64_t> worker_ids;
  if (!ExpectCount(lines, "workers", kMaxEntities, &count, error)) {
    return std::nullopt;
  }
  state.workers.reserve(count);
  const bool workers_read = ReadSection(
      lines, count, "worker", nullptr, error,
      [&](std::string_view l, std::string*) {
        FieldCursor fields(l);
        StableWorker sw;
        if (!fields.Expect("w") || !fields.Take(&sw.id) ||
            !ParseWorkerFields(fields, &sw.worker) || !ValidWorker(sw.worker)) {
          return false;
        }
        state.workers.push_back(std::move(sw));
        return true;
      });
  if (!ids_unique("worker", state.workers, workers_read, &worker_ids)) {
    return std::nullopt;
  }

  std::vector<std::uint64_t> task_ids;
  if (!ExpectCount(lines, "tasks", kMaxEntities, &count, error)) {
    return std::nullopt;
  }
  state.tasks.reserve(count);
  const bool tasks_read = ReadSection(
      lines, count, "task", nullptr, error,
      [&](std::string_view l, std::string*) {
        FieldCursor fields(l);
        StableTask st;
        if (!fields.Expect("t") || !fields.Take(&st.id) ||
            !ParseTaskFields(fields, &st.task) || !ValidTask(st.task)) {
          return false;
        }
        state.tasks.push_back(std::move(st));
        return true;
      });
  if (!ids_unique("task", state.tasks, tasks_read, &task_ids)) {
    return std::nullopt;
  }

  if (!ExpectCount(lines, "pairs", kMaxPairs, &count, error)) {
    return std::nullopt;
  }
  state.pairs.reserve(count);
  if (!ReadSection(lines, count, "pair", nullptr, error,
                   [&](std::string_view l, std::string* why) {
                     FieldCursor fields(l);
                     StablePair p;
                     if (!fields.Expect("a") || !fields.Take(&p.worker) ||
                         !fields.Take(&p.task) || !fields.Done()) {
                       return false;
                     }
                     if (!Contains(worker_ids, p.worker) ||
                         !Contains(task_ids, p.task)) {
                       *why = "pair references unknown entity: " +
                              std::string(l);
                       return false;
                     }
                     state.pairs.push_back(p);
                     return true;
                   })) {
    return std::nullopt;
  }
  if (!std::is_sorted(state.pairs.begin(), state.pairs.end()) ||
      std::adjacent_find(state.pairs.begin(), state.pairs.end()) !=
          state.pairs.end()) {
    SetError(error, "pairs must be sorted and unique");
    return std::nullopt;
  }

  if (!ExpectCount(lines, "pending", kMaxPending, &count, error) ||
      !ReadSection(lines, count, "pending", nullptr, error,
                   [&](std::string_view l, std::string*) {
                     FieldCursor fields(l);
                     if (!fields.Expect("d")) return false;
                     std::optional<Delta> d = ParseDelta(fields.rest());
                     if (!d.has_value()) return false;
                     state.pending.push_back(std::move(*d));
                     return true;
                   })) {
    return std::nullopt;
  }
  return state;
}

std::uint32_t StateChecksum(const ServiceState& state) {
  return Crc32(SerializeServiceState(state));
}

}  // namespace mbta
