#include "service/market_service.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "core/greedy_solver.h"
#include "core/repair.h"
#include "core/validate.h"
#include "io/text_codec.h"
#include "util/check.h"

namespace mbta {

namespace {

/// Dense edge id of pair (w, t), or kInvalidEdge when the pair is not an
/// edge of this market. An assembled epoch market lists each worker's
/// edges in ascending task order (MatchCache::Assemble), so this is a
/// binary search.
EdgeId FindEdge(const LaborMarket& market, WorkerId w, TaskId t) {
  const std::span<const Incidence> edges = market.WorkerEdges(w);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), t,
      [](const Incidence& inc, TaskId task) { return inc.vertex < task; });
  return it != edges.end() && it->vertex == t ? it->edge : kInvalidEdge;
}

/// Stable id → dense index over one entity list, as a sorted flat table.
class IdIndex {
 public:
  template <typename Entity>
  explicit IdIndex(const std::vector<Entity>& entities) {
    entries_.reserve(entities.size());
    for (std::size_t i = 0; i < entities.size(); ++i) {
      entries_.emplace_back(entities[i].id, static_cast<VertexId>(i));
    }
    std::sort(entries_.begin(), entries_.end());
  }

  /// Dense index of `id`, or ServiceState::npos when it is not live.
  std::size_t Find(std::uint64_t id) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     std::pair<std::uint64_t, VertexId>(id, 0));
    return it != entries_.end() && it->first == id ? it->second
                                                   : ServiceState::npos;
  }

 private:
  std::vector<std::pair<std::uint64_t, VertexId>> entries_;
};

}  // namespace

MarketService::MarketService(ServiceConfig config)
    : config_(std::move(config)), match_cache_(config_.edge_model) {
  durable_ = !config_.wal_path.empty();
  if (durable_ && config_.snapshot_path.empty()) {
    config_.snapshot_path = config_.wal_path + ".snap";
  }
  if (config_.clock == nullptr) config_.clock = &SteadyClock::Instance();
}

MarketService::~MarketService() = default;

bool MarketService::Start(std::string* error) {
  if (started_) {
    SetError(error, "service already started");
    return false;
  }
  if (durable_ && !RecoverFromDisk(error)) return false;
  started_ = true;
  return true;
}

bool MarketService::RecoverFromDisk(std::string* error) {
  // 1. Read the WAL (tolerating a torn tail) before touching anything.
  std::string why;
  std::optional<WalReadResult> wal = ReadWal(config_.wal_path, &why);
  bool wal_exists = true;
  if (!wal.has_value()) {
    if (why.find("cannot open") != std::string::npos) {
      // Fresh service: no WAL yet.
      wal_exists = false;
    } else {
      SetError(error, "WAL unreadable: " + why);
      return false;
    }
  }
  if (wal_exists && wal->tail_dropped) {
    // Amputate the torn tail so the append path never extends garbage.
    stats_.counters.Add("service/wal/tail_dropped");
    if (!TruncateWal(config_.wal_path, wal->valid_bytes, &why)) {
      SetError(error, why);
      return false;
    }
  }

  // 2. Seed state from the snapshot when one exists.
  state_ = ServiceState{};
  std::optional<ServiceState> snap = ReadSnapshot(config_.snapshot_path, &why);
  if (snap.has_value()) {
    state_ = std::move(*snap);
  } else if (why.find("cannot open") == std::string::npos) {
    // The snapshot exists but is corrupt: recovery must not silently
    // fall back to a full replay that may disagree with what the WAL's
    // record count assumes.
    SetError(error, "snapshot unreadable: " + why);
    return false;
  }

  // 3. Replay the WAL suffix the snapshot has not seen.
  if (wal_exists) {
    if (state_.wal_records > wal->records.size()) {
      SetError(error,
               "snapshot is ahead of the WAL (" +
                   std::to_string(state_.wal_records) + " > " +
                   std::to_string(wal->records.size()) +
                   " records): mismatched files");
      return false;
    }
    for (std::size_t i = state_.wal_records; i < wal->records.size(); ++i) {
      const WalRecord& record = wal->records[i];
      if (record.type == WalRecordType::kDelta) {
        state_.pending.push_back(record.delta);
        ++state_.wal_records;
        stats_.counters.Add("service/recovery/replayed_deltas");
        continue;
      }
      const EpochCommit& commit = record.epoch;
      if (commit.num_deltas > state_.pending.size()) {
        SetError(error, "WAL epoch record consumes more deltas than queued");
        return false;
      }
      ExecuteEpoch(commit.mode, commit.num_deltas);
      ++state_.wal_records;
      if (state_.epoch != commit.epoch ||
          std::bit_cast<std::uint64_t>(last_value_) != commit.value_bits ||
          StateChecksum(state_) != commit.state_crc) {
        SetError(error,
                 "WAL replay diverged at epoch " +
                     std::to_string(commit.epoch) +
                     ": recovered state does not match the committed "
                     "checksum/value");
        return false;
      }
      stats_.counters.Add("service/recovery/replayed_epochs");
    }
  }

  // 4. Reopen the log for append.
  if (!wal_.Open(config_.wal_path, &why, config_.faults, config_.syncer)) {
    SetError(error, why);
    return false;
  }
  return true;
}

SubmitResult MarketService::Submit(const Delta& delta, std::string* error) {
  MBTA_CHECK(started_);
  if (failed_) {
    SetError(error, "service failed (durability error) — restart to recover");
    return SubmitResult::kRejected;
  }
  if (!ValidateDelta(delta, error)) {
    stats_.counters.Add("service/delta/rejected");
    return SubmitResult::kRejected;
  }
  // Departures are always admitted: shedding one would keep ghost
  // entities alive forever. Everything else sheds when the queue is
  // full — deterministically reject-newest, so live runs and replays
  // agree on what was never logged.
  const bool departure = delta.kind == DeltaKind::kRemoveWorker ||
                         delta.kind == DeltaKind::kRemoveTask;
  if (!departure && state_.pending.size() >= config_.queue_capacity) {
    stats_.counters.Add("service/delta/shed");
    SetError(error, "admission queue full");
    return SubmitResult::kShed;
  }
  if (durable_) {
    // Log before enqueue: a delta the queue has seen is always
    // recoverable. The append may throw FaultInjectedError (crash
    // tests); the writer poisons itself first, so we fail the service on
    // the way out.
    try {
      std::string why;
      if (!wal_.AppendDelta(delta, &why)) {
        failed_ = true;
        SetError(error, why);
        return SubmitResult::kRejected;
      }
    } catch (...) {
      failed_ = true;
      throw;
    }
    ++state_.wal_records;
  }
  state_.pending.push_back(delta);
  stats_.counters.Add("service/delta/admitted");
  return SubmitResult::kAdmitted;
}

void MarketService::ExecuteEpoch(EpochMode mode, std::uint32_t num_deltas) {
  MBTA_CHECK(num_deltas <= state_.pending.size());
  ScopedPhase service_phase(&stats_.phases, "service");
  ScopedPhase epoch_phase(&stats_.phases, "epoch");

  // --- 1. Apply the batch to the entity lists -----------------------------
  // Touched stable ids seed the repair candidate set: arrivals, patched
  // entities, and the peers freed by a departure.
  std::vector<std::uint64_t> touched_worker_ids;
  std::vector<std::uint64_t> touched_task_ids;
  {
    ScopedPhase phase(&stats_.phases, "apply");
    for (std::uint32_t i = 0; i < num_deltas; ++i) {
      const Delta delta = state_.pending.front();
      state_.pending.pop_front();
      switch (delta.kind) {
        case DeltaKind::kAddWorker:
        case DeltaKind::kWorkerCapacity:
          touched_worker_ids.push_back(delta.id);
          break;
        case DeltaKind::kAddTask:
        case DeltaKind::kTaskCapacity:
        case DeltaKind::kTaskPayment:
        case DeltaKind::kTaskValue:
          touched_task_ids.push_back(delta.id);
          break;
        case DeltaKind::kRemoveWorker:
          for (const StablePair& p : state_.pairs) {
            if (p.worker == delta.id) touched_task_ids.push_back(p.task);
          }
          break;
        case DeltaKind::kRemoveTask:
          for (const StablePair& p : state_.pairs) {
            if (p.task == delta.id) touched_worker_ids.push_back(p.worker);
          }
          break;
      }
      // A departure's dense index, which the cache needs once it is gone.
      std::size_t removed = ServiceState::npos;
      if (delta.kind == DeltaKind::kRemoveWorker) {
        removed = state_.WorkerIndex(delta.id);
      } else if (delta.kind == DeltaKind::kRemoveTask) {
        removed = state_.TaskIndex(delta.id);
      }
      std::string why;
      if (ApplyDelta(state_, delta, &why)) {
        if (match_cache_.valid()) match_cache_.Apply(state_, delta, removed);
      } else {
        // Stale delta (e.g. a capacity change racing a departure that
        // was admitted earlier in this very batch). Skipping is
        // deterministic — replay applies the identical rule.
        stats_.counters.Add("service/delta/stale");
        if (delta.kind == DeltaKind::kAddWorker ||
            delta.kind == DeltaKind::kWorkerCapacity) {
          touched_worker_ids.pop_back();
        } else if (delta.kind != DeltaKind::kRemoveWorker &&
                   delta.kind != DeltaKind::kRemoveTask) {
          touched_task_ids.pop_back();
        }
      }
    }
  }

  // --- 2. Fix the carried pairs and assemble the reach market ------------
  // The first epoch after Start builds the cache from the entity lists
  // (|W|·|T| matches); later epochs only assemble. Carried pairs are
  // checked in stable-id order (state_.pairs is sorted), exactly as the
  // re-anchor below adds them: a pair is dropped when it is no longer an
  // eligible edge or no longer fits a tightened capacity. Dropped
  // endpoints join the touched set so their slack is refilled, and the
  // market then holds only what the repair can read: every edge with a
  // touched endpoint, plus each carried pair's edge.
  std::vector<std::pair<WorkerId, TaskId>> carried;  // stable-id order
  RepairStats repair_stats;
  MarketReach reach;
  std::vector<EdgeId> candidates;
  LaborMarket market;
  {
    ScopedPhase phase(&stats_.phases, "rebuild");
    if (!match_cache_.valid()) match_cache_.Rebuild(state_);
    const IdIndex worker_index(state_.workers);
    const IdIndex task_index(state_.tasks);
    std::vector<int> worker_load(state_.workers.size(), 0);
    std::vector<int> task_load(state_.tasks.size(), 0);
    carried.reserve(state_.pairs.size());
    for (const StablePair& p : state_.pairs) {
      const std::size_t w = worker_index.Find(p.worker);
      const std::size_t t = task_index.Find(p.task);
      MBTA_CHECK(w != ServiceState::npos && t != ServiceState::npos);
      if (match_cache_.IsEdge(state_, w, t) &&
          worker_load[w] < state_.workers[w].worker.capacity &&
          task_load[t] < state_.tasks[t].task.capacity) {
        ++worker_load[w];
        ++task_load[t];
        carried.emplace_back(static_cast<WorkerId>(w), static_cast<TaskId>(t));
      } else {
        ++repair_stats.edges_dropped;
        touched_worker_ids.push_back(p.worker);
        touched_task_ids.push_back(p.task);
      }
    }
    reach.carried = carried;
    std::sort(reach.carried.begin(), reach.carried.end());
    reach.worker_touched.assign(state_.workers.size(), 0);
    reach.task_touched.assign(state_.tasks.size(), 0);
    std::size_t workers_touched = 0;
    for (std::uint64_t id : touched_worker_ids) {
      const std::size_t w = worker_index.Find(id);
      if (w == ServiceState::npos) continue;  // departed this batch
      workers_touched += reach.worker_touched[w] == 0 ? 1 : 0;
      reach.worker_touched[w] = 1;
    }
    for (std::uint64_t id : touched_task_ids) {
      const std::size_t t = task_index.Find(id);
      if (t != ServiceState::npos) reach.task_touched[t] = 1;
    }
    for (std::size_t t = 0; t < state_.tasks.size(); ++t) {
      if (reach.task_touched[t] != 0) {
        reach.touched_tasks.push_back(static_cast<TaskId>(t));
      }
    }
    reach.everything = workers_touched == state_.workers.size() ||
                       reach.touched_tasks.size() == state_.tasks.size();
    market = match_cache_.Assemble(state_, reach, &candidates);
  }
  if (config_.market_observer) config_.market_observer(market);
  const MutualBenefitObjective objective(&market, config_.objective);

  // --- 3. Re-anchor the carried assignment and repair ---------------------
  ObjectiveState solution(&objective);
  {
    ScopedPhase phase(&stats_.phases, "repair");
    for (const auto& [w, t] : carried) {
      const EdgeId e = FindEdge(market, w, t);
      MBTA_CHECK(e != kInvalidEdge);
      solution.Add(e);
    }
    DeadlineBudget budget;
    budget.max_work = config_.epoch_max_work;
    DeadlineGate gate(budget, config_.faults);
    GreedyRefill(solution, candidates, &repair_stats, &gate);
    if (gate.expired()) {
      stats_.deadline_hit = true;
      stats_.stop_reason = gate.reason();
      stats_.counters.Add("service/epoch/budget_hit");
    }
  }
  Assignment repaired = solution.ToAssignment();
  double value = objective.Value(repaired);

  // --- 4. Escape hatch -----------------------------------------------------
  // When repair quality degrades past the configured fraction of the
  // best value this service has committed, pay for a full greedy
  // re-solve and keep the better assignment. Degraded epochs skip the
  // hatch — that is exactly what "degraded" means. The re-solve needs
  // the full market, so the hatch assembles it; the committed pairs are
  // read back through whichever market the winning assignment indexes.
  const double reference = std::bit_cast<double>(state_.reference_bits);
  bool full_ran = false;
  LaborMarket full_market;
  const LaborMarket* committed = &market;
  if (mode == EpochMode::kNormal && config_.resolve_ratio > 0.0 &&
      state_.reference_bits != 0 && value < config_.resolve_ratio * reference) {
    ScopedPhase phase(&stats_.phases, "full_resolve");
    stats_.counters.Add("service/epoch/full_resolve");
    full_ran = true;
    MarketReach whole;
    whole.everything = true;
    full_market = match_cache_.Assemble(state_, whole);
    if (config_.market_observer) config_.market_observer(full_market);
    const GreedySolver solver;
    MbtaProblem problem{&full_market, config_.objective};
    SolveOptions options;
    options.budget.max_work = config_.epoch_max_work;
    options.faults = config_.faults;
    SolveStats full_stats;
    Assignment full = solver.Solve(problem, options, &full_stats);
    stats_.gain_evaluations += full_stats.gain_evaluations;
    const double full_value = problem.MakeObjective().Value(full);
    if (full_value > value) {
      repaired = std::move(full);
      value = full_value;
      committed = &full_market;
    }
  }
  stats_.gain_evaluations += repair_stats.gain_evaluations;
  stats_.counters.Add("service/repair/gain_evaluations",
                      repair_stats.gain_evaluations);
  stats_.counters.Add("service/repair/dropped_pairs",
                      repair_stats.edges_dropped);

  // --- 5. Validate and commit into stable-id space ------------------------
  {
    ScopedPhase phase(&stats_.phases, "validate");
    MbtaProblem problem{committed, config_.objective};
    const ValidationResult check = ValidateAssignment(problem, repaired);
    MBTA_CHECK_MSG(check.ok(), "epoch assignment invalid: %s",
                   check.Message().c_str());
  }
  state_.pairs.clear();
  state_.pairs.reserve(repaired.edges.size());
  for (EdgeId e : repaired.edges) {
    state_.pairs.push_back(
        StablePair{state_.workers[committed->EdgeWorker(e)].id,
                   state_.tasks[committed->EdgeTask(e)].id});
  }
  std::sort(state_.pairs.begin(), state_.pairs.end());

  if (full_ran) {
    state_.reference_bits = std::bit_cast<std::uint64_t>(value);
  } else {
    state_.reference_bits =
        std::bit_cast<std::uint64_t>(std::max(reference, value));
  }
  state_.epoch += 1;
  last_value_ = value;
  last_mode_ = mode;
  stats_.counters.Add("service/epoch/total");
  if (mode == EpochMode::kDegraded) {
    stats_.counters.Add("service/epoch/degraded");
  }
}

bool MarketService::RunEpoch(std::string* error) {
  MBTA_CHECK(started_);
  if (failed_) {
    SetError(error, "service failed (durability error) — restart to recover");
    return false;
  }
  const std::uint32_t num_deltas = static_cast<std::uint32_t>(
      std::min<std::size_t>(state_.pending.size(), config_.epoch_batch));
  // The one wall-clock input: a slow previous epoch degrades this one to
  // repair-only. Recorded in the epoch's WAL record below, so replay
  // reproduces the decision without ever reading a clock.
  const EpochMode mode = config_.degrade_after_ms > 0.0 &&
                                 last_epoch_ms_ > config_.degrade_after_ms
                             ? EpochMode::kDegraded
                             : EpochMode::kNormal;
  const double t0 = config_.clock->NowMs();
  ExecuteEpoch(mode, num_deltas);
  last_epoch_ms_ = config_.clock->NowMs() - t0;

  if (!durable_) return true;

  EpochCommit commit;
  commit.epoch = state_.epoch;
  commit.mode = mode;
  commit.num_deltas = num_deltas;
  commit.value_bits = std::bit_cast<std::uint64_t>(last_value_);
  // The commit record itself counts: replay increments wal_records after
  // executing the epoch, so the checksum must be taken with the record
  // already counted.
  ++state_.wal_records;
  commit.state_crc = StateChecksum(state_);
  try {
    ScopedPhase phase(&stats_.phases, "wal");
    std::string why;
    if (!wal_.AppendEpoch(commit, &why) || !wal_.Sync(&why)) {
      failed_ = true;
      SetError(error, why);
      return false;
    }
  } catch (...) {
    failed_ = true;
    throw;
  }

  if (config_.snapshot_every > 0 &&
      state_.epoch % config_.snapshot_every == 0) {
    ScopedPhase phase(&stats_.phases, "snapshot");
    stats_.counters.Add("service/snapshot/written");
    try {
      std::string why;
      if (!WriteSnapshot(state_, config_.snapshot_path, &why, config_.faults,
                         config_.syncer)) {
        failed_ = true;
        SetError(error, why);
        return false;
      }
    } catch (...) {
      failed_ = true;
      throw;
    }
  }
  return true;
}

}  // namespace mbta
