#ifndef MBTA_TESTS_REFERENCE_EPOCH_H_
#define MBTA_TESTS_REFERENCE_EPOCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/greedy_solver.h"
#include "core/repair.h"
#include "core/validate.h"
#include "service/market_service.h"
#include "util/check.h"

namespace mbta {

/// What one reference epoch did, beside the state it leaves behind.
struct ReferenceEpoch {
  /// BuildMarket of the applied entity lists: the market the epoch
  /// repaired on.
  LaborMarket market;
  double value = 0.0;
  /// Refill evaluations plus the full re-solve's, when it ran.
  std::size_t gain_evaluations = 0;
  /// Carried pairs dropped because their edge vanished (no longer
  /// eligible) or because they no longer fit a tightened capacity.
  std::size_t dropped_ineligible = 0;
  std::size_t dropped_capacity = 0;
  bool budget_hit = false;
  bool full_resolve = false;
  /// The reach, in the market's dense ids: touched entities (after the
  /// dropped pairs' endpoints joined) and the surviving carried pairs.
  std::vector<std::uint8_t> worker_touched;
  std::vector<std::uint8_t> task_touched;
  std::vector<std::pair<WorkerId, TaskId>> carried;
};

/// The full-market epoch MarketService ran before reach markets, kept as
/// the oracle of the epoch differential tests: steps 1–5 of
/// ExecuteEpoch over BuildMarket(state), re-anchoring carried pairs on
/// the full market and refilling from the edges of every touched entity.
/// Mutates `state` as the service does (entities, pairs, reference,
/// epoch); leaves the WAL progress marker to the caller.
inline ReferenceEpoch RunReferenceEpoch(ServiceState& state,
                                        const ServiceConfig& config,
                                        EpochMode mode,
                                        std::uint32_t num_deltas) {
  MBTA_CHECK(num_deltas <= state.pending.size());
  ReferenceEpoch out;
  // --- 1. Apply the batch -------------------------------------------------
  std::vector<std::uint64_t> touched_worker_ids;
  std::vector<std::uint64_t> touched_task_ids;
  for (std::uint32_t i = 0; i < num_deltas; ++i) {
    const Delta delta = state.pending.front();
    state.pending.pop_front();
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
        for (const StablePair& p : state.pairs) {
          if (p.worker == delta.id) touched_task_ids.push_back(p.task);
        }
        break;
      case DeltaKind::kRemoveTask:
        for (const StablePair& p : state.pairs) {
          if (p.task == delta.id) touched_worker_ids.push_back(p.worker);
        }
        break;
    }
    if (!ApplyDelta(state, delta)) {
      if (delta.kind == DeltaKind::kAddWorker ||
          delta.kind == DeltaKind::kWorkerCapacity) {
        touched_worker_ids.pop_back();
      } else if (delta.kind != DeltaKind::kRemoveWorker &&
                 delta.kind != DeltaKind::kRemoveTask) {
        touched_task_ids.pop_back();
      }
    }
  }

  // --- 2. The full market -------------------------------------------------
  out.market = BuildMarket(state, config.edge_model);
  const LaborMarket& market = out.market;
  const MutualBenefitObjective objective(&market, config.objective);
  const auto find_edge = [&market](std::size_t w, std::size_t t) {
    for (const Incidence& inc : market.WorkerEdges(static_cast<WorkerId>(w))) {
      if (inc.vertex == t) return inc.edge;
    }
    return kInvalidEdge;
  };

  // --- 3. Re-anchor the carried pairs and repair --------------------------
  ObjectiveState solution(&objective);
  RepairStats repair_stats;
  for (const StablePair& p : state.pairs) {
    const std::size_t w = state.WorkerIndex(p.worker);
    const std::size_t t = state.TaskIndex(p.task);
    MBTA_CHECK(w != ServiceState::npos && t != ServiceState::npos);
    const EdgeId e = find_edge(w, t);
    if (e != kInvalidEdge && solution.CanAdd(e)) {
      solution.Add(e);
      out.carried.emplace_back(static_cast<WorkerId>(w),
                               static_cast<TaskId>(t));
    } else {
      ++(e == kInvalidEdge ? out.dropped_ineligible : out.dropped_capacity);
      ++repair_stats.edges_dropped;
      touched_worker_ids.push_back(p.worker);
      touched_task_ids.push_back(p.task);
    }
  }
  out.worker_touched.assign(market.NumWorkers(), 0);
  out.task_touched.assign(market.NumTasks(), 0);
  std::vector<EdgeId> candidates;
  for (std::uint64_t id : touched_worker_ids) {
    const std::size_t w = state.WorkerIndex(id);
    if (w == ServiceState::npos) continue;
    out.worker_touched[w] = 1;
    for (const Incidence& inc : market.WorkerEdges(static_cast<WorkerId>(w))) {
      candidates.push_back(inc.edge);
    }
  }
  for (std::uint64_t id : touched_task_ids) {
    const std::size_t t = state.TaskIndex(id);
    if (t == ServiceState::npos) continue;
    out.task_touched[t] = 1;
    for (const Incidence& inc : market.TaskEdges(static_cast<TaskId>(t))) {
      candidates.push_back(inc.edge);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  DeadlineBudget budget;
  budget.max_work = config.epoch_max_work;
  DeadlineGate gate(budget, config.faults);
  GreedyRefill(solution, candidates, &repair_stats, &gate);
  out.budget_hit = gate.expired();
  Assignment repaired = solution.ToAssignment();
  double value = objective.Value(repaired);

  // --- 4. Escape hatch ----------------------------------------------------
  const double reference = std::bit_cast<double>(state.reference_bits);
  if (mode == EpochMode::kNormal && config.resolve_ratio > 0.0 &&
      state.reference_bits != 0 && value < config.resolve_ratio * reference) {
    out.full_resolve = true;
    MbtaProblem problem{&market, config.objective};
    SolveOptions options;
    options.budget.max_work = config.epoch_max_work;
    options.faults = config.faults;
    SolveStats full_stats;
    Assignment full = GreedySolver().Solve(problem, options, &full_stats);
    out.gain_evaluations += full_stats.gain_evaluations;
    const double full_value = objective.Value(full);
    if (full_value > value) {
      repaired = std::move(full);
      value = full_value;
    }
  }
  out.gain_evaluations += repair_stats.gain_evaluations;

  // --- 5. Validate and commit ---------------------------------------------
  MBTA_CHECK(ValidateAssignment(MbtaProblem{&market, config.objective},
                                repaired)
                 .ok());
  state.pairs.clear();
  for (EdgeId e : repaired.edges) {
    state.pairs.push_back(StablePair{state.workers[market.EdgeWorker(e)].id,
                                     state.tasks[market.EdgeTask(e)].id});
  }
  std::sort(state.pairs.begin(), state.pairs.end());
  state.reference_bits = std::bit_cast<std::uint64_t>(
      out.full_resolve ? value : std::max(reference, value));
  state.epoch += 1;
  out.value = value;
  return out;
}

/// Edge ids of `market` (a full BuildMarket) that lie in `epoch`'s reach:
/// a touched endpoint, or a surviving carried pair. Ascending.
inline std::vector<EdgeId> ReachEdges(const ReferenceEpoch& epoch) {
  const LaborMarket& market = epoch.market;
  std::vector<EdgeId> reach;
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    const WorkerId w = market.EdgeWorker(e);
    const TaskId t = market.EdgeTask(e);
    if (epoch.worker_touched[w] != 0 || epoch.task_touched[t] != 0 ||
        std::find(epoch.carried.begin(), epoch.carried.end(),
                  std::pair<WorkerId, TaskId>(w, t)) != epoch.carried.end()) {
      reach.push_back(e);
    }
  }
  return reach;
}

}  // namespace mbta

#endif  // MBTA_TESTS_REFERENCE_EPOCH_H_
