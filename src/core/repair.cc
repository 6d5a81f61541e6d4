#include "core/repair.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/check.h"

namespace mbta {

namespace {

/// The worker side of the marginal gain for one run of same-worker
/// candidates. Loading sorts the worker's chosen benefits once and keeps
/// the fatigue fold's running (utility, weight) before every position;
/// a candidate's benefit then goes in at its rank and only the tail is
/// folded. The sorted sequence and each IEEE operation are exactly those
/// of the from-scratch fold in MarginalGain, so the result is
/// bit-identical. (Equal benefits are interchangeable: equal nonzero
/// doubles share their bits, and a zero adds nothing to the fold
/// whatever its sign.)
class WorkerFold {
 public:
  void Load(const ObjectiveState& state, WorkerId w, bool modular,
            std::span<const double> benefit) {
    worker_ = w;
    modular_ = modular;
    sorted_.clear();
    if (modular) {
      double sum = 0.0;
      for (EdgeId we : state.WorkerEdges(w)) sum += benefit[we];
      old_ = sum;
      return;
    }
    for (EdgeId we : state.WorkerEdges(w)) sorted_.push_back(benefit[we]);
    std::sort(sorted_.begin(), sorted_.end(), std::greater<>());
    const double fatigue = state.objective().market().worker(w).fatigue;
    utility_.resize(sorted_.size() + 1);
    weight_.resize(sorted_.size() + 1);
    utility_[0] = 0.0;
    weight_[0] = 1.0;
    for (std::size_t k = 0; k < sorted_.size(); ++k) {
      utility_[k + 1] = utility_[k] + weight_[k] * sorted_[k];
      weight_[k + 1] = weight_[k] * fatigue;
    }
    old_ = utility_[sorted_.size()];
  }

  WorkerId worker() const { return worker_; }
  /// The worker's utility without the candidate.
  double old_value() const { return old_; }

  /// The worker's utility with a candidate of benefit `b` added.
  double With(double b) const {
    if (modular_) return old_ + b;
    const std::size_t m = sorted_.size();
    std::size_t r = 0;
    while (r < m && sorted_[r] >= b) ++r;
    double utility = utility_[r] + weight_[r] * b;
    for (std::size_t k = r; k < m; ++k) utility += weight_[k + 1] * sorted_[k];
    return utility;
  }

 private:
  WorkerId worker_ = kNoBan;
  bool modular_ = false;
  double old_ = 0.0;
  std::vector<double> sorted_;   // chosen benefits, descending
  std::vector<double> utility_;  // fold utility before sorted_[k]
  std::vector<double> weight_;   // fold weight before sorted_[k]
};

/// Re-seeds `state` with every edge of `current` not incident to the
/// given worker/task and returns the entity's own former edges.
std::vector<EdgeId> SeedWithout(ObjectiveState& state,
                                const Assignment& current, WorkerId skip_w,
                                TaskId skip_t) {
  const LaborMarket& market = state.objective().market();
  std::vector<EdgeId> skipped;
  for (EdgeId e : current.edges) {
    if (market.EdgeWorker(e) == skip_w || market.EdgeTask(e) == skip_t) {
      skipped.push_back(e);
    } else {
      state.Add(e);
    }
  }
  return skipped;
}

/// Incident edges of every task in `tasks` / worker in `workers`,
/// deduplicated and sorted so refill scan order is deterministic.
std::vector<EdgeId> IncidentCandidates(const LaborMarket& market,
                                       const std::vector<WorkerId>& workers,
                                       const std::vector<TaskId>& tasks) {
  std::vector<EdgeId> candidates;
  for (WorkerId w : workers) {
    for (const Incidence& inc : market.WorkerEdges(w)) {
      candidates.push_back(inc.edge);
    }
  }
  for (TaskId t : tasks) {
    for (const Incidence& inc : market.TaskEdges(t)) {
      candidates.push_back(inc.edge);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// Shared body of the two patch paths: keep everything not incident to
/// the patched entity, re-add the entity's former edges best-first while
/// feasible (sheds overflow from a capacity cut), then refill around the
/// entity and every task/worker that lost a pair.
Assignment PatchAndRepair(const MutualBenefitObjective& objective,
                          const Assignment& current, WorkerId patch_w,
                          TaskId patch_t, RepairStats* stats) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);
  const std::vector<EdgeId> former =
      SeedWithout(state, current, patch_w, patch_t);
  // Re-add the entity's previous edges greedily (best marginal first):
  // under a tightened capacity only the most valuable survive.
  GreedyRefill(state, former, stats);
  std::vector<WorkerId> touched_workers;
  std::vector<TaskId> touched_tasks;
  if (patch_w != kNoBan) touched_workers.push_back(patch_w);
  if (patch_t != kNoBan) touched_tasks.push_back(patch_t);
  for (EdgeId e : former) {
    if (state.Contains(e)) continue;
    if (stats != nullptr) ++stats->edges_dropped;
    // The peer endpoint regained capacity; let it pick a replacement.
    touched_workers.push_back(market.EdgeWorker(e));
    touched_tasks.push_back(market.EdgeTask(e));
  }
  GreedyRefill(state,
               IncidentCandidates(market, touched_workers, touched_tasks),
               stats);
  return state.ToAssignment();
}

}  // namespace

void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats, DeadlineGate* gate, RefillBans bans,
                  std::vector<RefillEvaluation>* evaluations) {
  const MutualBenefitObjective& objective = state.objective();
  const LaborMarket& market = objective.market();
  const std::span<const double> quality = market.Qualities();
  const std::span<const double> benefit = market.WorkerBenefits();
  const std::span<const double> task_value = market.EdgeTaskValues();
  const double alpha = objective.alpha();
  const bool modular = objective.kind() == ObjectiveKind::kModular;

  std::vector<EdgeId> live;
  live.reserve(candidates.size());
  for (EdgeId e : candidates) {
    MBTA_CHECK(e < market.NumEdges());
    if (market.EdgeWorker(e) != bans.worker &&
        market.EdgeTask(e) != bans.task) {
      live.push_back(e);
    }
  }
  // Requester term of each task over its chosen edges — the sum of
  // V(t)·q (modular) or the miss product (submodular) — valid for the
  // pass it is stamped with.
  std::vector<std::uint32_t> task_pass(market.NumTasks(), 0);
  std::vector<double> task_term(market.NumTasks());
  WorkerFold fold;
  for (std::uint32_t pass = 1;; ++pass) {
    double best_gain = 1e-12;
    EdgeId best_edge = kInvalidEdge;
    bool fold_loaded = false;
    std::size_t kept = 0;
    for (const EdgeId e : live) {
      if (!state.CanAdd(e)) continue;  // for the rest of this refill
      live[kept++] = e;
      if (gate != nullptr && gate->Charge()) return;
      const WorkerId w = market.EdgeWorker(e);
      const TaskId t = market.EdgeTask(e);
      if (task_pass[t] != pass) {
        double term = modular ? 0.0 : 1.0;
        for (EdgeId te : state.TaskEdges(t)) {
          if (modular) {
            term += task_value[te] * quality[te];
          } else {
            term *= 1.0 - quality[te];
          }
        }
        task_pass[t] = pass;
        task_term[t] = term;
      }
      double task_old;
      double task_plus;
      if (modular) {
        task_old = task_term[t];
        task_plus = task_term[t] + task_value[e] * quality[e];
      } else {
        task_old = task_value[e] * (1.0 - task_term[t]);
        task_plus = task_value[e] * (1.0 - task_term[t] * (1.0 - quality[e]));
      }
      if (!fold_loaded || fold.worker() != w) {
        fold.Load(state, w, modular, benefit);
        fold_loaded = true;
      }
      const double gain = alpha * (task_plus - task_old) +
                          (1.0 - alpha) * (fold.With(benefit[e]) -
                                           fold.old_value());
      if (stats != nullptr) ++stats->gain_evaluations;
      if (evaluations != nullptr) evaluations->push_back({e, gain});
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e;
      }
    }
    live.resize(kept);
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    if (stats != nullptr) ++stats->edges_added;
  }
}

Assignment RemoveWorkerAndRepair(const MutualBenefitObjective& objective,
                                 const Assignment& current, WorkerId w,
                                 RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(w < market.NumWorkers());
  ObjectiveState state(&objective);
  std::vector<TaskId> freed_tasks;
  for (EdgeId e : current.edges) {
    if (market.EdgeWorker(e) == w) {
      freed_tasks.push_back(market.EdgeTask(e));
      if (stats != nullptr) ++stats->edges_dropped;
    } else {
      state.Add(e);
    }
  }
  // Candidates: every edge of every task the departed worker served.
  std::vector<EdgeId> candidates;
  for (TaskId t : freed_tasks) {
    for (const Incidence& inc : market.TaskEdges(t)) {
      candidates.push_back(inc.edge);
    }
  }
  GreedyRefill(state, candidates, stats, nullptr, RefillBans{.worker = w});
  return state.ToAssignment();
}

Assignment RemoveTaskAndRepair(const MutualBenefitObjective& objective,
                               const Assignment& current, TaskId t,
                               RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(t < market.NumTasks());
  ObjectiveState state(&objective);
  std::vector<WorkerId> freed_workers;
  for (EdgeId e : current.edges) {
    if (market.EdgeTask(e) == t) {
      freed_workers.push_back(market.EdgeWorker(e));
      if (stats != nullptr) ++stats->edges_dropped;
    } else {
      state.Add(e);
    }
  }
  std::vector<EdgeId> candidates;
  for (WorkerId w : freed_workers) {
    for (const Incidence& inc : market.WorkerEdges(w)) {
      candidates.push_back(inc.edge);
    }
  }
  GreedyRefill(state, candidates, stats, nullptr, RefillBans{.task = t});
  return state.ToAssignment();
}

Assignment AddWorkerAndRepair(const MutualBenefitObjective& objective,
                              const Assignment& current, WorkerId w,
                              RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(w < market.NumWorkers());
  ObjectiveState state(&objective);
  for (EdgeId e : current.edges) {
    MBTA_CHECK(market.EdgeWorker(e) != w);
    state.Add(e);
  }
  GreedyRefill(state, IncidentCandidates(market, {w}, {}), stats);
  return state.ToAssignment();
}

Assignment AddTaskAndRepair(const MutualBenefitObjective& objective,
                            const Assignment& current, TaskId t,
                            RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(t < market.NumTasks());
  ObjectiveState state(&objective);
  for (EdgeId e : current.edges) {
    MBTA_CHECK(market.EdgeTask(e) != t);
    state.Add(e);
  }
  GreedyRefill(state, IncidentCandidates(market, {}, {t}), stats);
  return state.ToAssignment();
}

Assignment PatchWorkerAndRepair(const MutualBenefitObjective& objective,
                                const Assignment& current, WorkerId w,
                                RepairStats* stats) {
  MBTA_CHECK(w < objective.market().NumWorkers());
  return PatchAndRepair(objective, current, w, kNoBan, stats);
}

Assignment PatchTaskAndRepair(const MutualBenefitObjective& objective,
                              const Assignment& current, TaskId t,
                              RepairStats* stats) {
  MBTA_CHECK(t < objective.market().NumTasks());
  return PatchAndRepair(objective, current, kNoBan, t, stats);
}

}  // namespace mbta
