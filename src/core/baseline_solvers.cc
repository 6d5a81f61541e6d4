#include "core/baseline_solvers.h"

#include <algorithm>
#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/distribution.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mbta {

Assignment RandomSolver::Solve(const MbtaProblem& problem,
                               const SolveOptions& options,
                               SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);

  Rng rng(seed_);
  std::vector<EdgeId> order(market.NumEdges());
  {
    ScopedPhase phase(phases, "shuffle");
    for (EdgeId e = 0; e < market.NumEdges(); ++e) order[e] = e;
    Shuffle(rng, order);
  }
  std::size_t scanned = 0;
  std::size_t accepted = 0;
  {
    ScopedPhase phase(phases, "fill");
    // Budget checkpoint: one charge per candidate edge scanned.
    for (EdgeId e : order) {
      if (gate->Charge()) break;
      ++scanned;
      if (state.CanAdd(e)) {
        state.Add(e);
        ++accepted;
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = scanned;
    info->counters.Add("random/edges_scanned", scanned);
    info->counters.Add("random/edges_accepted", accepted);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

namespace {

/// The one-sided baselines share one body: every vertex on the choosing
/// side, in id order, takes its incident edges best-first by its own
/// score until it is full (first come, first served on the other side).
Assignment OneSidedSolve(const MbtaProblem& problem,
                         const SolveOptions& options, SolveInfo* info,
                         bool workers_choose) {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);
  const std::size_t num_choosers =
      workers_choose ? market.NumWorkers() : market.NumTasks();

  std::size_t scanned = 0;
  std::size_t accepted = 0;
  bool expired = false;
  {
    ScopedPhase phase(phases,
                      workers_choose ? "assign_workers" : "assign_tasks");
    // Hoisted out of the per-vertex loop: clear()+reserve() reuses the
    // capacity, so only the first few vertices ever grow it (R9).
    std::vector<EdgeId> sorted;
    // Budget checkpoint: one charge per candidate edge scanned.
    for (VertexId v = 0; v < num_choosers && !expired; ++v) {
      auto edges = workers_choose ? market.WorkerEdges(v) : market.TaskEdges(v);
      const int capacity = workers_choose ? market.worker(v).capacity
                                          : market.task(v).capacity;
      sorted.clear();
      sorted.reserve(edges.size());
      for (const Incidence& inc : edges) sorted.push_back(inc.edge);
      std::sort(sorted.begin(), sorted.end(), [&](EdgeId a, EdgeId b) {
        return workers_choose
                   ? market.WorkerBenefit(a) > market.WorkerBenefit(b)
                   : market.Quality(a) > market.Quality(b);
      });
      for (EdgeId e : sorted) {
        const int load =
            workers_choose ? state.WorkerLoad(v) : state.TaskLoad(v);
        if (load >= capacity) break;
        if (gate->Charge()) {
          expired = true;
          break;
        }
        ++scanned;
        if (state.CanAdd(e)) {
          state.Add(e);
          ++accepted;
        }
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = scanned;
    info->counters.Add("baseline/edges_scanned", scanned);
    info->counters.Add("baseline/edges_accepted", accepted);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

}  // namespace

Assignment WorkerCentricSolver::Solve(const MbtaProblem& problem,
                                      const SolveOptions& options,
                                      SolveInfo* info) const {
  return OneSidedSolve(problem, options, info, /*workers_choose=*/true);
}

Assignment RequesterCentricSolver::Solve(const MbtaProblem& problem,
                                         const SolveOptions& options,
                                         SolveInfo* info) const {
  return OneSidedSolve(problem, options, info, /*workers_choose=*/false);
}

}  // namespace mbta
