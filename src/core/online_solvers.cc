#include "core/online_solvers.h"

#include <algorithm>
#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/distribution.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace mbta {

namespace {

/// Tallies shared by the online solvers: marginal-gain evaluations,
/// matches committed, and arrivals deferred by a threshold (the arrival
/// had a positive-gain edge available but none clearing `min_gain`).
struct OnlineTally {
  std::size_t evals = 0;
  std::size_t matches = 0;
  std::size_t deferred = 0;
};

/// Greedily fills one arrival — worker `v` when `worker_arrives`, else
/// task `v`: repeatedly adds its best feasible edge with marginal gain
/// above `min_gain` until capacity runs out. Accepted gains are appended
/// to `accepted_gains` when non-null. Budget checkpoint: one charge per
/// marginal-gain evaluation; returns false when the gate expired
/// (commitments made so far stand).
bool FillArrival(ObjectiveState& state, bool worker_arrives, VertexId v,
                 double min_gain, DeadlineGate& gate, OnlineTally& tally,
                 std::vector<double>* accepted_gains = nullptr) {
  const LaborMarket& market = state.objective().market();
  const int capacity =
      worker_arrives ? market.worker(v).capacity : market.task(v).capacity;
  const auto edges =
      worker_arrives ? market.WorkerEdges(v) : market.TaskEdges(v);
  while ((worker_arrives ? state.WorkerLoad(v) : state.TaskLoad(v)) <
         capacity) {
    double best_gain = min_gain;
    double best_any_gain = 0.0;
    EdgeId best_edge = kInvalidEdge;
    for (const Incidence& inc : edges) {
      if (!state.CanAdd(inc.edge)) continue;
      if (gate.Charge()) return false;
      const double gain = state.MarginalGain(inc.edge);
      ++tally.evals;
      best_any_gain = std::max(best_any_gain, gain);
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = inc.edge;
      }
    }
    if (best_edge == kInvalidEdge) {
      // A positive-gain match existed but the threshold gated it: the
      // arrival is deferred, reserving the capacity for later.
      if (best_any_gain > 0.0 && min_gain > 0.0) ++tally.deferred;
      break;
    }
    if (accepted_gains != nullptr) accepted_gains->push_back(best_gain);
    state.Add(best_edge);
    ++tally.matches;
  }
  return true;
}

/// Plain online greedy over an arrival order of workers (or tasks): each
/// arrival is filled greedily on the spot, no threshold.
Assignment GreedyArrivals(const MbtaProblem& problem,
                          const std::vector<VertexId>& order,
                          bool workers_arrive, const SolveOptions& options,
                          SolveInfo* info) {
  MBTA_CHECK(problem.market != nullptr);
  MBTA_CHECK(order.size() == (workers_arrive ? problem.market->NumWorkers()
                                             : problem.market->NumTasks()));
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  ObjectiveState state(&objective);
  OnlineTally tally;

  {
    ScopedPhase phase(phases, "arrivals");
    for (VertexId v : order) {
      if (!FillArrival(state, workers_arrive, v, 0.0, *gate, tally)) break;
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = tally.evals;
    info->counters.Add("online/arrivals", order.size());
    info->counters.Add("online/matches", tally.matches);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

}  // namespace

std::vector<WorkerId> RandomArrivalOrder(std::size_t num_workers,
                                         std::uint64_t seed) {
  std::vector<WorkerId> order(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    order[i] = static_cast<WorkerId>(i);
  }
  Rng rng(seed);
  Shuffle(rng, order);
  return order;
}

Assignment OnlineGreedySolver::Solve(const MbtaProblem& problem,
                                     const SolveOptions& options,
                                     SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  return SolveWithOrder(
      problem, RandomArrivalOrder(problem.market->NumWorkers(), seed_),
      options, info);
}

Assignment OnlineGreedySolver::SolveWithOrder(
    const MbtaProblem& problem, const std::vector<WorkerId>& order,
    const SolveOptions& options, SolveInfo* info) const {
  return GreedyArrivals(problem, order, /*workers_arrive=*/true, options,
                        info);
}

std::vector<TaskId> RandomTaskArrivalOrder(std::size_t num_tasks,
                                           std::uint64_t seed) {
  std::vector<TaskId> order(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    order[i] = static_cast<TaskId>(i);
  }
  // Domain-separated from the worker arrival stream so the same seed
  // yields independent worker and task orders.
  Rng rng(seed ^ 0x7a5aa3c9d2e1f0bULL);
  Shuffle(rng, order);
  return order;
}

Assignment TaskArrivalGreedySolver::Solve(const MbtaProblem& problem,
                                          const SolveOptions& options,
                                          SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  return SolveWithOrder(
      problem, RandomTaskArrivalOrder(problem.market->NumTasks(), seed_),
      options, info);
}

Assignment TaskArrivalGreedySolver::SolveWithOrder(
    const MbtaProblem& problem, const std::vector<TaskId>& order,
    const SolveOptions& options, SolveInfo* info) const {
  return GreedyArrivals(problem, order, /*workers_arrive=*/false, options,
                        info);
}

Assignment TwoPhaseOnlineSolver::Solve(const MbtaProblem& problem,
                                       const SolveOptions& options,
                                       SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  return SolveWithOrder(
      problem, RandomArrivalOrder(problem.market->NumWorkers(), seed_),
      options, info);
}

Assignment TwoPhaseOnlineSolver::SolveWithOrder(
    const MbtaProblem& problem, const std::vector<WorkerId>& order,
    const SolveOptions& solve_options, SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  MBTA_CHECK(order.size() == problem.market->NumWorkers());
  MBTA_CHECK(options_.sample_fraction >= 0.0 &&
             options_.sample_fraction < 1.0);
  MBTA_CHECK(options_.endgame_fraction >= options_.sample_fraction &&
             options_.endgame_fraction <= 1.0);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(solve_options);
  DeadlineGate* gate = solve_options.shared_gate != nullptr
                           ? solve_options.shared_gate
                           : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  ObjectiveState state(&objective);
  OnlineTally tally;

  const std::size_t n = order.size();
  const std::size_t sample_end = static_cast<std::size_t>(
      options_.sample_fraction * static_cast<double>(n));
  const std::size_t endgame_start = static_cast<std::size_t>(
      options_.endgame_fraction * static_cast<double>(n));

  // Phase 1: assign the sampled prefix greedily (no worker is wasted) and
  // record the accepted marginal gains — they calibrate what a "normal"
  // match is worth in this market.
  std::vector<double> sampled_gains;
  double threshold = 0.0;
  bool expired = false;
  {
    ScopedPhase phase(phases, "sample");
    for (std::size_t i = 0; i < sample_end && !expired; ++i) {
      expired = !FillArrival(state, /*worker_arrives=*/true, order[i], 0.0,
                             *gate, tally, &sampled_gains);
    }
    threshold = sampled_gains.empty()
                    ? 0.0
                    : Percentile(sampled_gains,
                                 options_.threshold_percentile);
  }

  // Phase 2: be picky — only take matches clearing the calibrated
  // threshold, reserving contested task capacity for later high-value
  // arrivals. Endgame: accept any positive gain so capacity is not
  // stranded.
  {
    ScopedPhase phase(phases, "thresholded_arrivals");
    for (std::size_t i = sample_end; i < n && !expired; ++i) {
      const double min_gain = i >= endgame_start ? 0.0 : threshold;
      expired = !FillArrival(state, /*worker_arrives=*/true, order[i],
                             min_gain, *gate, tally);
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = tally.evals;
    info->counters.Add("online/arrivals", n);
    info->counters.Add("online/matches", tally.matches);
    info->counters.Add("online/deferred", tally.deferred);
    info->counters.SetGauge("online/calibrated_threshold", threshold);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

}  // namespace mbta
