#include "core/exact_flow_solver.h"

#include <cmath>
#include <vector>

#include "core/solve_options.h"
#include "flow/min_cost_flow.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/timer.h"

namespace mbta {

Assignment ExactFlowSolver::Solve(const MbtaProblem& problem,
                                  const SolveOptions& options,
                                  SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  // Capacity::kUnit caps every worker and task at one: a matching.
  const bool unit = capacity_ == Capacity::kUnit;
  MBTA_CHECK_MSG(unit || problem.objective.kind == ObjectiveKind::kModular,
                 "ExactFlowSolver requires the modular objective");
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase flow_phase(phases, "flow");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();

  // Node layout: 0 = source, 1..W = workers, W+1..W+T = tasks, last = sink.
  const std::size_t num_workers = market.NumWorkers();
  const std::size_t num_tasks = market.NumTasks();
  MinCostFlow mcf(num_workers + num_tasks + 2);
  mcf.SetDeadlineGate(gate);
  if (phases != nullptr) mcf.SetTracer(phases->tracer());
  const std::size_t source = 0;
  const std::size_t sink = num_workers + num_tasks + 1;
  auto worker_node = [&](WorkerId w) { return 1 + w; };
  auto task_node = [&](TaskId t) { return 1 + num_workers + t; };

  std::vector<MinCostFlow::ArcId> edge_arcs(market.NumEdges());
  {
    ScopedPhase phase(phases, "build_graph");
    for (WorkerId w = 0; w < num_workers; ++w) {
      MaybeFail(options.faults, "flow/build_arc");
      const int capacity = unit ? 1 : market.worker(w).capacity;
      mcf.AddArc(source, worker_node(w), capacity, 0);
    }
    for (TaskId t = 0; t < num_tasks; ++t) {
      MaybeFail(options.faults, "flow/build_arc");
      const int capacity = unit ? 1 : market.task(t).capacity;
      mcf.AddArc(task_node(t), sink, capacity, 0);
    }
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      MaybeFail(options.faults, "flow/build_arc");
      const std::int64_t cost = -static_cast<std::int64_t>(
          std::llround(objective.EdgeWeight(e) * kScale));
      edge_arcs[e] = mcf.AddArc(worker_node(market.EdgeWorker(e)),
                                task_node(market.EdgeTask(e)), 1, cost);
    }
  }

  {
    ScopedPhase phase(phases, "augment");
    mcf.SolveNegativeOnly(source, sink);
  }

  Assignment result;
  {
    ScopedPhase phase(phases, "extract");
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      if (mcf.Flow(edge_arcs[e]) > 0) result.edges.push_back(e);
    }
  }
  if (info != nullptr) {
    const MinCostFlow::Stats& fs = mcf.stats();
    info->gain_evaluations =
        static_cast<std::size_t>(fs.augmenting_paths);
    info->counters.Add("flow/augmenting_paths", fs.augmenting_paths);
    info->counters.Add("flow/dijkstra_runs", fs.dijkstra_runs);
    info->counters.Add("flow/arcs_scanned", fs.arcs_scanned);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return result;
}

}  // namespace mbta
