/// Figure 6: the worker/requester trade-off as the mutual-benefit weight
/// alpha sweeps from 0 (workers only) to 1 (requesters only). Expected
/// shape: greedy traces a smooth Pareto frontier — RB non-decreasing and
/// WB non-increasing in alpha — while the one-sided baselines sit at the
/// frontier's endpoints regardless of alpha.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/pareto.h"
#include "core/solver_registry.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 6: alpha trade-off",
      "x = alpha, y = unweighted requester benefit RB and worker benefit "
      "WB per solver",
      "mturk-like 1000 workers, submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig6",
                      "mturk-like 1000 workers, submodular, seed 42");

  const LaborMarket market = GenerateMarket(MTurkLikeConfig(1000, 42));
  const auto solvers =
      CreateSolvers({"greedy", "worker-centric", "requester-centric"});

  Table table({"alpha", "solver", "MB", "RB", "WB"});
  for (double alpha : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                       1.0}) {
    const MbtaProblem p{
        &market, {.alpha = alpha, .kind = ObjectiveKind::kSubmodular}};
    for (const auto& solver : solvers) {
      const bench::SolverRun run = bench::RunSolver(*solver, p);
      json.AddRun({{"alpha", Table::Num(alpha)}}, run);
      table.AddRow({Table::Num(alpha), run.solver,
                    Table::Num(run.metrics.mutual_benefit),
                    Table::Num(run.metrics.requester_benefit),
                    Table::Num(run.metrics.worker_benefit)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Frontier quality: area dominated by each solver's Pareto-efficient
  // points across the sweep. The adaptive solver spans the whole
  // trade-off space; the one-sided baselines collapse to a single point.
  const std::vector<double> grid = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9, 1.0};
  Table frontier_table({"solver", "frontier points", "hypervolume"});
  for (const auto& solver : solvers) {
    const auto frontier = ParetoFilter(
        SweepAlpha(market, ObjectiveKind::kSubmodular, grid, *solver));
    frontier_table.AddRow(
        {solver->name(),
         Table::Num(static_cast<std::int64_t>(frontier.size())),
         Table::Num(FrontierHypervolume(frontier))});
  }
  std::printf("%s\n", frontier_table.ToString().c_str());
  return 0;
}
