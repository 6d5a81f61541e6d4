/// Table 2: headline comparison of all solvers on all four datasets —
/// mutual benefit (α = 0.5, submodular), unweighted per-side benefits,
/// assignment size, and solve time. An exact-flow row (modular objective)
/// is appended per dataset as the modular optimum reference.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/solver_registry.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Table 2: solver summary",
      "MB / requester / worker benefit and runtime per solver x dataset; "
      "mutual-benefit-aware solvers should lead on MB everywhere",
      "four datasets at 500 workers, alpha=0.5, submodular objective");
  bench::JsonLog json(
      argc, argv, "table2",
      "four datasets at 500 workers, alpha=0.5, submodular objective");

  Table table({"dataset", "solver", "objective", "MB", "RB", "WB",
               "#assigned", "time(ms)"});
  for (const GeneratorConfig& config : bench::StandardDatasets(500, 42)) {
    const LaborMarket market = GenerateMarket(config);

    const MbtaProblem sub{&market,
                          {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    for (const auto& solver :
         CreateStandardSolvers(ObjectiveKind::kSubmodular, {.seed = 7})) {
      const bench::SolverRun run = bench::RunSolver(*solver, sub);
      json.AddRun({{"dataset", market.name()}, {"objective", "submodular"}},
                  run);
      table.AddRow(
          {market.name(), run.solver, "submodular",
           Table::Num(run.metrics.mutual_benefit),
           Table::Num(run.metrics.requester_benefit),
           Table::Num(run.metrics.worker_benefit),
           Table::Num(static_cast<std::int64_t>(run.metrics.num_assignments)),
           Table::Num(run.info.wall_ms)});
    }

    // Modular reference: the flow solver is provably optimal here, so its
    // row bounds what any algorithm could reach on the modular variant.
    const MbtaProblem mod{&market,
                          {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
    const bench::SolverRun exact =
        bench::RunSolver(*CreateSolver("exact-flow"), mod);
    json.AddRun({{"dataset", market.name()}, {"objective", "modular"}},
                exact);
    table.AddRow(
        {market.name(), exact.solver, "modular",
         Table::Num(exact.metrics.mutual_benefit),
         Table::Num(exact.metrics.requester_benefit),
         Table::Num(exact.metrics.worker_benefit),
         Table::Num(static_cast<std::int64_t>(exact.metrics.num_assignments)),
         Table::Num(exact.info.wall_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
