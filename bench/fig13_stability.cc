/// Figure 13 (extension): the price of stability. Deferred acceptance
/// guarantees zero blocking pairs; the optimizing solvers guarantee value.
/// Expected shape: greedy/local-search post higher mutual benefit but
/// leave many blocking pairs (worker/task pairs who would jointly
/// defect); stable-da posts zero blocking pairs at a single-digit-percent
/// MB discount.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/solver_registry.h"
#include "core/stable_matching_solver.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 13: price of stability (extension)",
      "per solver x dataset: MB, MB relative to greedy, and number of "
      "blocking pairs (0 = stable)",
      "four datasets at 800 workers, alpha=0.5, submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig13",
                      "four datasets at 800 workers, alpha=0.5, "
                      "submodular, seed 42");

  Table table({"dataset", "solver", "MB", "vs greedy", "blocking pairs"});
  for (const GeneratorConfig& config : bench::StandardDatasets(800, 42)) {
    const LaborMarket market = GenerateMarket(config);
    const MbtaProblem p{&market,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();

    const auto solvers = CreateSolvers(
        {"greedy", "local-search", "stable-da", "requester-centric"},
        {.max_passes = 2});

    const double greedy_value = obj.Value(solvers[0]->Solve(p));
    for (const auto& solver : solvers) {
      const Assignment a = solver->Solve(p);
      const double value = obj.Value(a);
      json.AddRow(
          {{"dataset", market.name()}, {"solver", solver->name()}},
          {{"mutual_benefit", value},
           {"ratio_vs_greedy", value / greedy_value},
           {"blocking_pairs",
            static_cast<double>(CountBlockingPairs(market, a))}});
      table.AddRow({market.name(), solver->name(), Table::Num(value),
                    Table::Num(value / greedy_value),
                    Table::Num(static_cast<std::int64_t>(
                        CountBlockingPairs(market, a)))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
