/// Figure 8: fairness of worker payoffs on the Upwork-like market.
/// Expected shape: mutual-benefit-aware solvers spread benefit across
/// more workers (higher Jain index, higher P10) than requester-centric
/// assignment, which concentrates work on the few highest-quality
/// workers.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/solver_registry.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 8: worker-benefit fairness",
      "x = solver, y = Jain index / Gini / min / P10 / P50 of per-worker "
      "benefit over employable workers",
      "upwork-like 1500 workers, alpha=0.5, submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig8",
                      "upwork-like 1500 workers, alpha=0.5, submodular, "
                      "seed 42");

  const LaborMarket market = GenerateMarket(UpworkLikeConfig(1500, 42));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};

  Table table({"solver", "jain", "gini", "active min", "active P50",
               "active workers"});
  for (const auto& solver :
       CreateStandardSolvers(ObjectiveKind::kSubmodular, {.seed = 7})) {
    const bench::SolverRun run = bench::RunSolver(*solver, p);
    // Jain/Gini over all employable workers (unemployment counts as
    // inequality); percentiles over those who actually earned something.
    const auto& benefits = run.metrics.per_worker_benefit;
    std::vector<double> active;
    for (double b : benefits) {
      if (b > 0.0) active.push_back(b);
    }
    json.AddRun({}, run,
                {{"fairness_jain", JainFairnessIndex(benefits)},
                 {"fairness_gini", GiniCoefficient(benefits)}});
    table.AddRow(
        {run.solver, Table::Num(JainFairnessIndex(benefits)),
         Table::Num(GiniCoefficient(benefits)),
         Table::Num(Percentile(active, 0)),
         Table::Num(Percentile(active, 50)),
         Table::Num(static_cast<std::int64_t>(run.metrics.workers_active))});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
