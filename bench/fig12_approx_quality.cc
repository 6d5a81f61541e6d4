/// Figure 12: approximation quality against the brute-force optimum on
/// small random instances. Expected shape: greedy/local-search mean ratio
/// well above 0.95 (their worst-case guarantees are 1/3 but practice is
/// near-optimal); local search's minimum ratio dominates greedy's; the
/// unit-capacity matching baseline trails because it ignores capacities.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/brute_force_solver.h"
#include "core/solver_registry.h"
#include "util/rng.h"

namespace {

/// Small random market (hand-rolled rather than the generator so edge
/// counts stay within brute-force reach).
mbta::LaborMarket SmallMarket(mbta::Rng& rng) {
  using namespace mbta;
  LaborMarketBuilder b;
  const std::size_t nw = 2 + rng.NextBounded(3);
  const std::size_t nt = 2 + rng.NextBounded(3);
  for (std::size_t i = 0; i < nw; ++i) {
    Worker w;
    w.capacity = static_cast<int>(1 + rng.NextBounded(2));
    w.fatigue = 0.9;
    b.AddWorker(w);
  }
  for (std::size_t i = 0; i < nt; ++i) {
    Task t;
    t.capacity = static_cast<int>(1 + rng.NextBounded(2));
    t.value = rng.NextDouble(0.5, 3.0);
    b.AddTask(t);
  }
  for (VertexId w = 0; w < nw; ++w) {
    for (VertexId t = 0; t < nt; ++t) {
      if (rng.NextBool(0.55)) {
        b.AddEdge(w, t,
                  {rng.NextDouble(0.5, 0.99), rng.NextDouble(0.0, 2.0)});
      }
    }
  }
  return b.Build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 12: approximation ratio vs brute-force optimum",
      "per solver: mean and minimum of MB(solver)/MB(optimum) over 60 "
      "random instances with <= 16 edges",
      "random small markets, alpha=0.5, submodular");
  bench::JsonLog json(argc, argv, "fig12",
                      "random small markets, alpha=0.5, submodular");

  const auto solvers = CreateSolvers(
      {"greedy", "local-search", "threshold", "matching", "random"},
      {.seed = 3});

  std::vector<std::vector<double>> ratios(solvers.size());
  Rng rng(42);
  int instances = 0;
  while (instances < 60) {
    const LaborMarket market = SmallMarket(rng);
    if (market.NumEdges() == 0 || market.NumEdges() > 16) continue;
    const MbtaProblem p{&market,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const double optimum = obj.Value(BruteForceSolver().Solve(p));
    if (optimum <= 0.0) continue;
    ++instances;
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      ratios[s].push_back(obj.Value(solvers[s]->Solve(p)) / optimum);
    }
  }

  Table table({"solver", "mean ratio", "min ratio", "instances at 1.0"});
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    double sum = 0.0, min = 1e18;
    std::int64_t exact = 0;
    for (double r : ratios[s]) {
      sum += r;
      min = std::min(min, r);
      if (r > 1.0 - 1e-9) ++exact;
    }
    json.AddRow({{"solver", solvers[s]->name()}},
                {{"mean_ratio", sum / static_cast<double>(ratios[s].size())},
                 {"min_ratio", min},
                 {"instances_exact", static_cast<double>(exact)}});
    table.AddRow({solvers[s]->name(),
                  Table::Num(sum / static_cast<double>(ratios[s].size())),
                  Table::Num(min), Table::Num(exact)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
