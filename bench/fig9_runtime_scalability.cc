/// Figure 9: runtime and scalability (google-benchmark). Expected shape:
/// lazy greedy and threshold greedy scale near-linearly in |E|; plain
/// greedy's rescans make it quadratic-ish; the exact flow solver pays an
/// augmentation per assignment and falls behind as the market grows.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/solver_registry.h"
#include "gen/market_generator.h"

namespace mbta {
namespace {

LaborMarket MakeMarket(std::int64_t workers) {
  return GenerateMarket(
      MTurkLikeConfig(static_cast<std::size_t>(workers), 42));
}

ObjectiveKind ObjectiveOf(const char* solver) {
  return IsModularOnly(solver) ? ObjectiveKind::kModular
                               : ObjectiveKind::kSubmodular;
}

/// One registered solver over the size ladder; modular-only solvers get
/// the modular objective.
void BM_Solve(benchmark::State& state, const char* name) {
  const LaborMarket market = MakeMarket(state.range(0));
  const MbtaProblem p{&market, {.alpha = 0.5, .kind = ObjectiveOf(name)}};
  const auto solver = CreateSolver(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->Solve(p));
  }
  state.counters["edges"] = static_cast<double>(market.NumEdges());
}

void BM_MarketGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeMarket(state.range(0)));
  }
}

/// Registers the benchmarks in display order: each solver over worker
/// counts 250, 500, ... up to its cap, then market generation.
void RegisterBenchmarks() {
  const struct {
    const char* label;
    const char* solver;
    int max_workers;
  } kSolvers[] = {{"BM_LazyGreedy", "greedy", 2000},
                  {"BM_PlainGreedy", "greedy-plain", 500},
                  {"BM_ThresholdGreedy", "threshold", 2000},
                  {"BM_ExactFlowModular", "exact-flow", 1000}};
  for (const auto& row : kSolvers) {
    auto* b = benchmark::RegisterBenchmark(row.label, BM_Solve, row.solver);
    for (int workers = 250; workers <= row.max_workers; workers *= 2) {
      b->Arg(workers);
    }
    b->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("BM_MarketGeneration", BM_MarketGeneration)
      ->Arg(1000)
      ->Arg(4000)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace mbta

int main(int argc, char** argv) {
  mbta::bench::PrintBanner(
      "Figure 9: runtime & scalability",
      "google-benchmark timings: lazy/plain/threshold greedy, exact flow "
      "and market generation across market sizes (arg = workers)",
      "mturk-like markets, alpha=0.5, seed 42");
  // `--json` is ours, not google-benchmark's: strip it before
  // Initialize.
  const std::string json_path = mbta::bench::ConsumeJsonFlag(&argc, argv);
  mbta::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Structured record: one instrumented run per solver x size (the
  // google-benchmark loop above reports the statistically robust wall
  // times; these rows carry the counters and phase breakdowns).
  if (!json_path.empty()) {
    using namespace mbta;
    bench::JsonLog json(json_path, "fig9",
                        "mturk-like markets, alpha=0.5, seed 42");
    for (std::int64_t workers : {250, 500, 1000}) {
      const LaborMarket market = MakeMarket(workers);
      for (const char* name :
           {"greedy", "greedy-plain", "threshold", "exact-flow"}) {
        const ObjectiveKind kind = ObjectiveOf(name);
        json.AddRun({{"workers", std::to_string(workers)},
                     {"objective", ToString(kind)}},
                    bench::RunSolver(*CreateSolver(name),
                                     {&market, {.alpha = 0.5, .kind = kind}}));
      }
    }
  }
  return 0;
}
