/// Figure 9: runtime and scalability (google-benchmark). Expected shape:
/// lazy greedy and threshold greedy scale near-linearly in |E|; plain
/// greedy's rescans make it quadratic-ish; the exact flow solver pays an
/// augmentation per assignment and falls behind as the market grows.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/threshold_solver.h"
#include "gen/market_generator.h"

namespace mbta {
namespace {

LaborMarket MakeMarket(std::int64_t workers) {
  return GenerateMarket(
      MTurkLikeConfig(static_cast<std::size_t>(workers), 42));
}

void BM_LazyGreedy(benchmark::State& state) {
  const LaborMarket market = MakeMarket(state.range(0));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const GreedySolver solver(GreedySolver::Mode::kLazy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(p));
  }
  state.counters["edges"] = static_cast<double>(market.NumEdges());
}
BENCHMARK(BM_LazyGreedy)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_PlainGreedy(benchmark::State& state) {
  const LaborMarket market = MakeMarket(state.range(0));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const GreedySolver solver(GreedySolver::Mode::kPlain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(p));
  }
  state.counters["edges"] = static_cast<double>(market.NumEdges());
}
BENCHMARK(BM_PlainGreedy)->Arg(250)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_ThresholdGreedy(benchmark::State& state) {
  const LaborMarket market = MakeMarket(state.range(0));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const ThresholdSolver solver(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(p));
  }
  state.counters["edges"] = static_cast<double>(market.NumEdges());
}
BENCHMARK(BM_ThresholdGreedy)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactFlowModular(benchmark::State& state) {
  const LaborMarket market = MakeMarket(state.range(0));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  const ExactFlowSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(p));
  }
  state.counters["edges"] = static_cast<double>(market.NumEdges());
}
BENCHMARK(BM_ExactFlowModular)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_MarketGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeMarket(state.range(0)));
  }
}
BENCHMARK(BM_MarketGeneration)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

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
      const MbtaProblem sub{
          &market, {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
      const MbtaProblem mod{
          &market, {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
      const GreedySolver lazy(GreedySolver::Mode::kLazy);
      const GreedySolver plain(GreedySolver::Mode::kPlain);
      const ThresholdSolver threshold(0.1);
      const ExactFlowSolver exact;
      const auto params = [&](const char* objective) {
        return bench::JsonLog::Params{
            {"workers", std::to_string(workers)}, {"objective", objective}};
      };
      json.AddRun(params("submodular"), bench::RunSolver(lazy, sub));
      json.AddRun(params("submodular"), bench::RunSolver(plain, sub));
      json.AddRun(params("submodular"), bench::RunSolver(threshold, sub));
      json.AddRun(params("modular"), bench::RunSolver(exact, mod));
    }
  }
  return 0;
}
