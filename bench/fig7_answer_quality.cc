/// Figure 7: downstream answer quality. The assignment produced by each
/// solver is fed to the crowd simulator; inferred labels come from four
/// truth-inference methods. Expected shape: quality-aware assignments
/// beat random on label accuracy at comparable coverage; the weighted
/// vote (Bayes-optimal given the platform's own quality model) leads
/// every solver's column; Dawid–Skene tracks majority voting here
/// because per-worker records are short on a single batch (2–8 answers)
/// — its advantage needs the long records the fig14 platform
/// accumulates, or denser markets (see the aggregation unit tests).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/solver_registry.h"
#include "sim/aggregation.h"
#include "sim/answers.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 7: answer quality by solver and aggregator",
      "x = solver, series = truth-inference method, y = label accuracy "
      "(mean of 5 simulation seeds) and task coverage",
      "mturk-like 800 workers, alpha=0.9 (quality-focused), submodular");
  bench::JsonLog json(
      argc, argv, "fig7",
      "mturk-like 800 workers, alpha=0.9 (quality-focused), submodular");

  const LaborMarket market = GenerateMarket(MTurkLikeConfig(800, 42));
  const MbtaProblem p{&market,
                      {.alpha = 0.9, .kind = ObjectiveKind::kSubmodular}};

  const auto solvers = CreateSolvers(
      {"greedy", "requester-centric", "worker-centric", "random"},
      {.seed = 7});

  const MajorityVote majority;
  const WeightedVote weighted;
  const DawidSkene dawid_skene;
  const DawidSkeneTwoCoin dawid_skene_2c;
  const Aggregator* aggregators[] = {&majority, &weighted, &dawid_skene,
                                     &dawid_skene_2c};

  Table table({"solver", "aggregator", "accuracy", "coverage"});
  for (const auto& solver : solvers) {
    const Assignment a = solver->Solve(p);
    for (const Aggregator* agg : aggregators) {
      double acc = 0.0, cov = 0.0;
      constexpr int kRuns = 5;
      for (int run = 0; run < kRuns; ++run) {
        const AnswerSet answers = SimulateAnswers(market, a, 1000 + run);
        acc += LabelAccuracy(answers, agg->Aggregate(answers));
        cov += TaskCoverage(answers);
      }
      json.AddRow({{"solver", solver->name()}, {"aggregator", agg->name()}},
                  {{"accuracy", acc / kRuns}, {"coverage", cov / kRuns}});
      table.AddRow({solver->name(), agg->name(), Table::Num(acc / kRuns),
                    Table::Num(cov / kRuns)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
