/// Cross-cutting reproducibility guarantees: every solver is a pure
/// function of (market, objective, its own seed) — byte-identical output
/// across repeated invocations — and generated markets are pure functions
/// of their config. These invariants make every number in EXPERIMENTS.md
/// reproducible.

#include <gtest/gtest.h>

#include <string>

#include "core/greedy_solver.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "gen/market_generator.h"

namespace mbta {
namespace {

class SolverDeterminismTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SolverDeterminismTest, RepeatedSolvesAreIdentical) {
  const LaborMarket market = GenerateMarket(MTurkLikeConfig(200, 31));
  const std::string& which = GetParam();
  const ObjectiveKind kind = IsModularOnly(which)
                                 ? ObjectiveKind::kModular
                                 : ObjectiveKind::kSubmodular;
  const MbtaProblem p{&market, {.alpha = 0.5, .kind = kind}};
  const auto solver = CreateSolver(which, {.seed = 5, .market = &market});
  ASSERT_NE(solver, nullptr) << "unknown solver " << which;

  const Assignment first = solver->Solve(p);
  const Assignment second = solver->Solve(p);
  EXPECT_EQ(first.edges, second.edges) << which;
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverDeterminismTest,
                         ::testing::ValuesIn(SolverNames()));

TEST(GeneratorDeterminismTest, AllPresetsBitStable) {
  for (int preset = 0; preset < 4; ++preset) {
    auto make = [&]() {
      switch (preset) {
        case 0:
          return GenerateMarket(UniformConfig(120, 120, 9));
        case 1:
          return GenerateMarket(ZipfConfig(120, 120, 9));
        case 2:
          return GenerateMarket(MTurkLikeConfig(120, 9));
        default:
          return GenerateMarket(UpworkLikeConfig(120, 9));
      }
    };
    const LaborMarket a = make();
    const LaborMarket b = make();
    ASSERT_EQ(a.NumEdges(), b.NumEdges());
    for (EdgeId e = 0; e < a.NumEdges(); ++e) {
      ASSERT_EQ(a.EdgeWorker(e), b.EdgeWorker(e));
      ASSERT_DOUBLE_EQ(a.Quality(e), b.Quality(e));
    }
  }
}

TEST(SolveInfoDeterminismTest, GainEvaluationCountsStable) {
  const LaborMarket market = GenerateMarket(UniformConfig(150, 150, 13));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  SolveInfo a, b;
  GreedySolver().Solve(p, &a);
  GreedySolver().Solve(p, &b);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
}

}  // namespace
}  // namespace mbta
