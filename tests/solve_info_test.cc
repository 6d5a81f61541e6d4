/// SolveInfo accounting across the greedy family: every solver that
/// evaluates marginal gains must report doing so, and the lazy heap must
/// demonstrably save work over the plain rescans — the claim the
/// lazy-greedy ablation (fig11) rests on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/brute_force_solver.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "gen/market_generator.h"

namespace mbta {
namespace {

MbtaProblem SubmodularProblem(const LaborMarket& m) {
  return MbtaProblem{&m, {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
}

TEST(SolveInfoTest, GreedyFamilyReportsGainEvaluations) {
  const LaborMarket m = GenerateMarket(UniformConfig(80, 80, 21));
  ASSERT_GT(m.NumEdges(), 0u);
  const MbtaProblem p = SubmodularProblem(m);

  for (const auto& solver :
       CreateSolvers({"greedy", "greedy-plain", "threshold", "local-search",
                      "budgeted-greedy"},
                     {.market = &m})) {
    SolveInfo info;
    solver->Solve(p, &info);
    EXPECT_GT(info.gain_evaluations, 0u) << solver->name();
  }
}

TEST(SolveInfoTest, LazyGreedyStrictlyCheaperThanPlain) {
  // On any non-trivial market the lazy heap re-evaluates only candidates
  // that reach the top, while plain greedy rescans every live edge each
  // round — strictly more work. Check across several regimes so the
  // ablation's headline is not an artifact of one preset.
  const std::uint64_t seeds[] = {3, 41, 97};
  for (std::uint64_t seed : seeds) {
    const LaborMarket m = GenerateMarket(MTurkLikeConfig(120, seed));
    ASSERT_GT(m.NumEdges(), 100u);
    const MbtaProblem p = SubmodularProblem(m);
    SolveInfo lazy, plain;
    GreedySolver(GreedySolver::Mode::kLazy).Solve(p, &lazy);
    GreedySolver(GreedySolver::Mode::kPlain).Solve(p, &plain);
    EXPECT_LT(lazy.gain_evaluations, plain.gain_evaluations)
        << "seed " << seed;
    EXPECT_GT(lazy.gain_evaluations, 0u);
  }
}

/// Asserts the instrumentation contract from core/problem.h: a solve
/// with a SolveStats sink attached reports a positive dominant work
/// counter, at least one solver-specific named counter, and at least one
/// phase timing.
void ExpectInstrumented(const Solver& solver, const MbtaProblem& problem) {
  SCOPED_TRACE("solver=" + solver.name());
  SolveInfo info;
  solver.Solve(problem, &info);
  EXPECT_GT(info.gain_evaluations, 0u) << "dominant work counter unset";
  EXPECT_FALSE(info.counters.counters().empty()) << "no named counters";
  EXPECT_FALSE(info.phases.entries().empty()) << "no phase timings";
}

TEST(SolveInfoTest, EveryStandardSolverPublishesCountersAndPhases) {
  const LaborMarket m = GenerateMarket(MTurkLikeConfig(90, 11));
  ASSERT_GT(m.NumEdges(), 0u);
  const MbtaProblem sub = SubmodularProblem(m);
  const MbtaProblem modular{&m,
                            {.alpha = 0.5, .kind = ObjectiveKind::kModular}};

  // Every registered solver; modular-only ones on the modular objective.
  for (const std::string& name : SolverNames()) {
    ExpectInstrumented(*CreateSolver(name, {.seed = 11, .market = &m}),
                       IsModularOnly(name) ? modular : sub);
  }

  // Brute force a tiny market.
  const LaborMarket tiny = GenerateMarket(UniformConfig(4, 4, 11));
  if (tiny.NumEdges() > 0 && tiny.NumEdges() <= 16) {
    ExpectInstrumented(BruteForceSolver(), SubmodularProblem(tiny));
  }
}

TEST(SolveInfoTest, FlowBackedSolversReportFlowCounters) {
  // The flow-backed paths (exact flow and its unit-capacity matching
  // configuration) report augmenting paths as gain_evaluations, plus the
  // min-cost-flow core's own counters under the "flow/" prefix.
  const LaborMarket m = GenerateMarket(UniformConfig(40, 40, 13));
  ASSERT_GT(m.NumEdges(), 0u);
  const MbtaProblem modular{&m,
                            {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  for (const auto capacity :
       {ExactFlowSolver::Capacity::kMarket, ExactFlowSolver::Capacity::kUnit}) {
    SolveInfo info;
    ExactFlowSolver(capacity).Solve(modular, &info);
    EXPECT_GT(info.gain_evaluations, 0u);
    EXPECT_GT(info.counters.Value("flow/augmenting_paths"), 0u);
    EXPECT_GT(info.counters.Value("flow/arcs_scanned"), 0u);
  }
}

TEST(SolveInfoTest, WallTimeIsPopulated) {
  const LaborMarket m = GenerateMarket(UniformConfig(60, 60, 5));
  const MbtaProblem p = SubmodularProblem(m);
  SolveInfo info;
  info.wall_ms = -1.0;
  GreedySolver().Solve(p, &info);
  EXPECT_GE(info.wall_ms, 0.0);
}

}  // namespace
}  // namespace mbta
