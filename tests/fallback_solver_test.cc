/// FallbackSolver degradation chain: per-stage budgets, retry with a
/// shrunk budget on injected transient failure, downgrade to cheaper
/// stages, cooperative cancellation, and the obs counters that record
/// every transition. Includes the scripted acceptance scenario: exact
/// flow killed mid-build -> fallback greedy completes -> stats show one
/// solve/fallback/stage transition.

#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline_solvers.h"
#include "core/exact_flow_solver.h"
#include "core/fallback_solver.h"
#include "core/greedy_solver.h"
#include "core/solve_options.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "obs/trace.h"
#include "tests/test_markets.h"
#include "util/deadline.h"
#include "util/fault_injector.h"

namespace mbta {
namespace {

MbtaProblem ModularProblem(const LaborMarket& market) {
  return MbtaProblem{&market,
                     {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
}

TEST(FallbackSolverTest, CompletesOnFirstStageWhenNothingGoesWrong) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 21));
  const MbtaProblem p = ModularProblem(market);
  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  SolveStats stats;
  const Assignment a = chain->Solve(p, SolveOptions{}, &stats);
  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_FALSE(stats.deadline_hit);
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 0u);
  EXPECT_EQ(stats.counters.Value("solve/fallback/retry"), 0u);
  // The undegraded chain answers exactly like its primary.
  EXPECT_EQ(a.edges, ExactFlowSolver().Solve(p).edges);
}

// The PR's scripted acceptance scenario.
TEST(FallbackSolverTest, ExactFlowKilledMidBuildFallsBackToGreedy) {
  const LaborMarket market = GenerateMarket(UniformConfig(30, 30, 22));
  const MbtaProblem p = ModularProblem(market);

  // Kill every exact-flow build attempt (initial + retry) mid-way
  // through arc construction; greedy and the floor never fire this point.
  FaultInjector faults;
  faults.Arm("flow/build_arc", /*fire_at_hit=*/10);
  SolveOptions options;
  options.faults = &faults;

  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  SolveStats stats;
  const Assignment a = chain->Solve(p, options, &stats);

  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  // Greedy completed, so the overall solve is degraded-but-complete:
  // exactly one stage transition (exact flow -> greedy), no deadline.
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 1u);
  EXPECT_EQ(stats.counters.Value("solve/fallback/retry"), 1u);
  EXPECT_FALSE(stats.deadline_hit);
  // The answer is greedy's answer.
  EXPECT_EQ(a.edges, GreedySolver().Solve(p).edges);
  // Both build attempts reached the fault point.
  EXPECT_GT(faults.HitCount("flow/build_arc"), 10u);
}

TEST(FallbackSolverTest, TransientFaultRetriesAndSucceeds) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 23));
  const MbtaProblem p = ModularProblem(market);

  // Fire exactly once: the first exact-flow attempt dies, the retry
  // (with a shrunk but still-unlimited-enough budget) completes.
  FaultInjector faults;
  faults.Arm("flow/build_arc", /*fire_at_hit=*/0, /*fire_count=*/1);
  SolveOptions options;
  options.faults = &faults;

  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  SolveStats stats;
  const Assignment a = chain->Solve(p, options, &stats);

  EXPECT_EQ(stats.counters.Value("solve/fallback/retry"), 1u);
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 0u);
  EXPECT_FALSE(stats.deadline_hit);
  EXPECT_EQ(a.edges, ExactFlowSolver().Solve(p).edges);
}

TEST(FallbackSolverTest, DeadlineDrivenDowngradeToFloor) {
  const LaborMarket market = GenerateMarket(UniformConfig(30, 30, 24));
  const MbtaProblem p = ModularProblem(market);

  // Both optimizing stages get a zero work budget; only the unbudgeted
  // worker-centric floor can complete.
  DeadlineBudget starved;
  starved.max_work = 0;
  const auto chain = CreateFallbackChain(kStandardFallbackChain, starved);
  SolveStats stats;
  const Assignment a = chain->Solve(p, SolveOptions{}, &stats);

  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 2u);
  EXPECT_FALSE(stats.deadline_hit) << "the floor completed";
  EXPECT_EQ(a.edges, WorkerCentricSolver().Solve(p).edges);
}

TEST(FallbackSolverTest, AllStagesStarvedReportsDeadline) {
  const LaborMarket market = GenerateMarket(UniformConfig(20, 20, 25));
  const MbtaProblem p = ModularProblem(market);

  DeadlineBudget starved;
  starved.max_work = 0;
  std::vector<FallbackSolver::Stage> stages;
  stages.push_back({std::make_shared<GreedySolver>(), starved});
  stages.push_back({std::make_shared<WorkerCentricSolver>(), starved});
  const FallbackSolver chain(std::move(stages));

  SolveStats stats;
  const Assignment a = chain.Solve(p, SolveOptions{}, &stats);
  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kWorkBudget);
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 1u);
}

TEST(FallbackSolverTest, CancellationStopsTheWholeChain) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 26));
  const MbtaProblem p = ModularProblem(market);

  std::atomic<bool> cancel{true};  // pre-set: observed at the first poll
  SolveOptions options;
  options.cancel = &cancel;
  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  SolveStats stats;
  const Assignment a = chain->Solve(p, options, &stats);

  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
  // Cancellation must not be treated as a stage failure: no downgrade
  // happened after the cancelled stage.
  EXPECT_EQ(stats.counters.Value("solve/fallback/stage"), 0u);
  EXPECT_GE(stats.counters.Value("cancel/observed"), 1u);
}

TEST(FallbackSolverTest, KeepsBestAssignmentAcrossStages) {
  // Stage 0 (greedy, starved) returns a poor partial answer; stage 1
  // (greedy, unlimited) completes. The chain must return the better one.
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 27));
  const MbtaProblem p = ModularProblem(market);

  DeadlineBudget tiny;
  tiny.max_work = 2;
  std::vector<FallbackSolver::Stage> stages;
  stages.push_back({std::make_shared<GreedySolver>(), tiny});
  stages.push_back({std::make_shared<GreedySolver>(), DeadlineBudget{}});
  const FallbackSolver chain(std::move(stages));

  const Assignment a = chain.Solve(p);
  const MutualBenefitObjective obj = p.MakeObjective();
  EXPECT_DOUBLE_EQ(obj.Value(a),
                   obj.Value(GreedySolver().Solve(p)));
}

TEST(FallbackSolverTest, PhaseTimingsRecordEachStageAttempt) {
  const LaborMarket market = GenerateMarket(UniformConfig(20, 20, 28));
  const MbtaProblem p = ModularProblem(market);

  DeadlineBudget starved;
  starved.max_work = 0;
  const auto chain = CreateFallbackChain(kStandardFallbackChain, starved);
  SolveStats stats;
  chain->Solve(p, SolveOptions{}, &stats);
  EXPECT_TRUE(stats.phases.entries().count("fallback"));
  EXPECT_TRUE(stats.phases.entries().count("fallback/stage_0"));
  EXPECT_TRUE(stats.phases.entries().count("fallback/stage_1"));
  EXPECT_TRUE(stats.phases.entries().count("fallback/stage_2"));
}

TEST(FallbackSolverTest, RetrySnapshotsTheFlightRecorder) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 23));
  const MbtaProblem p = ModularProblem(market);
  FaultInjector faults;
  faults.Arm("flow/build_arc", /*fire_at_hit=*/0, /*fire_count=*/1);
  SolveOptions options;
  options.faults = &faults;

  Tracer tracer;
  SolveStats stats;
  stats.phases.set_tracer(&tracer);
  CreateFallbackChain(kStandardFallbackChain)->Solve(p, options, &stats);

  EXPECT_EQ(stats.counters.Value("solve/fallback/retry"), 1u);
  EXPECT_EQ(stats.flight.trigger, "fallback/retry");
}

TEST(FallbackSolverTest, StagePhasesNestUnderTheirStage) {
  // The stage solvers' phases ("flow", "flow/augment", ...) belong under
  // the stage that ran them, for a clean attempt and for a killed one
  // alike; at the top level they would count their time twice.
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 23));
  const MbtaProblem p = ModularProblem(market);
  for (const bool inject : {false, true}) {
    SCOPED_TRACE(inject ? "with a retried fault" : "clean");
    FaultInjector faults;
    if (inject) faults.Arm("flow/build_arc", /*fire_at_hit=*/0,
                           /*fire_count=*/1);
    SolveOptions options;
    options.faults = &faults;
    SolveStats stats;
    CreateFallbackChain(kStandardFallbackChain)->Solve(p, options, &stats);

    EXPECT_TRUE(stats.phases.entries().count("fallback/stage_0/flow"));
    for (const auto& [path, entry] : stats.phases.entries()) {
      EXPECT_EQ(path.rfind("fallback", 0), 0u) << path;
    }
  }
}

TEST(FallbackSolverTest, NumStagesAndName) {
  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  EXPECT_EQ(chain->stages().size(), 3u);
  EXPECT_EQ(chain->name(), "fallback");
}

}  // namespace
}  // namespace mbta
