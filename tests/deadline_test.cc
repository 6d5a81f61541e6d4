/// DeadlineGate / DeadlineBudget semantics, FakeClock-driven wall
/// deadlines, and the per-solver anytime contract: every registered
/// solver, stopped by an exhausted budget, still returns a feasible
/// ValidateAssignment-clean assignment with deadline_hit set.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_solver.h"
#include "core/greedy_solver.h"
#include "core/solve_options.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "obs/trace.h"
#include "tests/test_markets.h"
#include "util/clock.h"
#include "util/deadline.h"

namespace mbta {
namespace {

TEST(FakeClockTest, AdvanceAndSetMoveTime) {
  FakeClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 100.0);
  clock.Advance(25.5);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 125.5);
  clock.Set(3.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 3.0);
}

TEST(FakeClockTest, AutoAdvancePerRead) {
  FakeClock clock(0.0, /*auto_advance_ms=*/10.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 0.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 10.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 20.0);
}

TEST(SteadyClockTest, IsMonotonic) {
  const SteadyClock& clock = SteadyClock::Instance();
  const double a = clock.NowMs();
  const double b = clock.NowMs();
  EXPECT_GE(b, a);
}

TEST(DeadlineBudgetTest, DefaultIsUnlimited) {
  const DeadlineBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(DeadlineBudget{.max_work = 10}.unlimited());
  EXPECT_FALSE(DeadlineBudget{.max_wall_ms = 1.0}.unlimited());
}

TEST(StopReasonTest, ToStringNamesEveryReason) {
  EXPECT_STREQ(ToString(StopReason::kNone), "none");
  EXPECT_STREQ(ToString(StopReason::kWorkBudget), "work_budget");
  EXPECT_STREQ(ToString(StopReason::kWallClock), "wall_clock");
  EXPECT_STREQ(ToString(StopReason::kCancelled), "cancelled");
}

TEST(DeadlineGateTest, DefaultGateNeverTrips) {
  DeadlineGate gate;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(gate.Charge(1000));
  }
  EXPECT_FALSE(gate.expired());
  EXPECT_EQ(gate.reason(), StopReason::kNone);
}

TEST(DeadlineGateTest, WorkBudgetTripsBeforeOverspend) {
  DeadlineGate gate(DeadlineBudget{.max_work = 5});
  EXPECT_FALSE(gate.Charge(3));
  EXPECT_FALSE(gate.Charge(2));  // exactly exhausts the budget
  EXPECT_EQ(gate.work_used(), 5u);
  EXPECT_TRUE(gate.Charge(1));  // the 6th unit must be refused
  EXPECT_TRUE(gate.expired());
  EXPECT_EQ(gate.reason(), StopReason::kWorkBudget);
  // Refused work is not recorded as spent.
  EXPECT_EQ(gate.work_used(), 5u);
}

TEST(DeadlineGateTest, ZeroBudgetRefusesFirstCharge) {
  DeadlineGate gate(DeadlineBudget{.max_work = 0});
  EXPECT_TRUE(gate.Charge());
  EXPECT_EQ(gate.reason(), StopReason::kWorkBudget);
}

TEST(DeadlineGateTest, StaysTrippedOnceTripped) {
  DeadlineGate gate(DeadlineBudget{.max_work = 0});
  EXPECT_TRUE(gate.Charge());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(gate.Charge(0));
  }
}

TEST(DeadlineGateTest, WallClockDeadlineViaFakeClock) {
  FakeClock clock(1000.0);
  DeadlineBudget budget;
  budget.max_wall_ms = 50.0;
  budget.clock = &clock;
  DeadlineGate gate(budget);
  // First charge polls (charge counter starts at 0); no time has passed.
  EXPECT_FALSE(gate.Charge());
  clock.Advance(49.0);
  EXPECT_FALSE(gate.Charge(0));  // n == 0 forces a poll: still in budget
  clock.Advance(1.0);            // exactly at the deadline now
  EXPECT_TRUE(gate.Charge(0));
  EXPECT_EQ(gate.reason(), StopReason::kWallClock);
}

TEST(DeadlineGateTest, WallClockPolledSparsely) {
  FakeClock clock(0.0);
  DeadlineBudget budget;
  budget.max_wall_ms = 10.0;
  budget.clock = &clock;
  DeadlineGate gate(budget);
  EXPECT_FALSE(gate.Charge());  // poll #1 at charge 0
  clock.Advance(100.0);         // deadline long gone...
  // ...but charges between polls do not look at the clock.
  for (std::uint64_t i = 1; i < DeadlineGate::kPollInterval; ++i) {
    EXPECT_FALSE(gate.Charge()) << "charge " << i << " should not poll";
  }
  EXPECT_TRUE(gate.Charge());  // charge #64 polls and trips
  EXPECT_EQ(gate.reason(), StopReason::kWallClock);
}

TEST(DeadlineGateTest, CancellationObservedOnPoll) {
  std::atomic<bool> cancel{false};
  DeadlineGate gate(DeadlineBudget{}, nullptr, &cancel);
  EXPECT_FALSE(gate.Charge());
  cancel.store(true, std::memory_order_release);
  EXPECT_TRUE(gate.Charge(0));
  EXPECT_EQ(gate.reason(), StopReason::kCancelled);
}

TEST(PublishBudgetOutcomeTest, NoOpWhenGateClean) {
  DeadlineGate gate;
  gate.Charge();
  SolveStats stats;
  PublishBudgetOutcome(gate, &stats);
  EXPECT_FALSE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kNone);
  EXPECT_EQ(stats.counters.Value("deadline/hit"), 0u);
}

TEST(PublishBudgetOutcomeTest, RecordsDeadlineHit) {
  DeadlineGate gate(DeadlineBudget{.max_work = 0});
  gate.Charge();
  SolveStats stats;
  PublishBudgetOutcome(gate, &stats);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kWorkBudget);
  EXPECT_EQ(stats.counters.Value("deadline/hit"), 1u);
}

TEST(PublishBudgetOutcomeTest, RecordsCancellation) {
  std::atomic<bool> cancel{true};
  DeadlineGate gate(DeadlineBudget{}, nullptr, &cancel);
  gate.Charge();
  SolveStats stats;
  PublishBudgetOutcome(gate, &stats);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(stats.counters.Value("cancel/observed"), 1u);
  EXPECT_EQ(stats.counters.Value("deadline/hit"), 0u);
}

TEST(PublishBudgetOutcomeTest, NullInfoIsSafe) {
  DeadlineGate gate(DeadlineBudget{.max_work = 0});
  gate.Charge();
  PublishBudgetOutcome(gate, nullptr);  // must not crash
}

// ---------------------------------------------------------------------------
// SolveStats::flight: the flight-recorder snapshot of a degraded solve.
// ---------------------------------------------------------------------------

MbtaProblem FlightProblem(const LaborMarket& market) {
  return MbtaProblem{&market,
                     {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
}

TEST(SolveFlightTest, DeadlineSnapshotEndsWithTheBudgetInstant) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 31));
  const MbtaProblem p = FlightProblem(market);
  SolveOptions options;
  options.budget.max_work = 3;
  Tracer tracer;
  SolveStats stats;
  stats.phases.set_tracer(&tracer);
  GreedySolver().Solve(p, options, &stats);

  ASSERT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.flight.trigger, "deadline");
  ASSERT_FALSE(stats.flight.events.empty());
  EXPECT_EQ(stats.flight.events.back().name, "budget/deadline");
  EXPECT_LE(stats.flight.events.size(), Tracer::kDefaultFlightCapacity);
  EXPECT_GE(stats.flight.total_events, stats.flight.events.size());
}

TEST(SolveFlightTest, NoTracerLeavesFlightEmpty) {
  const LaborMarket market = GenerateMarket(UniformConfig(25, 25, 31));
  const MbtaProblem p = FlightProblem(market);
  SolveOptions options;
  options.budget.max_work = 3;
  SolveStats stats;
  GreedySolver().Solve(p, options, &stats);

  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_TRUE(stats.flight.empty());
}

// ---------------------------------------------------------------------------
// The anytime contract, per solver.
// ---------------------------------------------------------------------------

/// Runs `solver` on `problem` with the given budget and asserts the
/// anytime contract: the result is ValidateAssignment-clean and the stats
/// record the budget expiry.
void ExpectFeasibleDegradedSolve(const Solver& solver,
                                 const MbtaProblem& problem,
                                 const SolveOptions& options) {
  SCOPED_TRACE("solver=" + solver.name());
  SolveStats stats;
  const Assignment a = solver.Solve(problem, options, &stats);
  const ValidationResult r = ValidateAssignment(problem, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_TRUE(stats.deadline_hit) << "budget did not register as hit";
  EXPECT_NE(stats.stop_reason, StopReason::kNone);
  EXPECT_GE(stats.counters.Value("deadline/hit") +
                stats.counters.Value("cancel/observed"),
            1u);
}

class BudgetedSolversTest : public ::testing::TestWithParam<int> {};

TEST_P(BudgetedSolversTest, ZeroWorkBudgetStillFeasible) {
  const std::uint64_t seed = 0xDEAD0000ULL + GetParam();
  const LaborMarket market =
      GenerateMarket(UniformConfig(40, 35, seed));
  ASSERT_GT(market.NumEdges(), 0u);
  const MbtaProblem modular{
      &market, {.alpha = 0.5, .kind = ObjectiveKind::kModular}};

  SolveOptions options;
  options.budget.max_work = 0;
  for (const std::string& name : SolverNames()) {
    ExpectFeasibleDegradedSolve(
        *CreateSolver(name, {.seed = seed, .market = &market}), modular,
        options);
  }
}

TEST_P(BudgetedSolversTest, SmallWorkBudgetStillFeasible) {
  // A budget in the awkward middle: enough to start, not enough to
  // finish. Catches solvers that only handle the trivial 0-budget case.
  const std::uint64_t seed = 0xFEED0000ULL + GetParam();
  const LaborMarket market = GenerateMarket(ZipfConfig(45, 40, seed));
  ASSERT_GT(market.NumEdges(), 0u);
  const MbtaProblem submodular{
      &market, {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};

  SolveOptions options;
  options.budget.max_work = 7 + static_cast<std::uint64_t>(GetParam());
  for (const std::string& name : SolverNames()) {
    if (IsModularOnly(name)) continue;
    ExpectFeasibleDegradedSolve(
        *CreateSolver(name, {.seed = seed, .market = &market}), submodular,
        options);
  }
}

TEST_P(BudgetedSolversTest, ExpiredWallClockStillFeasible) {
  const std::uint64_t seed = 0xFACE0000ULL + GetParam();
  const LaborMarket market = GenerateMarket(UniformConfig(40, 35, seed));
  ASSERT_GT(market.NumEdges(), 0u);
  const MbtaProblem modular{
      &market, {.alpha = 0.5, .kind = ObjectiveKind::kModular}};

  // The deadline is already behind the first poll: every read advances
  // the clock 10ms against a 1ms budget.
  FakeClock clock(0.0, /*auto_advance_ms=*/10.0);
  SolveOptions options;
  options.budget.max_wall_ms = 1.0;
  options.budget.clock = &clock;
  for (const std::string& name : SolverNames()) {
    SCOPED_TRACE("solver=" + name);
    SolveStats stats;
    const Assignment a =
        CreateSolver(name, {.seed = seed, .market = &market})
            ->Solve(modular, options, &stats);
    const ValidationResult r = ValidateAssignment(modular, a);
    EXPECT_TRUE(r.ok()) << r.Message();
    EXPECT_TRUE(stats.deadline_hit);
    EXPECT_EQ(stats.stop_reason, StopReason::kWallClock);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetedSolversTest, ::testing::Range(0, 4));

TEST(BudgetedSolversTest, BruteForceHonorsBudgetOnTinyInstance) {
  const LaborMarket market = MakeTestMarket(
      {1, 1, 1}, {1, 1, 1},
      {{0, 0, 0.9, 0.5}, {0, 1, 0.8, 0.4}, {1, 0, 0.7, 0.6},
       {1, 1, 0.6, 0.2}, {2, 2, 0.5, 0.9}});
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  SolveOptions options;
  options.budget.max_work = 3;  // the full search needs far more nodes
  SolveStats stats;
  const Assignment a = BruteForceSolver().Solve(p, options, &stats);
  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_TRUE(stats.deadline_hit);
}

TEST(BudgetedSolversTest, GenerousBudgetDoesNotDegrade) {
  const LaborMarket market = GenerateMarket(UniformConfig(30, 30, 99));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  SolveOptions generous;
  generous.budget.max_work = 100'000'000;
  SolveStats stats;
  const Assignment budgeted = GreedySolver().Solve(p, generous, &stats);
  EXPECT_FALSE(stats.deadline_hit);
  EXPECT_EQ(stats.stop_reason, StopReason::kNone);
  const Assignment free_run = GreedySolver().Solve(p);
  EXPECT_EQ(budgeted.edges, free_run.edges);
}

}  // namespace
}  // namespace mbta
