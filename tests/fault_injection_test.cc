/// FaultInjector semantics (deterministic schedules, probabilistic arming,
/// hit counting) and the named fault points wired into the library:
/// "solver/step" (DeadlineGate::Charge), "flow/build_arc" (exact flow
/// network construction) and "io/read" (market_io readers).

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/solve_options.h"
#include "core/solver.h"
#include "gen/market_generator.h"
#include "io/market_io.h"
#include "tests/test_markets.h"
#include "util/deadline.h"
#include "util/fault_injector.h"

namespace mbta {
namespace {

TEST(FaultInjectorTest, UnarmedPointNeverFiresButCountsHits) {
  FaultInjector faults;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(faults.ShouldFail("some/point"));
  }
  EXPECT_EQ(faults.HitCount("some/point"), 5u);
  EXPECT_EQ(faults.HitCount("never/hit"), 0u);
}

TEST(FaultInjectorTest, ArmedPointFiresFromFirstHitForever) {
  FaultInjector faults;
  faults.Arm("io/read");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(faults.ShouldFail("io/read"));
  }
  EXPECT_FALSE(faults.ShouldFail("other/point"));
}

TEST(FaultInjectorTest, FireAtHitSkipsEarlierHits) {
  FaultInjector faults;
  faults.Arm("solver/step", /*fire_at_hit=*/3);
  EXPECT_FALSE(faults.ShouldFail("solver/step"));  // hit 0
  EXPECT_FALSE(faults.ShouldFail("solver/step"));  // hit 1
  EXPECT_FALSE(faults.ShouldFail("solver/step"));  // hit 2
  EXPECT_TRUE(faults.ShouldFail("solver/step"));   // hit 3
  EXPECT_TRUE(faults.ShouldFail("solver/step"));   // hit 4: still firing
}

TEST(FaultInjectorTest, FireCountBoundsTheWindow) {
  FaultInjector faults;
  faults.Arm("flow/build_arc", /*fire_at_hit=*/1, /*fire_count=*/2);
  EXPECT_FALSE(faults.ShouldFail("flow/build_arc"));  // hit 0
  EXPECT_TRUE(faults.ShouldFail("flow/build_arc"));   // hit 1
  EXPECT_TRUE(faults.ShouldFail("flow/build_arc"));   // hit 2
  EXPECT_FALSE(faults.ShouldFail("flow/build_arc"));  // hit 3: window over
}

TEST(FaultInjectorTest, DisarmStopsFiringKeepsCounting) {
  FaultInjector faults;
  faults.Arm("io/read");
  EXPECT_TRUE(faults.ShouldFail("io/read"));
  faults.Disarm("io/read");
  EXPECT_FALSE(faults.ShouldFail("io/read"));
  EXPECT_EQ(faults.HitCount("io/read"), 2u);
}

TEST(FaultInjectorTest, ProbabilisticIsDeterministicPerSeed) {
  auto fire_pattern = [](std::uint64_t seed) {
    FaultInjector faults;
    faults.ArmProbabilistic("solver/step", 0.5, seed);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += faults.ShouldFail("solver/step") ? '1' : '0';
    }
    return pattern;
  };
  EXPECT_EQ(fire_pattern(7), fire_pattern(7));
  EXPECT_NE(fire_pattern(7), fire_pattern(8));
  // p=0.5 over 64 draws: both outcomes must actually occur.
  const std::string p = fire_pattern(7);
  EXPECT_NE(p.find('1'), std::string::npos);
  EXPECT_NE(p.find('0'), std::string::npos);
}

TEST(FaultInjectorTest, ProbabilityExtremes) {
  FaultInjector faults;
  faults.ArmProbabilistic("always", 1.0, 1);
  faults.ArmProbabilistic("never", 0.0, 1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(faults.ShouldFail("always"));
    EXPECT_FALSE(faults.ShouldFail("never"));
  }
}

TEST(MaybeFailTest, NullInjectorIsNoOp) {
  EXPECT_NO_THROW(MaybeFail(nullptr, "io/read"));
}

TEST(MaybeFailTest, ThrowsWithPointName) {
  FaultInjector faults;
  faults.Arm("flow/build_arc");
  try {
    MaybeFail(&faults, "flow/build_arc");
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.point(), "flow/build_arc");
    EXPECT_NE(std::string(e.what()).find("flow/build_arc"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Fault points wired into the library.
// ---------------------------------------------------------------------------

TEST(FaultPointsTest, SolverStepKillsGreedyAtExactStep) {
  const LaborMarket market = GenerateMarket(UniformConfig(20, 20, 11));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  FaultInjector faults;
  faults.Arm("solver/step", /*fire_at_hit=*/5);
  SolveOptions options;
  options.faults = &faults;
  EXPECT_THROW(GreedySolver().Solve(p, options), FaultInjectedError);
  EXPECT_EQ(faults.HitCount("solver/step"), 6u);
}

TEST(FaultPointsTest, BuildArcKillsExactFlowMidBuild) {
  const LaborMarket market = GenerateMarket(UniformConfig(20, 20, 12));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  FaultInjector faults;
  faults.Arm("flow/build_arc", /*fire_at_hit=*/3);
  SolveOptions options;
  options.faults = &faults;
  EXPECT_THROW(ExactFlowSolver().Solve(p, options), FaultInjectedError);
}

TEST(FaultPointsTest, ExactFlowSucceedsWhenFaultWindowMissed) {
  const LaborMarket market = GenerateMarket(UniformConfig(10, 10, 13));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  FaultInjector faults;
  // Window far past the number of arcs this build creates.
  faults.Arm("flow/build_arc", /*fire_at_hit=*/1u << 30);
  SolveOptions options;
  options.faults = &faults;
  const Assignment with_faults = ExactFlowSolver().Solve(p, options);
  const Assignment without = ExactFlowSolver().Solve(p);
  EXPECT_EQ(with_faults.edges, without.edges);
  EXPECT_GT(faults.HitCount("flow/build_arc"), 0u);
}

TEST(FaultPointsTest, IoReadKillsMarketReaderAtExactLine) {
  const LaborMarket market = MakeTestMarket(
      {1, 1}, {1, 1}, {{0, 0, 0.9, 0.5}, {1, 1, 0.8, 0.4}});
  std::ostringstream out;
  WriteMarket(market, out);

  // The reader fires io/read once per entity line (2 workers + 2 tasks +
  // 2 edges): killing hit 3 dies inside the task section.
  FaultInjector faults;
  faults.Arm("io/read", /*fire_at_hit=*/3);
  std::istringstream in(out.str());
  std::string error;
  EXPECT_THROW(ReadMarket(in.str(), &error, &faults), FaultInjectedError);

  // With no injector the same bytes parse fine.
  std::istringstream in2(out.str());
  EXPECT_TRUE(ReadMarket(in2.str(), &error).has_value()) << error;
}

TEST(FaultPointsTest, IoReadKillsAssignmentReader) {
  const LaborMarket market = MakeTestMarket(
      {1, 1}, {1, 1}, {{0, 0, 0.9, 0.5}, {1, 1, 0.8, 0.4}});
  Assignment a;
  a.edges = {0, 1};
  std::ostringstream out;
  WriteAssignment(market, a, out);

  FaultInjector faults;
  faults.Arm("io/read");
  std::istringstream in(out.str());
  std::string error;
  EXPECT_THROW(ReadAssignment(market, in.str(), &error, &faults),
               FaultInjectedError);
}

}  // namespace
}  // namespace mbta
