#include "core/baseline_solvers.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/solver_registry.h"
#include "market/metrics.h"
#include "tests/test_markets.h"

namespace mbta {
namespace {

LaborMarket TensionMarket() {
  // Task 0 pays well but its best worker is unreliable; task 1 pays
  // nothing but has a stellar worker. One worker each, capacity 1 tasks.
  return MakeTestMarket({1, 1}, {1, 1},
                        {{0, 0, 0.55, 5.0},   // high pay, low quality
                         {1, 1, 0.99, 0.1},   // low pay, high quality
                         {0, 1, 0.55, 0.1},
                         {1, 0, 0.99, 5.0}},
                        {10.0, 10.0});
}

TEST(RandomSolverTest, DeterministicPerSeed) {
  Rng rng(5);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
  const MbtaProblem p{&m, {}};
  const Assignment a1 = RandomSolver(42).Solve(p);
  const Assignment a2 = RandomSolver(42).Solve(p);
  EXPECT_EQ(a1.edges, a2.edges);
}

TEST(RandomSolverTest, SeedsProduceDifferentAssignments) {
  Rng rng(6);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.8);
  const MbtaProblem p{&m, {}};
  const Assignment a1 = RandomSolver(1).Solve(p);
  const Assignment a2 = RandomSolver(2).Solve(p);
  // With a dense market the two shuffles almost surely differ.
  EXPECT_NE(a1.edges, a2.edges);
}

TEST(RandomSolverTest, MaximalWithRespectToAddition) {
  // Random fills until no edge can be added: result is a maximal feasible
  // set (important so it is a fair baseline, not an empty strawman).
  Rng rng(7);
  const LaborMarket m = RandomTestMarket(rng, 8, 8, 0.6);
  const MbtaProblem p{&m, {}};
  const Assignment a = RandomSolver(3).Solve(p);
  const MutualBenefitObjective obj = p.MakeObjective();
  ObjectiveState state(&obj);
  for (EdgeId e : a.edges) state.Add(e);
  for (EdgeId e = 0; e < m.NumEdges(); ++e) {
    EXPECT_FALSE(state.CanAdd(e)) << "edge " << e << " was addable";
  }
}

TEST(WorkerCentricTest, MaximizesWorkerSideOnTensionMarket) {
  const LaborMarket m = TensionMarket();
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const AssignmentMetrics wc =
      Evaluate(obj, WorkerCentricSolver().Solve(p));
  const AssignmentMetrics rc =
      Evaluate(obj, RequesterCentricSolver().Solve(p));
  EXPECT_GE(wc.worker_benefit, rc.worker_benefit);
  EXPECT_GE(rc.requester_benefit, wc.requester_benefit);
}

TEST(WorkerCentricTest, EachWorkerGetsItsBestAvailableTask) {
  // Single worker, two tasks: takes the higher-benefit one.
  const LaborMarket m = MakeTestMarket(
      {1}, {1, 1}, {{0, 0, 0.8, 1.0}, {0, 1, 0.8, 3.0}});
  const MbtaProblem p{&m, {}};
  const Assignment a = WorkerCentricSolver().Solve(p);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(m.EdgeTask(a.edges[0]), 1u);
}

TEST(RequesterCentricTest, EachTaskGetsItsBestWorkers) {
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1}, {{0, 0, 0.9, 1.0}, {1, 0, 0.6, 1.0}});
  const MbtaProblem p{&m, {}};
  const Assignment a = RequesterCentricSolver().Solve(p);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(m.EdgeWorker(a.edges[0]), 0u);
}

TEST(MatchingSolverTest, AtMostOneTaskPerWorkerAndViceVersa) {
  Rng rng(9);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
  const MbtaProblem p{&m, {}};
  const Assignment a = CreateSolver("matching")->Solve(p);
  std::vector<int> wl = WorkerLoads(m, a), tl = TaskLoads(m, a);
  EXPECT_LE(*std::max_element(wl.begin(), wl.end()), 1);
  EXPECT_LE(*std::max_element(tl.begin(), tl.end()), 1);
}

TEST(MatchingSolverTest, OptimalOnUnitCapacityMarkets) {
  // When all capacities are 1 the matching baseline IS the exact optimum
  // for the modular objective — cross-check against greedy's trap.
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1, 1},
      {{0, 0, 0.5, 10.0}, {0, 1, 0.5, 9.0}, {1, 0, 0.5, 9.0}},
      {0.0, 0.0});
  const MbtaProblem p{&m, {.alpha = 0.0, .kind = ObjectiveKind::kModular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  EXPECT_NEAR(obj.Value(CreateSolver("matching")->Solve(p)), 18.0, 1e-6);
}

TEST(MatchingSolverTest, LosesToGreedyWhenCapacitiesMatter) {
  // Worker cap 3 on three tasks: matching takes one edge, greedy takes 3.
  const LaborMarket m = MakeTestMarket(
      {3}, {1, 1, 1},
      {{0, 0, 0.8, 1.0}, {0, 1, 0.8, 1.0}, {0, 2, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  EXPECT_LT(obj.Value(CreateSolver("matching")->Solve(p)),
            obj.Value(GreedySolver().Solve(p)));
}

class BaselineFeasibilityTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineFeasibilityTest, AllBaselinesFeasible) {
  Rng rng(GetParam() * 503 + 19);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.4);
  for (ObjectiveKind kind :
       {ObjectiveKind::kModular, ObjectiveKind::kSubmodular}) {
    const MbtaProblem p{&m, {.alpha = 0.5, .kind = kind}};
    EXPECT_TRUE(IsFeasible(m, RandomSolver(GetParam()).Solve(p)));
    EXPECT_TRUE(IsFeasible(m, WorkerCentricSolver().Solve(p)));
    EXPECT_TRUE(IsFeasible(m, RequesterCentricSolver().Solve(p)));
    EXPECT_TRUE(IsFeasible(m, CreateSolver("matching")->Solve(p)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFeasibilityTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace mbta
