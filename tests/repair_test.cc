#include "core/repair.h"

#include <vector>

#include <gtest/gtest.h>

#include "tests/test_markets.h"

namespace mbta {
namespace {

TEST(RepairTest, RefillEvaluatesEveryCopyOfADuplicateCandidate) {
  // One edge listed twice, plus an edge already chosen. The first pass
  // evaluates (and charges) both copies of edge 1 and commits it; the
  // second pass finds every candidate chosen and evaluates nothing.
  const LaborMarket m =
      MakeTestMarket({2}, {1, 1}, {{0, 0, 0.8, 1.0}, {0, 1, 0.7, 1.0}});
  const MutualBenefitObjective obj(&m, {});
  ObjectiveState state(&obj);
  state.Add(0);
  RepairStats stats;
  DeadlineGate gate;
  std::vector<RefillEvaluation> evaluations;
  GreedyRefill(state, {0, 1, 1}, &stats, &gate, &evaluations);
  EXPECT_EQ(stats.gain_evaluations, 2u);
  EXPECT_EQ(stats.edges_added, 1u);
  EXPECT_EQ(gate.work_used(), 2u);
  ASSERT_EQ(evaluations.size(), 2u);
  EXPECT_EQ(evaluations[0].edge, 1u);
  EXPECT_EQ(evaluations[1].edge, 1u);
  EXPECT_TRUE(state.Contains(1));
}

}  // namespace
}  // namespace mbta
