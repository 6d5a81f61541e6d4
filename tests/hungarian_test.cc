#include "tests/hungarian.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mbta {
namespace {

/// Reference: best assignment cost over all permutations (n <= m).
double BruteForceMinCost(const std::vector<double>& cost, std::size_t n,
                         std::size_t m) {
  std::vector<std::size_t> cols(m);
  std::iota(cols.begin(), cols.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  // Permute columns; the first n entries are the assignment.
  std::sort(cols.begin(), cols.end());
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cost[i * m + cols[i]];
    best = std::min(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

TEST(MinCostAssignmentTest, OneByOne) {
  const AssignmentResult r = MinCostAssignment({7.0}, 1, 1);
  EXPECT_EQ(r.row_to_col[0], 0);
  EXPECT_DOUBLE_EQ(r.total, 7.0);
}

TEST(MinCostAssignmentTest, TwoByTwoPicksOffDiagonal) {
  // cost = [[10, 1], [1, 10]] -> assign 0->1, 1->0, total 2.
  const AssignmentResult r = MinCostAssignment({10, 1, 1, 10}, 2, 2);
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 0);
  EXPECT_DOUBLE_EQ(r.total, 2.0);
}

TEST(MinCostAssignmentTest, KnownThreeByThree) {
  // Classic example with optimum 5: (0,1)=2 (1,0)=2 (2,2)=1.
  const std::vector<double> cost = {4, 2, 8, 2, 3, 7, 3, 1, 1};
  const AssignmentResult r = MinCostAssignment(cost, 3, 3);
  EXPECT_DOUBLE_EQ(r.total, BruteForceMinCost(cost, 3, 3));
}

TEST(MinCostAssignmentTest, RectangularLeavesColumnsFree) {
  // 2 rows, 3 cols: both rows must be assigned, one column unused.
  const std::vector<double> cost = {5, 1, 9, 1, 5, 9};
  const AssignmentResult r = MinCostAssignment(cost, 2, 3);
  EXPECT_DOUBLE_EQ(r.total, 2.0);
  EXPECT_NE(r.row_to_col[0], r.row_to_col[1]);
}

TEST(MinCostAssignmentTest, NegativeCostsSupported) {
  const std::vector<double> cost = {-5, 0, 0, -5};
  const AssignmentResult r = MinCostAssignment(cost, 2, 2);
  EXPECT_DOUBLE_EQ(r.total, -10.0);
}

TEST(MinCostAssignmentTest, AllAssignmentsDistinct) {
  Rng rng(5);
  const std::size_t n = 6, m = 8;
  std::vector<double> cost(n * m);
  for (auto& c : cost) c = rng.NextDouble(0, 100);
  const AssignmentResult r = MinCostAssignment(cost, n, m);
  std::vector<int> cols = r.row_to_col;
  std::sort(cols.begin(), cols.end());
  EXPECT_EQ(std::adjacent_find(cols.begin(), cols.end()), cols.end());
}

class RandomHungarianTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomHungarianTest, MatchesBruteForce) {
  Rng rng(GetParam() * 104729 + 17);
  const std::size_t n = 1 + rng.NextBounded(5);
  const std::size_t m = n + rng.NextBounded(3);
  std::vector<double> cost(n * m);
  for (auto& c : cost) {
    c = static_cast<double>(rng.NextInt(-20, 20));  // integers: exact compare
  }
  const AssignmentResult r = MinCostAssignment(cost, n, m);
  EXPECT_DOUBLE_EQ(r.total, BruteForceMinCost(cost, n, m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHungarianTest, ::testing::Range(0, 40));

TEST(MaxWeightMatchingTest, EmptyMatrix) {
  const AssignmentResult r = MaxWeightMatching({}, 0, 0);
  EXPECT_TRUE(r.row_to_col.empty());
  EXPECT_DOUBLE_EQ(r.total, 0.0);
}

TEST(MaxWeightMatchingTest, NegativeWeightsLeftUnmatched) {
  const AssignmentResult r = MaxWeightMatching({-1, -2, -3, -4}, 2, 2);
  EXPECT_EQ(r.row_to_col[0], -1);
  EXPECT_EQ(r.row_to_col[1], -1);
  EXPECT_DOUBLE_EQ(r.total, 0.0);
}

TEST(MaxWeightMatchingTest, PicksBestCombination) {
  // weight = [[3, 5], [4, 1]] -> 0->1 (5) + 1->0 (4) = 9.
  const AssignmentResult r = MaxWeightMatching({3, 5, 4, 1}, 2, 2);
  EXPECT_DOUBLE_EQ(r.total, 9.0);
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 0);
}

TEST(MaxWeightMatchingTest, FreeDisposalBeatsForcedPerfectMatching) {
  // Forcing both rows would require using a 0-weight pair; dropping the
  // second row is just as good — total must be the single best edge when
  // all other weights are 0.
  const AssignmentResult r = MaxWeightMatching({9, 0, 0, 0}, 2, 2);
  EXPECT_DOUBLE_EQ(r.total, 9.0);
  EXPECT_EQ(r.row_to_col[0], 0);
  EXPECT_EQ(r.row_to_col[1], -1);
}

TEST(MaxWeightMatchingTest, MoreRowsThanColumns) {
  // 3 rows, 1 column: only the best row gets the column.
  const AssignmentResult r = MaxWeightMatching({1, 5, 3}, 3, 1);
  EXPECT_DOUBLE_EQ(r.total, 5.0);
  EXPECT_EQ(r.row_to_col[0], -1);
  EXPECT_EQ(r.row_to_col[1], 0);
  EXPECT_EQ(r.row_to_col[2], -1);
}

class RandomMaxWeightTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaxWeightTest, NeverWorseThanGreedyAndFeasible) {
  Rng rng(GetParam() * 31337 + 1);
  const std::size_t n = 1 + rng.NextBounded(6);
  const std::size_t m = 1 + rng.NextBounded(6);
  std::vector<double> weight(n * m);
  for (auto& w : weight) w = rng.NextDouble(-5, 10);
  const AssignmentResult r = MaxWeightMatching(weight, n, m);

  // Feasible: distinct columns, only positive-weight pairs.
  std::vector<bool> used(m, false);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int j = r.row_to_col[i];
    if (j < 0) continue;
    EXPECT_FALSE(used[j]);
    used[j] = true;
    EXPECT_GT(weight[i * m + j], 0.0);
    total += weight[i * m + j];
  }
  EXPECT_NEAR(total, r.total, 1e-9);

  // At least as good as the single best edge.
  double best_edge = 0.0;
  for (double w : weight) best_edge = std::max(best_edge, w);
  EXPECT_GE(r.total + 1e-9, best_edge);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaxWeightTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace mbta
