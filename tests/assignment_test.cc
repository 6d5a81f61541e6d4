#include "market/assignment.h"

#include <gtest/gtest.h>

#include "tests/test_markets.h"

namespace mbta {
namespace {

LaborMarket TwoByTwo() {
  // Workers cap {1, 2}; tasks cap {1, 1}; all four edges present.
  return MakeTestMarket({1, 2}, {1, 1},
                        {{0, 0, 0.8, 1.0},
                         {0, 1, 0.8, 1.0},
                         {1, 0, 0.8, 1.0},
                         {1, 1, 0.8, 1.0}});
}

TEST(AssignmentTest, EmptyIsFeasible) {
  const LaborMarket m = TwoByTwo();
  EXPECT_TRUE(IsFeasible(m, Assignment{}));
}

TEST(AssignmentTest, SimpleFeasible) {
  const LaborMarket m = TwoByTwo();
  // Edge ids: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1).
  EXPECT_TRUE(IsFeasible(m, Assignment{{0, 3}}));
  EXPECT_TRUE(IsFeasible(m, Assignment{{2, 1}}));
}

TEST(AssignmentTest, WorkerCapacityViolation) {
  const LaborMarket m = TwoByTwo();
  // Worker 0 has capacity 1 but takes both tasks.
  EXPECT_FALSE(IsFeasible(m, Assignment{{0, 1}}));
  // Worker 1 has capacity 2: both tasks are fine.
  EXPECT_TRUE(IsFeasible(m, Assignment{{2, 3}}));
}

TEST(AssignmentTest, TaskCapacityViolation) {
  const LaborMarket m = TwoByTwo();
  // Task 0 has capacity 1 but gets both workers.
  EXPECT_FALSE(IsFeasible(m, Assignment{{0, 2}}));
}

TEST(AssignmentTest, DuplicateEdgeInfeasible) {
  const LaborMarket m = TwoByTwo();
  EXPECT_FALSE(IsFeasible(m, Assignment{{3, 3}}));
}

TEST(AssignmentTest, OutOfRangeEdgeInfeasible) {
  const LaborMarket m = TwoByTwo();
  EXPECT_FALSE(IsFeasible(m, Assignment{{99}}));
}

TEST(AssignmentTest, LoadsComputed) {
  const LaborMarket m = TwoByTwo();
  const Assignment a{{2, 3}};  // worker 1 takes both tasks
  const auto wl = WorkerLoads(m, a);
  EXPECT_EQ(wl[0], 0);
  EXPECT_EQ(wl[1], 2);
  const auto tl = TaskLoads(m, a);
  EXPECT_EQ(tl[0], 1);
  EXPECT_EQ(tl[1], 1);
}

TEST(AssignmentTest, GroupingByTaskAndWorker) {
  const LaborMarket m = TwoByTwo();
  const Assignment a{{0, 3}};
  const auto by_task = EdgesByTask(m, a);
  ASSERT_EQ(by_task[0].size(), 1u);
  EXPECT_EQ(by_task[0][0], 0u);
  ASSERT_EQ(by_task[1].size(), 1u);
  EXPECT_EQ(by_task[1][0], 3u);
  const auto by_worker = EdgesByWorker(m, a);
  ASSERT_EQ(by_worker[0].size(), 1u);
  ASSERT_EQ(by_worker[1].size(), 1u);
}

TEST(AssignmentTest, ZeroCapacityWorkerTakesNothing) {
  const LaborMarket m =
      MakeTestMarket({0}, {1}, {{0, 0, 0.8, 1.0}});
  EXPECT_FALSE(IsFeasible(m, Assignment{{0}}));
}

}  // namespace
}  // namespace mbta
