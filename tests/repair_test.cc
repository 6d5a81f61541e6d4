#include "core/repair.h"

#include <set>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "tests/test_markets.h"

namespace mbta {
namespace {

TEST(RepairTest, DepartedWorkerHoldsNothing) {
  Rng rng(3);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before = GreedySolver().Solve(p);
  for (WorkerId w = 0; w < m.NumWorkers(); ++w) {
    const Assignment after = RemoveWorkerAndRepair(obj, before, w);
    EXPECT_TRUE(IsFeasible(m, after));
    EXPECT_EQ(WorkerLoads(m, after)[w], 0);
  }
}

TEST(RepairTest, ReplacementWorkerFillsTheSlot) {
  // Two workers can serve the task; worker 0 is assigned, then leaves:
  // the repair must hand the task to worker 1.
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1}, {{0, 0, 0.9, 1.0}, {1, 0, 0.7, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0}};
  const Assignment after = RemoveWorkerAndRepair(obj, before, 0);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(m.EdgeWorker(after.edges[0]), 1u);
}

TEST(RepairTest, WithdrawnTaskHasNoAssignments) {
  Rng rng(5);
  const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before = GreedySolver().Solve(p);
  for (TaskId t = 0; t < m.NumTasks(); ++t) {
    const Assignment after = RemoveTaskAndRepair(obj, before, t);
    EXPECT_TRUE(IsFeasible(m, after));
    EXPECT_EQ(TaskLoads(m, after)[t], 0);
  }
}

TEST(RepairTest, FreedWorkerRedeploysElsewhere) {
  // Worker 0 on task 0; task 0 withdrawn; worker 0 must move to task 1.
  const LaborMarket m = MakeTestMarket(
      {1}, {1, 1}, {{0, 0, 0.9, 2.0}, {0, 1, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment after = RemoveTaskAndRepair(obj, Assignment{{0}}, 0);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(m.EdgeTask(after.edges[0]), 1u);
}

TEST(RepairTest, UntouchedPairsSurvive) {
  Rng rng(7);
  const LaborMarket m = RandomTestMarket(rng, 12, 12, 0.4);
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before = GreedySolver().Solve(p);
  if (before.empty()) GTEST_SKIP() << "degenerate instance";
  const WorkerId w = m.EdgeWorker(before.edges[0]);
  const Assignment after = RemoveWorkerAndRepair(obj, before, w);
  // Every original pair not involving w must still be present.
  std::set<EdgeId> kept(after.edges.begin(), after.edges.end());
  for (EdgeId e : before.edges) {
    if (m.EdgeWorker(e) != w) {
      EXPECT_TRUE(kept.count(e)) << "edge " << e << " lost in repair";
    }
  }
}

TEST(RepairTest, RepairCompetitiveWithResolve) {
  // On random markets, repairing after one departure should stay within
  // a modest factor of greedy-from-scratch on the shrunken market.
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const LaborMarket m = GenerateMarket(UniformConfig(60, 60, 100 + trial));
    const MbtaProblem p{&m,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const Assignment before = GreedySolver().Solve(p);
    const WorkerId w = static_cast<WorkerId>(rng.NextBounded(m.NumWorkers()));
    const Assignment repaired = RemoveWorkerAndRepair(obj, before, w);

    // Reference: re-solve with the worker's capacity zeroed out — emulate
    // by solving and then stripping w... simplest fair reference is the
    // repaired value vs (before minus w's edges) with no refill.
    Assignment stripped;
    for (EdgeId e : before.edges) {
      if (m.EdgeWorker(e) != w) stripped.edges.push_back(e);
    }
    EXPECT_GE(obj.Value(repaired) + 1e-9, obj.Value(stripped));
  }
}

TEST(RepairTest, RemovingUnassignedWorkerMayOnlyImprove) {
  // Worker 1 holds nothing in `before`. Removing it must keep the
  // existing pairs and may only *add* (the refill pass is free to grab
  // capacity the removal did not open, but never to drop a held pair).
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {2}, {{0, 0, 0.9, 1.0}, {1, 0, 0.3, 0.2}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0}};  // only worker 0 assigned
  const Assignment after = RemoveWorkerAndRepair(obj, before, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  EXPECT_EQ(WorkerLoads(m, after)[1], 0);
  const std::set<EdgeId> kept(after.edges.begin(), after.edges.end());
  EXPECT_TRUE(kept.count(0)) << "unrelated pair dropped";
}

TEST(RepairTest, RemovingUnassignedTaskKeepsEverything) {
  const LaborMarket m = MakeTestMarket(
      {1}, {1, 1}, {{0, 0, 0.9, 1.0}, {0, 1, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0}};  // task 1 unassigned
  const Assignment after = RemoveTaskAndRepair(obj, before, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  EXPECT_EQ(TaskLoads(m, after)[1], 0);
  const std::set<EdgeId> kept(after.edges.begin(), after.edges.end());
  EXPECT_TRUE(kept.count(0));
}

TEST(RepairTest, LastWorkerOfATaskLeavesTaskUncovered) {
  // Task 0's only eligible worker leaves: the repair has no replacement
  // to offer, so the task must end up cleanly uncovered — not crashed,
  // not holding a phantom pair.
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1, 1}, {{0, 0, 0.9, 1.0}, {1, 1, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0, 1}};
  const Assignment after = RemoveWorkerAndRepair(obj, before, 0);
  EXPECT_TRUE(IsFeasible(m, after));
  EXPECT_EQ(TaskLoads(m, after)[0], 0) << "no other worker can cover it";
  EXPECT_EQ(TaskLoads(m, after)[1], 1) << "unrelated pair dropped";
}

TEST(RepairTest, EmptyAssignmentRepairsToEmptyOrBetter) {
  Rng rng(13);
  const LaborMarket m = RandomTestMarket(rng, 8, 8, 0.5);
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  for (WorkerId w = 0; w < m.NumWorkers(); ++w) {
    const Assignment after = RemoveWorkerAndRepair(obj, Assignment{}, w);
    EXPECT_TRUE(IsFeasible(m, after));
    EXPECT_EQ(WorkerLoads(m, after)[w], 0);
  }
  for (TaskId t = 0; t < m.NumTasks(); ++t) {
    const Assignment after = RemoveTaskAndRepair(obj, Assignment{}, t);
    EXPECT_TRUE(IsFeasible(m, after));
    EXPECT_EQ(TaskLoads(m, after)[t], 0);
  }
}

TEST(RepairTest, RepairedAssignmentsStayValidatorClean) {
  // Differential oracle sweep: after any single departure, the repaired
  // assignment passes the full independent validator, not just the
  // lighter IsFeasible check.
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(0x9E9A17 + static_cast<std::uint64_t>(trial));
    const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
    const MbtaProblem p{&m,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const Assignment before = GreedySolver().Solve(p);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (WorkerId w = 0; w < m.NumWorkers(); ++w) {
      const Assignment after = RemoveWorkerAndRepair(obj, before, w);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "worker " << w << ": " << r.Message();
    }
    for (TaskId t = 0; t < m.NumTasks(); ++t) {
      const Assignment after = RemoveTaskAndRepair(obj, before, t);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "task " << t << ": " << r.Message();
    }
  }
}

TEST(RepairTest, ArrivingWorkerTakesItsBestEdges) {
  // Worker 0 already holds task 0. Worker 1 "arrives" (present in the
  // market, absent from the assignment) with capacity 1 and two eligible
  // tasks: it must take the better one and leave worker 0 alone.
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1, 1, 1},
      {{0, 0, 0.9, 1.0}, {1, 1, 0.4, 0.5}, {1, 2, 0.9, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0}};
  const Assignment after = AddWorkerAndRepair(obj, before, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  ASSERT_EQ(after.size(), 2u);
  const std::set<EdgeId> kept(after.edges.begin(), after.edges.end());
  EXPECT_TRUE(kept.count(0)) << "existing pair disturbed";
  EXPECT_TRUE(kept.count(2)) << "arrival skipped its best task";
}

TEST(RepairTest, ArrivingWorkerFindsNoRoomInASaturatedMarket) {
  // The only task is already fully staffed: the arrival changes nothing.
  const LaborMarket m = MakeTestMarket(
      {1, 1}, {1}, {{0, 0, 0.9, 1.0}, {1, 0, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0}};
  const Assignment after = AddWorkerAndRepair(obj, before, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.edges[0], 0u);
}

TEST(RepairTest, PostedTaskIsStaffedFromSpareCapacity) {
  // Worker 0 (capacity 2) holds task 0; task 1 is posted: the spare unit
  // of capacity staffs it without moving the existing pair.
  const LaborMarket m = MakeTestMarket(
      {2}, {1, 1}, {{0, 0, 0.9, 1.0}, {0, 1, 0.8, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment after = AddTaskAndRepair(obj, Assignment{{0}}, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  EXPECT_EQ(after.size(), 2u);
}

TEST(RepairTest, PostedTaskStealsNoSaturatedWorker) {
  const LaborMarket m = MakeTestMarket(
      {1}, {1, 1}, {{0, 0, 0.9, 1.0}, {0, 1, 0.99, 1.0}});
  const MbtaProblem p{&m, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  // Worker 0 is saturated on task 0; the juicier task 1 arrives. The
  // localized arrival repair must NOT reshuffle held pairs — that is the
  // escape hatch's job, not the repair's.
  const Assignment after = AddTaskAndRepair(obj, Assignment{{0}}, 1);
  EXPECT_TRUE(IsFeasible(m, after));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.edges[0], 0u);
}

TEST(RepairTest, CapacityCutShedsTheLeastValuableEdge) {
  // Same market twice, differing only in worker 0's capacity (2 -> 1).
  // Edge ids are assigned in AddEdge order, so an assignment carries over.
  const std::vector<TestEdge> edges = {{0, 0, 0.9, 1.0}, {0, 1, 0.3, 0.2}};
  const LaborMarket wide = MakeTestMarket({2}, {1, 1}, edges);
  const LaborMarket narrow = MakeTestMarket({1}, {1, 1}, edges);
  const MbtaProblem p{&narrow, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment before{{0, 1}};  // feasible in `wide`, not in `narrow`
  const Assignment after = PatchWorkerAndRepair(obj, before, 0);
  EXPECT_TRUE(IsFeasible(narrow, after));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.edges[0], 0u) << "shed the wrong edge";
}

TEST(RepairTest, CapacityRaiseRefillsTheNewSlack) {
  const std::vector<TestEdge> edges = {{0, 0, 0.9, 1.0}, {0, 1, 0.8, 1.0}};
  const LaborMarket narrow = MakeTestMarket({1}, {1, 1}, edges);
  const LaborMarket wide = MakeTestMarket({2}, {1, 1}, edges);
  const MbtaProblem p{&wide, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment after = PatchWorkerAndRepair(obj, Assignment{{0}}, 0);
  EXPECT_TRUE(IsFeasible(wide, after));
  EXPECT_EQ(after.size(), 2u) << "new capacity left idle";
}

TEST(RepairTest, TaskPatchReseatsUnderNewAttributes) {
  // Task 0's value collapses (2.0 -> 0.01 via a rebuilt market): the
  // patch re-chooses its pairs under the new attributes, freeing worker 0
  // to serve task 1 instead.
  const std::vector<TestEdge> edges = {{0, 0, 0.9, 1.0}, {0, 1, 0.8, 1.0}};
  const LaborMarket devalued =
      MakeTestMarket({1}, {1, 1}, edges, /*task_values=*/{0.01, 1.0});
  const MbtaProblem p{&devalued, {}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const Assignment after = PatchTaskAndRepair(obj, Assignment{{0}}, 0);
  EXPECT_TRUE(IsFeasible(devalued, after));
  const ValidationResult r = ValidateAssignment(p, after);
  EXPECT_TRUE(r.ok()) << r.Message();
  EXPECT_GE(obj.Value(after) + 1e-9, obj.Value(Assignment{{0}}));
}

TEST(RepairTest, ArrivalRepairsStayValidatorClean) {
  // Differential oracle sweep over the arrival paths, mirroring the
  // departure sweep above: strip one entity's edges from a solved
  // assignment (emulating the pre-arrival state), repair it back in, and
  // demand a validator-clean result at least as good as the stripped one.
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(0xA11D + static_cast<std::uint64_t>(trial));
    const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
    const MbtaProblem p{&m,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const Assignment solved = GreedySolver().Solve(p);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (WorkerId w = 0; w < m.NumWorkers(); ++w) {
      Assignment stripped;
      for (EdgeId e : solved.edges) {
        if (m.EdgeWorker(e) != w) stripped.edges.push_back(e);
      }
      const Assignment after = AddWorkerAndRepair(obj, stripped, w);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "worker " << w << ": " << r.Message();
      EXPECT_GE(obj.Value(after) + 1e-9, obj.Value(stripped));
    }
    for (TaskId t = 0; t < m.NumTasks(); ++t) {
      Assignment stripped;
      for (EdgeId e : solved.edges) {
        if (m.EdgeTask(e) != t) stripped.edges.push_back(e);
      }
      const Assignment after = AddTaskAndRepair(obj, stripped, t);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "task " << t << ": " << r.Message();
      EXPECT_GE(obj.Value(after) + 1e-9, obj.Value(stripped));
    }
  }
}

TEST(RepairTest, PatchRepairsStayValidatorClean) {
  // A no-op patch (same attributes) must behave like a stability check:
  // validator-clean, and at least as good as what it was handed.
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(0x9A7C4 + static_cast<std::uint64_t>(trial));
    const LaborMarket m = RandomTestMarket(rng, 10, 10, 0.5);
    const MbtaProblem p{&m,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const Assignment solved = GreedySolver().Solve(p);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (WorkerId w = 0; w < m.NumWorkers(); ++w) {
      const Assignment after = PatchWorkerAndRepair(obj, solved, w);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "worker " << w << ": " << r.Message();
      EXPECT_GE(obj.Value(after) + 1e-9, obj.Value(solved));
    }
    for (TaskId t = 0; t < m.NumTasks(); ++t) {
      const Assignment after = PatchTaskAndRepair(obj, solved, t);
      const ValidationResult r = ValidateAssignment(p, after);
      EXPECT_TRUE(r.ok()) << "task " << t << ": " << r.Message();
      EXPECT_GE(obj.Value(after) + 1e-9, obj.Value(solved));
    }
  }
}

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
  GreedyRefill(state, {0, 1, 1}, &stats, &gate, {}, &evaluations);
  EXPECT_EQ(stats.gain_evaluations, 2u);
  EXPECT_EQ(stats.edges_added, 1u);
  EXPECT_EQ(gate.work_used(), 2u);
  ASSERT_EQ(evaluations.size(), 2u);
  EXPECT_EQ(evaluations[0].edge, 1u);
  EXPECT_EQ(evaluations[1].edge, 1u);
  EXPECT_TRUE(state.Contains(1));
}

TEST(RepairDeathTest, OutOfRangeIdsAbort) {
  const LaborMarket m = MakeTestMarket({1}, {1}, {{0, 0, 0.8, 1.0}});
  const MutualBenefitObjective obj(&m, {});
  EXPECT_DEATH(RemoveWorkerAndRepair(obj, Assignment{}, 5), "MBTA_CHECK");
  EXPECT_DEATH(RemoveTaskAndRepair(obj, Assignment{}, 5), "MBTA_CHECK");
}

}  // namespace
}  // namespace mbta
