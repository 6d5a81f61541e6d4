/// End-to-end tests across generator → solver → metrics → simulator →
/// aggregation, asserting the qualitative relationships the paper's
/// evaluation narrative depends on (see DESIGN.md, "expected shapes").

#include <gtest/gtest.h>

#include "core/baseline_solvers.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/local_search_solver.h"
#include "core/online_solvers.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "core/threshold_solver.h"
#include "gen/market_generator.h"
#include "market/metrics.h"
#include "sim/aggregation.h"
#include "sim/answers.h"
#include "util/stats.h"

namespace mbta {
namespace {

class DatasetTest : public ::testing::TestWithParam<const char*> {
 protected:
  LaborMarket MakeMarket() const {
    const std::string which = GetParam();
    if (which == "uniform") return GenerateMarket(UniformConfig(300, 300, 5));
    if (which == "zipf") return GenerateMarket(ZipfConfig(300, 300, 5));
    if (which == "mturk") return GenerateMarket(MTurkLikeConfig(200, 5));
    return GenerateMarket(UpworkLikeConfig(300, 5));
  }
};

TEST_P(DatasetTest, AllStandardSolversProduceFeasibleAssignments) {
  const LaborMarket m = MakeMarket();
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  for (const auto& solver :
       CreateStandardSolvers(ObjectiveKind::kSubmodular)) {
    const Assignment a = solver->Solve(p);
    EXPECT_TRUE(IsFeasible(m, a)) << solver->name();
  }
}

TEST_P(DatasetTest, MutualBenefitAwareSolversDominateBaselines) {
  const LaborMarket m = MakeMarket();
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const double greedy = obj.Value(GreedySolver().Solve(p));
  const double local = obj.Value(LocalSearchSolver().Solve(p));
  EXPECT_GE(greedy, obj.Value(RandomSolver(3).Solve(p)));
  EXPECT_GE(greedy, obj.Value(WorkerCentricSolver().Solve(p)) - 1e-9);
  EXPECT_GE(greedy, obj.Value(RequesterCentricSolver().Solve(p)) - 1e-9);
  EXPECT_GE(greedy, obj.Value(CreateSolver("matching")->Solve(p)) - 1e-9);
  EXPECT_GE(local + 1e-9, greedy);
}

TEST_P(DatasetTest, OneSidedBaselinesWinOnlyTheirOwnSide) {
  const LaborMarket m = MakeMarket();
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const AssignmentMetrics wc = Evaluate(obj, WorkerCentricSolver().Solve(p));
  const AssignmentMetrics rc =
      Evaluate(obj, RequesterCentricSolver().Solve(p));
  // Each one-sided policy is competitive with the other on its own side.
  // (Strict dominance is not guaranteed — both are myopic heuristics —
  // but a policy optimizing side X must not lose badly on X.)
  EXPECT_GE(wc.worker_benefit, 0.75 * rc.worker_benefit);
  EXPECT_GE(rc.requester_benefit, 0.75 * wc.requester_benefit);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetTest,
                         ::testing::Values("uniform", "zipf", "mturk",
                                           "upwork"));

TEST(IntegrationTest, AlphaSweepTracesParetoTradeoff) {
  const LaborMarket m = GenerateMarket(MTurkLikeConfig(200, 7));
  double prev_rb = -1.0, prev_wb = 1e18;
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const MbtaProblem p{
        &m, {.alpha = alpha, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const AssignmentMetrics metrics =
        Evaluate(obj, GreedySolver().Solve(p));
    // Raising alpha shifts weight to the requester side: requester benefit
    // must not drop and worker benefit must not rise (weak monotonicity,
    // small tolerance for greedy noise).
    EXPECT_GE(metrics.requester_benefit,
              prev_rb - 0.02 * std::abs(prev_rb));
    EXPECT_LE(metrics.worker_benefit, prev_wb + 0.02 * prev_wb);
    prev_rb = metrics.requester_benefit;
    prev_wb = metrics.worker_benefit;
  }
}

TEST(IntegrationTest, ExactFlowDominatesEveryHeuristicOnModular) {
  const LaborMarket m = GenerateMarket(UniformConfig(150, 150, 9));
  const MbtaProblem p{&m, {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const double exact = obj.Value(ExactFlowSolver().Solve(p));
  for (const auto& solver :
       CreateStandardSolvers(ObjectiveKind::kSubmodular)) {
    EXPECT_GE(exact + 1e-3, obj.Value(solver->Solve(p))) << solver->name();
  }
  // And greedy comes close (well above its 1/2 modular matroid bound).
  EXPECT_GE(obj.Value(GreedySolver().Solve(p)), 0.9 * exact);
}

TEST(IntegrationTest, BetterAssignmentYieldsBetterAnswerQuality) {
  // The requester-side story: quality-aware assignment (alpha high) beats
  // random assignment in downstream label accuracy after aggregation.
  const LaborMarket m = GenerateMarket(MTurkLikeConfig(300, 11));
  const MbtaProblem p{&m,
                      {.alpha = 0.9, .kind = ObjectiveKind::kSubmodular}};
  const Assignment greedy = GreedySolver().Solve(p);
  const Assignment random = RandomSolver(11).Solve(p);

  double greedy_acc = 0.0, random_acc = 0.0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    const AnswerSet gs = SimulateAnswers(m, greedy, 100 + run);
    const AnswerSet rs = SimulateAnswers(m, random, 100 + run);
    greedy_acc += LabelAccuracy(gs, MajorityVote().Aggregate(gs));
    random_acc += LabelAccuracy(rs, MajorityVote().Aggregate(rs));
  }
  EXPECT_GT(greedy_acc / kRuns, random_acc / kRuns - 0.01);
}

TEST(IntegrationTest, OnlineTwoPhaseBeatsPlainOnlineOnContestedMarkets) {
  // On the Upwork-like market (scarce, contested tasks) threshold
  // calibration should not collapse; both stay within a constant factor
  // of offline greedy, averaged over arrival orders.
  const LaborMarket m = GenerateMarket(UpworkLikeConfig(400, 13));
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const double offline = obj.Value(GreedySolver().Solve(p));
  ASSERT_GT(offline, 0.0);
  double online_sum = 0.0, two_phase_sum = 0.0;
  constexpr int kOrders = 5;
  for (int i = 0; i < kOrders; ++i) {
    const auto order = RandomArrivalOrder(m.NumWorkers(), 1000 + i);
    online_sum +=
        obj.Value(OnlineGreedySolver().SolveWithOrder(p, order));
    two_phase_sum +=
        obj.Value(TwoPhaseOnlineSolver().SolveWithOrder(p, order));
  }
  EXPECT_GT(online_sum / kOrders, 0.5 * offline);
  EXPECT_GT(two_phase_sum / kOrders, 0.4 * offline);
}

TEST(IntegrationTest, FairnessImprovesWithWorkerWeight) {
  // Lower alpha (more worker weight) should not reduce the Jain fairness
  // of worker benefits much; compare extremes with slack.
  const LaborMarket m = GenerateMarket(UpworkLikeConfig(300, 17));
  auto fairness_at = [&](double alpha) {
    const MbtaProblem p{
        &m, {.alpha = alpha, .kind = ObjectiveKind::kSubmodular}};
    const MutualBenefitObjective obj = p.MakeObjective();
    const AssignmentMetrics metrics =
        Evaluate(obj, GreedySolver().Solve(p));
    return JainFairnessIndex(metrics.per_worker_benefit);
  };
  EXPECT_GT(fairness_at(0.1), 0.0);
  EXPECT_GT(fairness_at(0.9), 0.0);
}

}  // namespace
}  // namespace mbta
