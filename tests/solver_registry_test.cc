/// The solver registry: one table names the line-up, builds each solver
/// by name, and parses fallback-chain specs. Also pins that `matching`
/// is exact flow with every capacity set to one.

#include "core/solver_registry.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/market_generator.h"
#include "tests/test_markets.h"
#include "util/rng.h"

namespace mbta {
namespace {

TEST(SolverRegistryTest, NamesAreUniqueAndBuildTheirSolver) {
  const LaborMarket market = GenerateMarket(UniformConfig(10, 10, 1));
  const std::vector<std::string> names = SolverNames();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const std::string& name : names) {
    const auto solver = CreateSolver(name, {.market = &market});
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
    EXPECT_EQ(IsModularOnly(name), name == "exact-flow") << name;
  }
  // The standard comparison line-up is the table's first nine rows.
  const std::vector<std::string> kStandard = {
      "exact-flow", "greedy", "threshold", "local-search", "matching",
      "stable-da", "worker-centric", "requester-centric", "random"};
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.begin() + 9),
            kStandard);
  std::vector<std::string> standard;
  for (const auto& solver : CreateStandardSolvers(ObjectiveKind::kModular)) {
    standard.push_back(solver->name());
  }
  EXPECT_EQ(standard, kStandard);
}

TEST(SolverRegistryTest, UnknownNameBuildsNothing) {
  EXPECT_EQ(CreateSolver("no-such-solver"), nullptr);
  EXPECT_FALSE(IsModularOnly("no-such-solver"));
  // budgeted-greedy derives its budgets from the market it is given.
  EXPECT_EQ(CreateSolver("budgeted-greedy"), nullptr);
}

TEST(SolverRegistryTest, StandardChainHasThreeStagesAndAnUnbudgetedFloor) {
  const auto chain =
      CreateFallbackChain(kStandardFallbackChain, {.max_work = 100});
  ASSERT_NE(chain, nullptr);
  ASSERT_EQ(chain->stages().size(), 3u);
  EXPECT_EQ(chain->stages()[0].solver->name(), "exact-flow");
  EXPECT_EQ(chain->stages()[1].budget.max_work, 100u);
  EXPECT_TRUE(chain->stages()[2].budget.unlimited());
}

TEST(SolverRegistryTest, MalformedChainSpecsAreRejected) {
  for (const char* spec : {"", "greedy>", ">greedy", "nope>greedy",
                           "greedy > worker-centric"}) {
    EXPECT_EQ(CreateFallbackChain(spec), nullptr) << "'" << spec << "'";
  }
}

/// `market` with every worker and task capacity set to one.
LaborMarket UnitCapacityCopy(const LaborMarket& market) {
  LaborMarketBuilder builder;
  for (Worker w : market.workers()) {
    w.capacity = 1;
    builder.AddWorker(w);
  }
  for (Task t : market.tasks()) {
    t.capacity = 1;
    builder.AddTask(t);
  }
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    builder.AddEdge(market.EdgeWorker(e), market.EdgeTask(e),
                    {market.Quality(e), market.WorkerBenefit(e)});
  }
  return builder.Build();
}

class MatchingIsUnitCapacityFlowTest : public ::testing::TestWithParam<int> {
};

TEST_P(MatchingIsUnitCapacityFlowTest, SameEdgesAndFlowCounters) {
  const std::uint64_t seed = 0x3A7C0000ULL + GetParam();
  Rng rng(seed);
  const LaborMarket market =
      GetParam() % 2 == 0 ? GenerateMarket(MTurkLikeConfig(30, seed))
                          : RandomTestMarket(rng, 30, 30, 0.3);
  const ObjectiveParams objective{.alpha = 0.25 * (GetParam() % 5),
                                  .kind = ObjectiveKind::kModular};
  SCOPED_TRACE("seed " + std::to_string(seed));

  const LaborMarket unit = UnitCapacityCopy(market);
  SolveInfo matching_info, flow_info;
  const Assignment matching = CreateSolver("matching")->Solve(
      MbtaProblem{&market, objective}, &matching_info);
  const Assignment flow = CreateSolver("exact-flow")->Solve(
      MbtaProblem{&unit, objective}, &flow_info);

  EXPECT_EQ(matching.edges, flow.edges);
  EXPECT_EQ(matching_info.gain_evaluations, flow_info.gain_evaluations);
  for (const char* counter :
       {"flow/augmenting_paths", "flow/dijkstra_runs", "flow/arcs_scanned"}) {
    EXPECT_EQ(matching_info.counters.Value(counter),
              flow_info.counters.Value(counter))
        << counter;
  }
}

INSTANTIATE_TEST_SUITE_P(Markets, MatchingIsUnitCapacityFlowTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace mbta
