#include "flow/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tests/hungarian.h"
#include "util/rng.h"

namespace mbta {
namespace {

/// Max flow through the one flow engine: zero-cost arcs, no flow limit.
std::int64_t MaxFlowValue(MinCostFlow& mcf, std::size_t s, std::size_t t) {
  return mcf.Solve(s, t, std::numeric_limits<std::int64_t>::max()).flow;
}

TEST(MinCostFlowTest, SingleArc) {
  MinCostFlow mcf(2);
  const auto a = mcf.AddArc(0, 1, 5, 3);
  const auto r = mcf.Solve(0, 1, 100);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.cost, 15);
  EXPECT_EQ(mcf.Flow(a), 5);
}

TEST(MinCostFlowTest, FlowLimitRespected) {
  MinCostFlow mcf(2);
  mcf.AddArc(0, 1, 10, 2);
  const auto r = mcf.Solve(0, 1, 4);
  EXPECT_EQ(r.flow, 4);
  EXPECT_EQ(r.cost, 8);
}

TEST(MinCostFlowTest, PrefersCheaperPath) {
  MinCostFlow mcf(4);
  const auto cheap1 = mcf.AddArc(0, 1, 1, 1);
  const auto cheap2 = mcf.AddArc(1, 3, 1, 1);
  const auto dear1 = mcf.AddArc(0, 2, 1, 5);
  const auto dear2 = mcf.AddArc(2, 3, 1, 5);
  const auto r = mcf.Solve(0, 3, 1);
  EXPECT_EQ(r.flow, 1);
  EXPECT_EQ(r.cost, 2);
  EXPECT_EQ(mcf.Flow(cheap1), 1);
  EXPECT_EQ(mcf.Flow(cheap2), 1);
  EXPECT_EQ(mcf.Flow(dear1), 0);
  EXPECT_EQ(mcf.Flow(dear2), 0);
}

TEST(MinCostFlowTest, SpillsToExpensivePathWhenCheapSaturates) {
  MinCostFlow mcf(4);
  mcf.AddArc(0, 1, 1, 1);
  mcf.AddArc(1, 3, 1, 1);
  mcf.AddArc(0, 2, 1, 5);
  mcf.AddArc(2, 3, 1, 5);
  const auto r = mcf.Solve(0, 3, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 12);
}

TEST(MinCostFlowTest, NegativeCostArcsHandled) {
  // Bellman–Ford potential initialization must absorb the negative cost.
  MinCostFlow mcf(3);
  mcf.AddArc(0, 1, 2, -4);
  mcf.AddArc(1, 2, 2, 1);
  const auto r = mcf.Solve(0, 2, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, -6);
}

TEST(MinCostFlowTest, SolveNegativeOnlyStopsAtNonnegative) {
  // Two parallel paths: one profitable (cost -3), one costly (+2).
  MinCostFlow mcf(4);
  const auto good = mcf.AddArc(0, 1, 1, -3);
  mcf.AddArc(1, 3, 1, 0);
  const auto bad = mcf.AddArc(0, 2, 1, 2);
  mcf.AddArc(2, 3, 1, 0);
  const auto r = mcf.SolveNegativeOnly(0, 3);
  EXPECT_EQ(r.flow, 1);  // only the profitable unit ships
  EXPECT_EQ(r.cost, -3);
  EXPECT_EQ(mcf.Flow(good), 1);
  EXPECT_EQ(mcf.Flow(bad), 0);
}

TEST(MinCostFlowTest, SolveNegativeOnlyZeroWhenAllCostly) {
  MinCostFlow mcf(2);
  mcf.AddArc(0, 1, 5, 1);
  const auto r = mcf.SolveNegativeOnly(0, 1);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(MinCostFlowTest, DisconnectedSinkGivesZero) {
  MinCostFlow mcf(3);
  mcf.AddArc(0, 1, 4, 1);
  const auto r = mcf.Solve(0, 2, 10);
  EXPECT_EQ(r.flow, 0);
}

class RandomAssignmentCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssignmentCrossCheck, AgreesWithHungarianOnPerfectMatching) {
  // Min-cost perfect matching n x n: flow formulation vs Kuhn–Munkres.
  Rng rng(GetParam() * 7 + 1234);
  const std::size_t n = 2 + rng.NextBounded(7);
  std::vector<double> cost(n * n);
  std::vector<std::int64_t> icost(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    icost[i] = rng.NextInt(0, 50);
    cost[i] = static_cast<double>(icost[i]);
  }

  MinCostFlow mcf(2 * n + 2);
  const std::size_t src = 2 * n, snk = 2 * n + 1;
  for (std::size_t i = 0; i < n; ++i) mcf.AddArc(src, i, 1, 0);
  for (std::size_t j = 0; j < n; ++j) mcf.AddArc(n + j, snk, 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      mcf.AddArc(i, n + j, 1, icost[i * n + j]);
    }
  }
  const auto r = mcf.Solve(src, snk, static_cast<std::int64_t>(n));
  ASSERT_EQ(r.flow, static_cast<std::int64_t>(n));

  const AssignmentResult h = MinCostAssignment(cost, n, n);
  EXPECT_DOUBLE_EQ(static_cast<double>(r.cost), h.total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssignmentCrossCheck,
                         ::testing::Range(0, 30));

TEST(MinCostFlowDeathTest, SolveTwiceAborts) {
  MinCostFlow mcf(2);
  mcf.AddArc(0, 1, 1, 1);
  mcf.Solve(0, 1, 1);
  EXPECT_DEATH(mcf.Solve(0, 1, 1), "MBTA_CHECK");
}

TEST(MinCostFlowDeathTest, NegativeCapacityAborts) {
  MinCostFlow mcf(2);
  EXPECT_DEATH(mcf.AddArc(0, 1, -1, 0), "MBTA_CHECK");
}

// Max-flow contract of the engine: with zero costs and no flow limit,
// Solve ships a maximum flow.

/// Reference implementation: Edmonds–Karp on an adjacency matrix.
std::int64_t ReferenceMaxFlow(std::vector<std::vector<std::int64_t>> cap,
                              std::size_t s, std::size_t t) {
  const std::size_t n = cap.size();
  std::int64_t flow = 0;
  for (;;) {
    std::vector<int> parent(n, -1);
    parent[s] = static_cast<int>(s);
    std::queue<std::size_t> q;
    q.push(s);
    while (!q.empty() && parent[t] < 0) {
      const std::size_t u = q.front();
      q.pop();
      for (std::size_t v = 0; v < n; ++v) {
        if (cap[u][v] > 0 && parent[v] < 0) {
          parent[v] = static_cast<int>(u);
          q.push(v);
        }
      }
    }
    if (parent[t] < 0) break;
    std::int64_t push = INT64_MAX;
    for (std::size_t v = t; v != s; v = parent[v]) {
      push = std::min(push, cap[parent[v]][v]);
    }
    for (std::size_t v = t; v != s; v = parent[v]) {
      cap[parent[v]][v] -= push;
      cap[v][parent[v]] += push;
    }
    flow += push;
  }
  return flow;
}

TEST(MaxFlowTest, SingleArc) {
  MinCostFlow mf(2);
  const auto a = mf.AddArc(0, 1, 5, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, 1), 5);
  EXPECT_EQ(mf.Flow(a), 5);
}

TEST(MaxFlowTest, NoPathGivesZero) {
  MinCostFlow mf(3);
  mf.AddArc(0, 1, 10, 0);  // node 2 disconnected
  EXPECT_EQ(MaxFlowValue(mf, 0, 2), 0);
}

TEST(MaxFlowTest, SeriesBottleneck) {
  MinCostFlow mf(3);
  mf.AddArc(0, 1, 10, 0);
  mf.AddArc(1, 2, 3, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, 2), 3);
}

TEST(MaxFlowTest, ParallelArcsAdd) {
  MinCostFlow mf(2);
  mf.AddArc(0, 1, 2, 0);
  mf.AddArc(0, 1, 3, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, 1), 5);
}

TEST(MaxFlowTest, ClassicDiamond) {
  // CLRS-style network with a cross arc.
  MinCostFlow mf(4);
  mf.AddArc(0, 1, 3, 0);
  mf.AddArc(0, 2, 2, 0);
  mf.AddArc(1, 2, 1, 0);
  mf.AddArc(1, 3, 2, 0);
  mf.AddArc(2, 3, 3, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, 3), 5);
}

TEST(MaxFlowTest, ZeroCapacityArcCarriesNothing) {
  MinCostFlow mf(2);
  const auto a = mf.AddArc(0, 1, 0, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, 1), 0);
  EXPECT_EQ(mf.Flow(a), 0);
}

TEST(MaxFlowTest, AddNodeExtendsGraph) {
  MinCostFlow mf(1);
  const std::size_t mid = mf.AddNode();
  const std::size_t sink = mf.AddNode();
  mf.AddArc(0, mid, 4, 0);
  mf.AddArc(mid, sink, 2, 0);
  EXPECT_EQ(MaxFlowValue(mf, 0, sink), 2);
  EXPECT_EQ(mf.num_nodes(), 3u);
}

TEST(MaxFlowTest, FlowConservationHolds) {
  MinCostFlow mf(5);
  std::vector<MinCostFlow::ArcId> arcs;
  std::vector<std::tuple<std::size_t, std::size_t>> ends = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}, {3, 4}, {2, 4}};
  for (auto [u, v] : ends) arcs.push_back(mf.AddArc(u, v, 3, 0));
  MaxFlowValue(mf, 0, 4);
  std::vector<std::int64_t> net(5, 0);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto [u, v] = ends[i];
    const std::int64_t f = mf.Flow(arcs[i]);
    EXPECT_GE(f, 0);
    EXPECT_LE(f, 3);
    net[u] -= f;
    net[v] += f;
  }
  EXPECT_EQ(net[1], 0);
  EXPECT_EQ(net[2], 0);
  EXPECT_EQ(net[3], 0);
  EXPECT_EQ(net[0], -net[4]);
}

class RandomMaxFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaxFlowTest, MatchesEdmondsKarp) {
  Rng rng(GetParam() * 7919 + 3);
  const std::size_t n = 2 + rng.NextBounded(8);
  std::vector<std::vector<std::int64_t>> cap(
      n, std::vector<std::int64_t>(n, 0));
  MinCostFlow mf(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.4)) {
        const std::int64_t c = static_cast<std::int64_t>(rng.NextBounded(10));
        cap[u][v] += c;
        mf.AddArc(u, v, c, 0);
      }
    }
  }
  EXPECT_EQ(MaxFlowValue(mf, 0, n - 1), ReferenceMaxFlow(cap, 0, n - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaxFlowTest, ::testing::Range(0, 30));

/// Reference maximum bipartite matching: Kuhn's augmenting paths.
bool KuhnAugment(const std::vector<std::vector<std::size_t>>& adj,
                 std::size_t l, std::vector<int>& right_match,
                 std::vector<bool>& seen) {
  for (std::size_t r : adj[l]) {
    if (seen[r]) continue;
    seen[r] = true;
    if (right_match[r] < 0 ||
        KuhnAugment(adj, static_cast<std::size_t>(right_match[r]),
                    right_match, seen)) {
      right_match[r] = static_cast<int>(l);
      return true;
    }
  }
  return false;
}

class RandomMatchingTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMatchingTest, SizeAgreesWithMaxFlow) {
  Rng rng(GetParam() * 911 + 5);
  const std::size_t nl = 1 + rng.NextBounded(15);
  const std::size_t nr = 1 + rng.NextBounded(15);
  std::vector<std::vector<std::size_t>> adj(nl);
  MinCostFlow mf(nl + nr + 2);
  const std::size_t src = nl + nr, snk = nl + nr + 1;
  for (std::size_t l = 0; l < nl; ++l) mf.AddArc(src, l, 1, 0);
  for (std::size_t r = 0; r < nr; ++r) mf.AddArc(nl + r, snk, 1, 0);
  for (std::size_t l = 0; l < nl; ++l) {
    for (std::size_t r = 0; r < nr; ++r) {
      if (rng.NextBool(0.25)) {
        adj[l].push_back(r);
        mf.AddArc(l, nl + r, 1, 0);
      }
    }
  }
  std::vector<int> right_match(nr, -1);
  std::int64_t size = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    std::vector<bool> seen(nr, false);
    if (KuhnAugment(adj, l, right_match, seen)) ++size;
  }
  EXPECT_EQ(size, MaxFlowValue(mf, src, snk));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatchingTest, ::testing::Range(0, 30));

TEST(MaxFlowDeathTest, SolveTwiceAborts) {
  MinCostFlow mf(2);
  mf.AddArc(0, 1, 1, 0);
  MaxFlowValue(mf, 0, 1);
  EXPECT_DEATH(MaxFlowValue(mf, 0, 1), "MBTA_CHECK");
}

TEST(MaxFlowDeathTest, NegativeCapacityAborts) {
  MinCostFlow mf(2);
  EXPECT_DEATH(mf.AddArc(0, 1, -1, 0), "MBTA_CHECK");
}

}  // namespace
}  // namespace mbta
