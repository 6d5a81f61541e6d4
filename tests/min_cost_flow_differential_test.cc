/// MinCostFlow (CSR arc store, level-bitset Dijkstra frontier) against
/// ReferenceMinCostFlow, a copy of the binary-heap engine it replaced.
/// The new frontier must pop nodes in exactly the old (distance, node id)
/// order, so on every network both engines must agree on the Result, on
/// every Stats counter and on the flow of every arc — also when a
/// deadline gate stops them part-way.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/min_cost_flow.h"
#include "tests/reference_min_cost_flow.h"
#include "util/deadline.h"
#include "util/distribution.h"
#include "util/rng.h"

namespace mbta {
namespace {

struct NetworkArc {
  std::size_t from;
  std::size_t to;
  std::int64_t capacity;
  std::int64_t cost;
};

struct Network {
  std::size_t num_nodes = 0;
  std::size_t source = 0;
  std::size_t sink = 0;
  std::vector<NetworkArc> arcs;
  bool negative_only = false;
  std::int64_t flow_limit = 0;
};

/// Cost ranges from tie-heavy to nearly distinct.
constexpr std::int64_t kCostRanges[] = {3, 20, 1000000};

/// A random network on shuffled node ids. Negative costs only appear on
/// arcs that run forward in a random topological order, so no cycle is
/// negative; networks without negative costs get arcs in any direction.
Network RandomNetwork(Rng& rng) {
  Network net;
  net.num_nodes = 2 + rng.NextBounded(39);
  const std::int64_t range = kCostRanges[rng.NextBounded(3)];
  const bool negative = rng.NextBool(0.5);
  std::vector<std::size_t> order(net.num_nodes);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(rng, order);
  net.source = order.front();
  net.sink = order.back();
  const std::size_t num_arcs = rng.NextBounded(4 * net.num_nodes + 1);
  for (std::size_t k = 0; k < num_arcs; ++k) {
    std::size_t a = rng.NextBounded(net.num_nodes);
    std::size_t b = rng.NextBounded(net.num_nodes);
    if (a == b) continue;
    if (negative && a > b) std::swap(a, b);
    const std::int64_t cost =
        negative ? rng.NextInt(-range, range) : rng.NextInt(0, range);
    net.arcs.push_back({order[a], order[b],
                        static_cast<std::int64_t>(rng.NextBounded(6)),
                        cost});
  }
  return net;
}

/// The modular-assignment shape the solvers build: source → workers →
/// tasks → sink with capacities > 1 on the side arcs and profit arcs of
/// cost -benefit in between.
Network RandomMarket(Rng& rng) {
  Network net;
  const std::size_t workers = 1 + rng.NextBounded(20);
  const std::size_t tasks = 1 + rng.NextBounded(20);
  const std::int64_t range = kCostRanges[rng.NextBounded(3)];
  net.num_nodes = workers + tasks + 2;
  net.source = 0;
  net.sink = workers + tasks + 1;
  for (std::size_t w = 0; w < workers; ++w) {
    net.arcs.push_back({net.source, 1 + w,
                        static_cast<std::int64_t>(1 + rng.NextBounded(3)),
                        0});
  }
  for (std::size_t t = 0; t < tasks; ++t) {
    net.arcs.push_back({1 + workers + t, net.sink,
                        static_cast<std::int64_t>(1 + rng.NextBounded(3)),
                        0});
  }
  const double density = 0.1 + 0.5 * rng.NextDouble();
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t t = 0; t < tasks; ++t) {
      if (!rng.NextBool(density)) continue;
      net.arcs.push_back(
          {1 + w, 1 + workers + t, 1, -rng.NextInt(0, range)});
    }
  }
  return net;
}

Network RandomCase(std::uint64_t seed) {
  Rng rng(seed);
  Network net = rng.NextBool(0.5) ? RandomNetwork(rng) : RandomMarket(rng);
  net.negative_only = rng.NextBool(0.5);
  switch (rng.NextBounded(3)) {
    case 0:
      net.flow_limit = rng.NextInt(1, 3);
      break;
    case 1:
      net.flow_limit = rng.NextInt(1, 30);
      break;
    default:
      net.flow_limit = std::int64_t{1} << 40;
      break;
  }
  return net;
}

/// Solves `net` on both engines (each behind its own gate allowing
/// `max_work` charges when given) and asserts identical outcomes.
void ExpectIdentical(const Network& net, std::uint64_t max_work,
                     const std::string& label) {
  SCOPED_TRACE(label);
  MinCostFlow fast(net.num_nodes);
  ReferenceMinCostFlow ref(net.num_nodes);
  DeadlineGate fast_gate(DeadlineBudget{.max_work = max_work});
  DeadlineGate ref_gate(DeadlineBudget{.max_work = max_work});
  fast.SetDeadlineGate(&fast_gate);
  ref.SetDeadlineGate(&ref_gate);
  std::vector<MinCostFlow::ArcId> ids;
  for (const NetworkArc& a : net.arcs) {
    ids.push_back(fast.AddArc(a.from, a.to, a.capacity, a.cost));
    ASSERT_EQ(ref.AddArc(a.from, a.to, a.capacity, a.cost), ids.back());
  }
  const MinCostFlow::Result got =
      net.negative_only ? fast.SolveNegativeOnly(net.source, net.sink)
                        : fast.Solve(net.source, net.sink, net.flow_limit);
  const MinCostFlow::Result want =
      net.negative_only ? ref.SolveNegativeOnly(net.source, net.sink)
                        : ref.Solve(net.source, net.sink, net.flow_limit);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(fast.stats().augmenting_paths, ref.stats().augmenting_paths);
  EXPECT_EQ(fast.stats().dijkstra_runs, ref.stats().dijkstra_runs);
  EXPECT_EQ(fast.stats().arcs_scanned, ref.stats().arcs_scanned);
  EXPECT_EQ(fast_gate.work_used(), ref_gate.work_used());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(fast.Flow(ids[k]), ref.Flow(ids[k])) << "arc " << k;
  }
}

constexpr int kShards = 12;
constexpr int kNetworksPerShard = 100;

class MinCostFlowDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MinCostFlowDifferentialTest, MatchesReferenceEngine) {
  for (int i = 0; i < kNetworksPerShard; ++i) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam() * kNetworksPerShard + i);
    ExpectIdentical(RandomCase(seed), DeadlineBudget::kUnlimitedWork,
                    "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST_P(MinCostFlowDifferentialTest, PartialFlowsMatchUnderDeadline) {
  // The gate is charged once per augmenting-path attempt, so a budget of
  // k stops both engines after k searches.
  for (int i = 0; i < kNetworksPerShard / 4; ++i) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam() * kNetworksPerShard + i);
    const Network net = RandomCase(seed);
    for (std::uint64_t k : {0, 1, 2, 3, 5, 8}) {
      ExpectIdentical(net, k,
                      "seed " + std::to_string(seed) + " budget " +
                          std::to_string(k));
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MinCostFlowDifferentialTest,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace mbta
