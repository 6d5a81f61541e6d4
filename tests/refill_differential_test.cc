// Differential test of GreedyRefill's compacting scan against the
// plain-scan refill it replaced (tests/reference_refill.h). Across seeded
// small markets — both objective kinds, fatigue below and at 1, tied
// benefits, capacities 0..6, edges added in shuffled order so same-worker
// runs break up, candidate lists with duplicates and chosen edges, and
// work gates tripping after k charges — both refills must commit the
// same edges in the same slot order, reach the same value bits, report
// the same RepairStats and gate work, and evaluate the same gains in the
// same order, each bit-equal to ObjectiveState::MarginalGain.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/repair.h"
#include "tests/reference_refill.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace mbta {
namespace {

constexpr int kMarkets = 1200;
// Gate budgets for half of the markets: a gate tripping after k charges.
constexpr std::uint64_t kBudgets[] = {0, 1, 2, 3, 5, 8, 13};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBounded(i)]);
  }
}

/// A value from a small pool (ties likely) or a continuous draw.
double Draw(Rng& rng, double lo, double hi, bool tied) {
  if (tied) {
    const double pool[] = {lo, (lo + hi) / 2, hi};
    return pool[rng.NextBounded(3)];
  }
  return rng.NextDouble(lo, hi);
}

LaborMarket RandomMarket(Rng& rng) {
  const std::size_t nw = 1 + rng.NextBounded(10);
  const std::size_t nt = 1 + rng.NextBounded(10);
  const bool tied = rng.NextBool(0.5);
  const bool unit_fatigue = rng.NextBool(0.3);
  LaborMarketBuilder b;
  for (std::size_t i = 0; i < nw; ++i) {
    Worker w;
    w.capacity = static_cast<int>(rng.NextBounded(7));
    w.fatigue = unit_fatigue ? 1.0 : Draw(rng, 0.3, 0.95, tied);
    b.AddWorker(w);
  }
  for (std::size_t i = 0; i < nt; ++i) {
    Task t;
    t.capacity = static_cast<int>(rng.NextBounded(7));
    t.value = Draw(rng, 0.5, 3.0, tied);
    b.AddTask(t);
  }
  std::vector<std::pair<WorkerId, TaskId>> pairs;
  for (WorkerId w = 0; w < nw; ++w) {
    for (TaskId t = 0; t < nt; ++t) {
      if (rng.NextBool(0.7)) pairs.emplace_back(w, t);
    }
  }
  Shuffle(pairs, rng);
  for (const auto& [w, t] : pairs) {
    b.AddEdge(w, t, {Draw(rng, 0.5, 0.99, tied), Draw(rng, 0.0, 2.0, tied)});
  }
  return b.Build();
}

struct RefillRun {
  RepairStats stats;
  std::vector<RefillEvaluation> evaluations;
};

/// Seeds `state` with a random feasible set of edges.
void Seed(ObjectiveState& state, const std::vector<EdgeId>& picks) {
  for (EdgeId e : picks) {
    if (state.CanAdd(e)) state.Add(e);
  }
}

void ExpectSameState(const ObjectiveState& a, const ObjectiveState& b,
                     const LaborMarket& market, const std::string& where) {
  EXPECT_EQ(a.ToAssignment().edges, b.ToAssignment().edges) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value()),
            std::bit_cast<std::uint64_t>(b.value()))
      << where;
  for (WorkerId w = 0; w < market.NumWorkers(); ++w) {
    const auto x = a.WorkerEdges(w);
    const auto y = b.WorkerEdges(w);
    EXPECT_EQ(std::vector<EdgeId>(x.begin(), x.end()),
              std::vector<EdgeId>(y.begin(), y.end()))
        << where << " worker " << w;
  }
  for (TaskId t = 0; t < market.NumTasks(); ++t) {
    const auto x = a.TaskEdges(t);
    const auto y = b.TaskEdges(t);
    EXPECT_EQ(std::vector<EdgeId>(x.begin(), x.end()),
              std::vector<EdgeId>(y.begin(), y.end()))
        << where << " task " << t;
  }
}

TEST(RefillDifferentialTest, CompactingScanMatchesPlainScan) {
  std::size_t evaluations = 0;
  std::size_t tripped = 0;
  for (int seed = 1; seed <= kMarkets; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const LaborMarket market = RandomMarket(rng);
    ObjectiveParams params;
    params.alpha = rng.NextDouble();
    params.kind = rng.NextBool(0.5) ? ObjectiveKind::kSubmodular
                                    : ObjectiveKind::kModular;
    const MutualBenefitObjective objective(&market, params);
    const std::size_t num_edges = market.NumEdges();
    if (num_edges == 0) continue;

    std::vector<EdgeId> seed_picks;
    for (EdgeId e = 0; e < num_edges; ++e) {
      if (rng.NextBool(0.25)) seed_picks.push_back(e);
    }
    Shuffle(seed_picks, rng);
    // Candidates: a random multiset of edges (duplicates and chosen
    // edges included), sorted or left shuffled.
    std::vector<EdgeId> candidates;
    const std::size_t count = rng.NextBounded(2 * num_edges + 1);
    for (std::size_t i = 0; i < count; ++i) {
      candidates.push_back(static_cast<EdgeId>(rng.NextBounded(num_edges)));
    }
    if (rng.NextBool(0.5)) std::sort(candidates.begin(), candidates.end());
    // Two draws with no effect on the refill, made so that every seed
    // keeps the market, candidate list and budget it has always had.
    if (rng.NextBool(0.3)) rng.NextBounded(market.NumWorkers());
    if (rng.NextBool(0.3)) rng.NextBounded(market.NumTasks());
    const std::uint64_t budget =
        rng.NextBool(0.5) ? DeadlineBudget::kUnlimitedWork
                          : kBudgets[rng.NextBounded(std::size(kBudgets))];

    ObjectiveState reference_state(&objective);
    ObjectiveState state(&objective);
    Seed(reference_state, seed_picks);
    Seed(state, seed_picks);
    RefillRun reference;
    RefillRun run;
    DeadlineBudget limit;
    limit.max_work = budget;
    DeadlineGate reference_gate(limit);
    DeadlineGate gate(limit);
    ReferenceRefill(reference_state, candidates, &reference.stats,
                    &reference_gate, &reference.evaluations);
    GreedyRefill(state, candidates, &run.stats, &gate, &run.evaluations);

    const std::string where = "seed " + std::to_string(seed);
    ExpectSameState(reference_state, state, market, where);
    EXPECT_EQ(run.stats.gain_evaluations, reference.stats.gain_evaluations)
        << where;
    EXPECT_EQ(run.stats.edges_added, reference.stats.edges_added) << where;
    EXPECT_EQ(run.stats.edges_dropped, reference.stats.edges_dropped)
        << where;
    EXPECT_EQ(gate.work_used(), reference_gate.work_used()) << where;
    EXPECT_EQ(gate.expired(), reference_gate.expired()) << where;
    ASSERT_EQ(run.evaluations.size(), reference.evaluations.size()) << where;
    for (std::size_t i = 0; i < run.evaluations.size(); ++i) {
      // The reference's gains are MarginalGain's, by construction.
      EXPECT_EQ(run.evaluations[i].edge, reference.evaluations[i].edge)
          << where << " evaluation " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run.evaluations[i].gain),
                std::bit_cast<std::uint64_t>(reference.evaluations[i].gain))
          << where << " evaluation " << i;
    }
    evaluations += run.evaluations.size();
    if (gate.expired()) ++tripped;
  }
  // The sweep must exercise real scans and real gate trips.
  EXPECT_GT(evaluations, 10'000u);
  EXPECT_GT(tripped, 200u);
  RecordProperty("evaluations", std::to_string(evaluations));
  RecordProperty("tripped", std::to_string(tripped));
}

}  // namespace
}  // namespace mbta
