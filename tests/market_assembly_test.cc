// Differential test of the service's epoch market, assembled from its
// skill-match cache, against BuildMarket — the from-scratch all-pairs
// build it replaced. Seeded durable streams mix arrivals with skills,
// payment patches crossing the workers' unit costs both ways, departures
// from the middle of both lists, a departed id re-arriving, capacity
// patches to 0, stale deltas, and a restart from snapshot plus WAL in
// mid-stream. After every epoch (live or replayed) the assembled market
// must equal BuildMarket(state) edge for edge: ids, endpoints, and the
// quality, benefit and task-value bits. The per-epoch SkillMatch count
// pins the rebuild at O(delta): arrivals × other side, nothing for
// patches and departures, and |W|·|T| only on the first epoch a service
// runs.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/market_service.h"
#include "util/rng.h"

namespace mbta {
namespace {

constexpr std::size_t kSkillDims = 3;

struct Op {
  enum Kind { kSubmit, kEpoch, kRestart } kind = kSubmit;
  Delta delta;
};

SkillVector RandomSkills(Rng& rng) {
  SkillVector s(kSkillDims);
  // Sparse profiles, so the default 0.2 threshold rejects some pairs.
  for (double& v : s) v = rng.NextBool(0.5) ? 0.0 : rng.NextDouble();
  return s;
}

std::vector<Op> MakeStream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<std::uint64_t> workers;
  std::vector<std::uint64_t> tasks;
  std::vector<std::uint64_t> departed_workers;
  std::uint64_t next_worker = 1;
  std::uint64_t next_task = 1000;
  const int count = 120 + static_cast<int>(rng.NextBounded(80));
  for (int i = 0; i < count; ++i) {
    Op op;
    const double roll = rng.NextDouble();
    if (roll < 0.15 && i > 0) {
      op.kind = Op::kEpoch;
      ops.push_back(op);
      continue;
    }
    if (roll < 0.17 && i > 0) {
      op.kind = Op::kRestart;
      ops.push_back(op);
      continue;
    }
    Delta& d = op.delta;
    const double kind = rng.NextDouble();
    if (kind < 0.22 || workers.empty()) {
      d.kind = DeltaKind::kAddWorker;
      // A departed id re-arrives now and then.
      if (!departed_workers.empty() && rng.NextBool(0.2)) {
        d.id = departed_workers.back();
        departed_workers.pop_back();
      } else {
        d.id = next_worker++;
      }
      d.worker.capacity = static_cast<int>(rng.NextBounded(4));
      d.worker.unit_cost = rng.NextDouble(0.2, 0.8);
      d.worker.reliability = rng.NextDouble(0.5, 1.0);
      d.worker.skills = RandomSkills(rng);
      workers.push_back(d.id);
    } else if (kind < 0.44 || tasks.empty()) {
      d.kind = DeltaKind::kAddTask;
      d.id = next_task++;
      d.task.capacity = static_cast<int>(rng.NextBounded(3));
      d.task.payment = rng.NextDouble(0.0, 1.0);
      d.task.value = rng.NextDouble(0.5, 3.0);
      d.task.difficulty = rng.NextDouble(0.0, 0.6);
      d.task.required_skills = RandomSkills(rng);
      tasks.push_back(d.id);
    } else if (kind < 0.52) {
      // Departure from anywhere in the list, often the middle.
      const std::size_t at = rng.NextBounded(workers.size());
      d.kind = DeltaKind::kRemoveWorker;
      d.id = workers[at];
      departed_workers.push_back(d.id);
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.60) {
      const std::size_t at = rng.NextBounded(tasks.size());
      d.kind = DeltaKind::kRemoveTask;
      d.id = tasks[at];
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.78) {
      // Payments in [0, 1] against costs in [0.2, 0.8]: patches cross a
      // worker's cost in both directions.
      d.kind = DeltaKind::kTaskPayment;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.0, 1.0);
    } else if (kind < 0.84) {
      d.kind = DeltaKind::kTaskValue;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.0, 3.0);
    } else if (kind < 0.90) {
      d.kind = DeltaKind::kWorkerCapacity;
      d.id = workers[rng.NextBounded(workers.size())];
      d.capacity = static_cast<int>(rng.NextBounded(3));  // 0 included
    } else if (kind < 0.95) {
      d.kind = DeltaKind::kTaskCapacity;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.capacity = static_cast<int>(rng.NextBounded(3));
    } else {
      // Stale: a patch or departure aimed at an id that is gone (or
      // never was) by the time its epoch applies it.
      d.kind = rng.NextBool(0.5) ? DeltaKind::kWorkerCapacity
                                 : DeltaKind::kRemoveTask;
      d.id = rng.NextBool(0.5) && !departed_workers.empty()
                 ? departed_workers.front()
                 : 999'999;
      d.capacity = 1;
    }
    ops.push_back(op);
  }
  Op flush;
  flush.kind = Op::kEpoch;
  ops.push_back(flush);
  return ops;
}

/// Edge-for-edge equality with the from-scratch build.
void ExpectSameMarket(const LaborMarket& got, const LaborMarket& want,
                      const std::string& where) {
  ASSERT_EQ(got.NumWorkers(), want.NumWorkers()) << where;
  ASSERT_EQ(got.NumTasks(), want.NumTasks()) << where;
  ASSERT_EQ(got.NumEdges(), want.NumEdges()) << where;
  EXPECT_EQ(got.name(), want.name()) << where;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (EdgeId e = 0; e < got.NumEdges(); ++e) {
    ASSERT_EQ(got.EdgeWorker(e), want.EdgeWorker(e))
        << where << " edge " << e;
    ASSERT_EQ(got.EdgeTask(e), want.EdgeTask(e)) << where << " edge " << e;
    ASSERT_EQ(bits(got.Quality(e)), bits(want.Quality(e)))
        << where << " edge " << e;
    ASSERT_EQ(bits(got.WorkerBenefit(e)), bits(want.WorkerBenefit(e)))
        << where << " edge " << e;
    ASSERT_EQ(bits(got.EdgeTaskValues()[e]), bits(want.EdgeTaskValues()[e]))
        << where << " edge " << e;
  }
}

/// SkillMatch calls the next epoch of `service` must make: each consumed
/// arrival that applies matches against the other side as it stands.
std::uint64_t ExpectedMatches(const MarketService& service,
                              std::size_t epoch_batch, bool first_epoch) {
  ServiceState state = service.state();
  const std::size_t consumed = std::min(state.pending.size(), epoch_batch);
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i < consumed; ++i) {
    const Delta& d = state.pending[i];
    if (!ApplyDelta(state, d)) continue;
    if (d.kind == DeltaKind::kAddWorker) matches += state.tasks.size();
    if (d.kind == DeltaKind::kAddTask) matches += state.workers.size();
  }
  if (first_epoch) return state.workers.size() * state.tasks.size();
  return matches;
}

TEST(MarketAssemblyTest, EpochMarketEqualsBuildMarketAndCostsItsDelta) {
  std::size_t markets = 0;
  std::size_t edges = 0;
  std::size_t epochs = 0;
  std::size_t replaying_restarts = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string path = ::testing::TempDir() + "/market_assembly_" +
                             std::to_string(seed) + ".wal";
    std::remove(path.c_str());
    std::remove((path + ".snap").c_str());
    const std::string where = "seed " + std::to_string(seed);
    const MarketService* live = nullptr;
    ServiceConfig config;
    config.wal_path = path;
    config.epoch_batch = 6;
    config.snapshot_every = 3;
    config.market_observer = [&](const LaborMarket& market) {
      ++markets;
      edges += market.NumEdges();
      // Mid-epoch the state holds the applied entity lists, which is all
      // BuildMarket reads.
      ExpectSameMarket(market, BuildMarket(live->state(), config.edge_model),
                       where);
    };
    auto service = std::make_unique<MarketService>(config);
    live = service.get();
    std::string error;
    ASSERT_TRUE(service->Start(&error)) << where << ": " << error;
    bool first_epoch = true;
    for (const Op& op : MakeStream(seed)) {
      switch (op.kind) {
        case Op::kSubmit:
          service->Submit(op.delta);
          break;
        case Op::kEpoch: {
          const std::uint64_t expected =
              ExpectedMatches(*service, config.epoch_batch, first_epoch);
          const std::uint64_t before = service->skill_matches();
          ASSERT_TRUE(service->RunEpoch(&error)) << where << ": " << error;
          EXPECT_EQ(service->skill_matches() - before, expected)
              << where << " epoch " << service->state().epoch;
          first_epoch = false;
          ++epochs;
          break;
        }
        case Op::kRestart: {
          service.reset();
          service = std::make_unique<MarketService>(config);
          live = service.get();
          ASSERT_TRUE(service->Start(&error)) << where << ": " << error;
          // A restart that replayed an epoch has built its cache already.
          const std::uint64_t replayed = service->stats().counters.Value(
              "service/recovery/replayed_epochs");
          if (replayed > 0) ++replaying_restarts;
          first_epoch = replayed == 0;
          break;
        }
      }
    }
  }
  // The sweep must assemble real markets and cross restarts both ways.
  EXPECT_GT(markets, epochs);  // replays assemble too
  EXPECT_GT(edges, 10'000u);
  EXPECT_GT(replaying_restarts, 5u);
}

}  // namespace
}  // namespace mbta
