// Differential test of the service's epoch market, assembled from its
// skill-match cache, against BuildMarket — the from-scratch all-pairs
// build it replaced. Seeded durable streams mix arrivals with skills,
// payment patches crossing the workers' unit costs both ways, departures
// from the middle of both lists, a departed id re-arriving, capacity
// patches to 0, stale deltas, and a restart from snapshot plus WAL in
// mid-stream. Every market an epoch assembles (live or replayed) must be
// BuildMarket(state) restricted to a set of its edges: the same workers
// and tasks under the same dense ids, the kept edges in the same
// relative order, with the quality, benefit and task-value bits. For a
// live epoch that set must be exactly the reach the full-market oracle
// (tests/reference_epoch.h) computes — every edge with a touched
// endpoint plus each surviving carried pair — and it is the whole market
// in a bulk epoch and for the escape hatch's re-solve. The per-epoch
// SkillMatch count pins the rebuild at O(delta): arrivals × other side,
// nothing for patches and departures, and |W|·|T| only on the first
// epoch a service runs.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_epoch.h"
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

/// Checks that `got` is `full` restricted to some of its edges, and
/// returns the ids in `full` of the edges `got` kept, ascending.
std::vector<EdgeId> ExpectSubMarket(const LaborMarket& got,
                                    const LaborMarket& full,
                                    const std::string& where) {
  std::vector<EdgeId> kept;
  EXPECT_EQ(got.NumWorkers(), full.NumWorkers()) << where;
  EXPECT_EQ(got.NumTasks(), full.NumTasks()) << where;
  EXPECT_EQ(got.name(), full.name()) << where;
  if (got.NumWorkers() != full.NumWorkers() ||
      got.NumTasks() != full.NumTasks()) {
    return kept;
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (WorkerId w = 0; w < got.NumWorkers(); ++w) {
    EXPECT_EQ(got.worker(w).capacity, full.worker(w).capacity) << where;
  }
  for (TaskId t = 0; t < got.NumTasks(); ++t) {
    EXPECT_EQ(got.task(t).capacity, full.task(t).capacity) << where;
    EXPECT_EQ(bits(got.task(t).value), bits(full.task(t).value)) << where;
  }
  EdgeId f = 0;
  for (EdgeId e = 0; e < got.NumEdges(); ++e, ++f) {
    while (f < full.NumEdges() && (full.EdgeWorker(f) != got.EdgeWorker(e) ||
                                   full.EdgeTask(f) != got.EdgeTask(e))) {
      ++f;
    }
    if (f == full.NumEdges()) {
      ADD_FAILURE() << where << ": edge " << e << " (w=" << got.EdgeWorker(e)
                    << ", t=" << got.EdgeTask(e)
                    << ") is not a later edge of BuildMarket";
      return kept;
    }
    EXPECT_EQ(bits(got.Quality(e)), bits(full.Quality(f)))
        << where << " edge " << e;
    EXPECT_EQ(bits(got.WorkerBenefit(e)), bits(full.WorkerBenefit(f)))
        << where << " edge " << e;
    EXPECT_EQ(bits(got.EdgeTaskValues()[e]), bits(full.EdgeTaskValues()[f]))
        << where << " edge " << e;
    kept.push_back(f);
  }
  return kept;
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
  std::size_t full_edges = 0;
  std::size_t epochs = 0;
  std::size_t bulk_epochs = 0;
  std::size_t hatch_epochs = 0;
  std::size_t replaying_restarts = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string path = ::testing::TempDir() + "/market_assembly_" +
                             std::to_string(seed) + ".wal";
    std::remove(path.c_str());
    std::remove((path + ".snap").c_str());
    const std::string where = "seed " + std::to_string(seed);
    const MarketService* live = nullptr;
    std::vector<LaborMarket> observed;
    ServiceConfig config;
    config.wal_path = path;
    config.epoch_batch = 6;
    config.snapshot_every = 3;
    config.market_observer = [&](const LaborMarket& market) {
      ++markets;
      edges += market.NumEdges();
      // Mid-epoch the state holds the applied entity lists, which is all
      // BuildMarket reads.
      ExpectSubMarket(market, BuildMarket(live->state(), config.edge_model),
                      where);
      observed.push_back(market);
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
          ServiceState oracle_state = service->state();
          const ReferenceEpoch oracle = RunReferenceEpoch(
              oracle_state, config, EpochMode::kNormal,
              static_cast<std::uint32_t>(std::min(
                  oracle_state.pending.size(), config.epoch_batch)));
          observed.clear();
          ASSERT_TRUE(service->RunEpoch(&error)) << where << ": " << error;
          EXPECT_EQ(service->skill_matches() - before, expected)
              << where << " epoch " << service->state().epoch;
          first_epoch = false;
          ++epochs;
          const std::string at =
              where + " epoch " + std::to_string(service->state().epoch);
          // The reach market, then the full one when the hatch fired.
          ASSERT_EQ(observed.size(), oracle.full_resolve ? 2u : 1u) << at;
          const LaborMarket& full = oracle.market;
          full_edges += full.NumEdges();
          EXPECT_EQ(ExpectSubMarket(observed[0], full, at), ReachEdges(oracle))
              << at;
          std::size_t degrees = oracle.carried.size();
          for (WorkerId w = 0; w < full.NumWorkers(); ++w) {
            if (oracle.worker_touched[w] != 0) {
              degrees += full.WorkerEdges(w).size();
            }
          }
          for (TaskId t = 0; t < full.NumTasks(); ++t) {
            if (oracle.task_touched[t] != 0) {
              degrees += full.TaskEdges(t).size();
            }
          }
          EXPECT_LE(observed[0].NumEdges(), degrees) << at;
          const bool bulk =
              std::count(oracle.worker_touched.begin(),
                         oracle.worker_touched.end(), 1) ==
                  static_cast<std::ptrdiff_t>(full.NumWorkers()) ||
              std::count(oracle.task_touched.begin(),
                         oracle.task_touched.end(), 1) ==
                  static_cast<std::ptrdiff_t>(full.NumTasks());
          if (bulk) {
            ++bulk_epochs;
            EXPECT_EQ(observed[0].NumEdges(), full.NumEdges()) << at;
          }
          if (oracle.full_resolve) {
            ++hatch_epochs;
            EXPECT_EQ(ExpectSubMarket(observed[1], full, at).size(),
                      full.NumEdges())
                << at;
          }
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
  // The sweep must assemble real markets, cross restarts both ways, and
  // see bulk and hatch epochs; the reach must be a fraction of the full
  // markets the epochs repaired on.
  EXPECT_GT(markets, epochs);  // replays assemble too
  EXPECT_GT(edges, 10'000u);
  EXPECT_GT(replaying_restarts, 5u);
  EXPECT_GT(bulk_epochs, 20u);
  EXPECT_GT(hatch_epochs, 20u);
  EXPECT_LT(edges, full_edges);
  RecordProperty("bulk_epochs", static_cast<int>(bulk_epochs));
  RecordProperty("hatch_epochs", static_cast<int>(hatch_epochs));
  RecordProperty("reach_edges", std::to_string(edges));
  RecordProperty("full_edges", std::to_string(full_edges));
}

}  // namespace
}  // namespace mbta
