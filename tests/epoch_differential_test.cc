// Differential test of the service epoch against the full-market epoch
// it replaced (tests/reference_epoch.h). The service repairs on a reach
// market — every edge with a touched endpoint plus the carried pairs'
// edges — and validates there; the oracle repairs on BuildMarket of the
// whole state. Across seeded durable streams, under both objectives,
// every live epoch must commit the same pairs with the same value bits,
// make the same gain evaluations, drop the same carried pairs, stop on
// the same work budget and leave a state with the same checksum.
//
// The streams are built to reach every branch the reach has to get
// right: payment patches that make carried pairs ineligible, capacity
// cuts that shed carried pairs, the escape hatch's full re-solve, the
// epoch_max_work gate, degraded epochs (a step clock marks chosen epochs
// slow) and restarts from snapshot plus WAL. Floors at the end make sure
// the sweep saw each of them.
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
#include "util/clock.h"
#include "util/rng.h"

namespace mbta {
namespace {

constexpr std::size_t kSkillDims = 3;
constexpr std::uint64_t kStreams = 200;
/// A previous epoch longer than this degrades the next one.
constexpr double kDegradeAfterMs = 5.0;

/// Each read advances by `step`, so an epoch measures exactly `step` ms.
class StepClock : public Clock {
 public:
  double NowMs() const override {
    now_ += step;
    return now_;
  }
  double step = 0.0;

 private:
  mutable double now_ = 0.0;
};

/// Flushes without fsync: the streams need recoverable files, not
/// durable ones.
class FlushOnly : public FileSyncer {
 public:
  bool Sync(std::FILE* file) override { return std::fflush(file) == 0; }
};

struct Op {
  enum Kind { kSubmit, kEpoch, kRestart } kind = kSubmit;
  Delta delta;
};

SkillVector RandomSkills(Rng& rng) {
  SkillVector s(kSkillDims);
  for (double& v : s) v = rng.NextBool(0.4) ? 0.0 : rng.NextDouble();
  return s;
}

std::vector<Op> MakeStream(Rng& rng) {
  std::vector<Op> ops;
  std::vector<std::uint64_t> workers;
  std::vector<std::uint64_t> tasks;
  std::uint64_t next_worker = 1;
  std::uint64_t next_task = 1000;
  // A bulk load first, so churn works on a market with pairs to carry.
  const int bulk = 10 + static_cast<int>(rng.NextBounded(20));
  const int count = bulk + 80 + static_cast<int>(rng.NextBounded(60));
  for (int i = 0; i < count; ++i) {
    Op op;
    const double roll = rng.NextDouble();
    if (i == bulk || (i > bulk && roll < 0.14)) {
      op.kind = Op::kEpoch;
      ops.push_back(op);
      continue;
    }
    if (i > bulk && roll < 0.16) {
      op.kind = Op::kRestart;
      ops.push_back(op);
      continue;
    }
    Delta& d = op.delta;
    const double kind = i < bulk ? rng.NextDouble() * 0.5 : rng.NextDouble();
    if (kind < 0.25 || workers.empty()) {
      d.kind = DeltaKind::kAddWorker;
      d.id = next_worker++;
      d.worker.capacity = static_cast<int>(rng.NextBounded(4));
      d.worker.unit_cost = rng.NextDouble(0.2, 0.8);
      d.worker.reliability = rng.NextDouble(0.5, 1.0);
      d.worker.skills = RandomSkills(rng);
      workers.push_back(d.id);
    } else if (kind < 0.5 || tasks.empty()) {
      d.kind = DeltaKind::kAddTask;
      d.id = next_task++;
      d.task.capacity = 1 + static_cast<int>(rng.NextBounded(3));
      d.task.payment = rng.NextDouble(0.2, 1.0);
      d.task.value = rng.NextDouble(0.5, 3.0);
      d.task.difficulty = rng.NextDouble(0.0, 0.6);
      d.task.required_skills = RandomSkills(rng);
      tasks.push_back(d.id);
    } else if (kind < 0.57) {
      const std::size_t at = rng.NextBounded(workers.size());
      d.kind = DeltaKind::kRemoveWorker;
      d.id = workers[at];
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.64) {
      const std::size_t at = rng.NextBounded(tasks.size());
      d.kind = DeltaKind::kRemoveTask;
      d.id = tasks[at];
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.80) {
      // Payments cross the workers' costs both ways: a carried pair whose
      // payment falls below its worker's cost is no longer an edge.
      d.kind = DeltaKind::kTaskPayment;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.0, 1.0);
    } else if (kind < 0.85) {
      d.kind = DeltaKind::kTaskValue;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.0, 3.0);
    } else if (kind < 0.93) {
      d.kind = DeltaKind::kWorkerCapacity;
      d.id = workers[rng.NextBounded(workers.size())];
      d.capacity = static_cast<int>(rng.NextBounded(3));  // cuts included
    } else {
      d.kind = DeltaKind::kTaskCapacity;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.capacity = static_cast<int>(rng.NextBounded(3));
    }
    ops.push_back(op);
  }
  Op flush;
  flush.kind = Op::kEpoch;
  ops.push_back(flush);
  return ops;
}

struct Tally {
  std::size_t epochs = 0;
  std::size_t hatches = 0;
  std::size_t budget_hits = 0;
  std::size_t dropped_ineligible = 0;
  std::size_t dropped_capacity = 0;
  std::size_t degraded = 0;
  std::size_t replaying_restarts = 0;
};

std::uint64_t Count(const MarketService& service, const char* name) {
  return service.stats().counters.Value(name);
}

void RunStream(std::uint64_t seed, ObjectiveKind kind, Tally* tally) {
  Rng rng(seed);
  const std::vector<Op> ops = MakeStream(rng);
  const std::string where = "seed " + std::to_string(seed) + " " +
                            ToString(kind);
  const std::string path = ::testing::TempDir() + "/epoch_differential_" +
                           std::to_string(seed) + ".wal";
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
  StepClock clock;
  FlushOnly syncer;
  ServiceConfig config;
  config.wal_path = path;
  config.epoch_batch = 4 + rng.NextBounded(6);
  config.snapshot_every = 1 + rng.NextBounded(4);
  config.objective.kind = kind;
  config.degrade_after_ms = kDegradeAfterMs;
  config.clock = &clock;
  config.syncer = &syncer;
  // A third of the streams repair under a tight work budget.
  if (seed % 3 == 0) config.epoch_max_work = 20 + rng.NextBounded(60);

  auto service = std::make_unique<MarketService>(config);
  std::string error;
  ASSERT_TRUE(service->Start(&error)) << where << ": " << error;
  EpochMode next_mode = EpochMode::kNormal;
  for (const Op& op : ops) {
    if (op.kind == Op::kSubmit) {
      service->Submit(op.delta);
      continue;
    }
    if (op.kind == Op::kRestart) {
      const std::uint32_t before = StateChecksum(service->state());
      service.reset();
      service = std::make_unique<MarketService>(config);
      ASSERT_TRUE(service->Start(&error)) << where << ": " << error;
      EXPECT_EQ(StateChecksum(service->state()), before) << where;
      if (Count(*service, "service/recovery/replayed_epochs") > 0) {
        ++tally->replaying_restarts;
      }
      next_mode = EpochMode::kNormal;  // a new service has timed nothing
      continue;
    }
    const EpochMode mode = next_mode;
    clock.step = rng.NextBool(0.25) ? 2 * kDegradeAfterMs : 0.0;
    next_mode = clock.step > kDegradeAfterMs ? EpochMode::kDegraded
                                             : EpochMode::kNormal;

    ServiceState oracle_state = service->state();
    const auto num_deltas = static_cast<std::uint32_t>(
        std::min(oracle_state.pending.size(), config.epoch_batch));
    const ReferenceEpoch oracle =
        RunReferenceEpoch(oracle_state, config, mode, num_deltas);
    ++oracle_state.wal_records;  // the epoch's commit record

    const std::uint64_t evaluations = service->stats().gain_evaluations;
    const std::uint64_t dropped =
        Count(*service, "service/repair/dropped_pairs");
    const std::uint64_t budget_hits =
        Count(*service, "service/epoch/budget_hit");
    const std::uint64_t hatches =
        Count(*service, "service/epoch/full_resolve");
    ASSERT_TRUE(service->RunEpoch(&error)) << where << ": " << error;
    const std::string at =
        where + " epoch " + std::to_string(service->state().epoch);

    EXPECT_EQ(service->last_mode(), mode) << at;
    EXPECT_EQ(service->state().pairs, oracle_state.pairs) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(service->objective_value()),
              std::bit_cast<std::uint64_t>(oracle.value))
        << at;
    EXPECT_EQ(service->stats().gain_evaluations - evaluations,
              oracle.gain_evaluations)
        << at;
    EXPECT_EQ(Count(*service, "service/repair/dropped_pairs") - dropped,
              oracle.dropped_ineligible + oracle.dropped_capacity)
        << at;
    EXPECT_EQ(Count(*service, "service/epoch/budget_hit") - budget_hits,
              oracle.budget_hit ? 1u : 0u)
        << at;
    EXPECT_EQ(Count(*service, "service/epoch/full_resolve") - hatches,
              oracle.full_resolve ? 1u : 0u)
        << at;
    ASSERT_EQ(StateChecksum(service->state()), StateChecksum(oracle_state))
        << at;

    ++tally->epochs;
    tally->hatches += oracle.full_resolve ? 1 : 0;
    tally->budget_hits += oracle.budget_hit ? 1 : 0;
    tally->dropped_ineligible += oracle.dropped_ineligible;
    tally->dropped_capacity += oracle.dropped_capacity;
    tally->degraded += mode == EpochMode::kDegraded ? 1 : 0;
  }
}

TEST(EpochDifferentialTest, ReachEpochsMatchTheFullMarketEpoch) {
  for (const ObjectiveKind kind :
       {ObjectiveKind::kModular, ObjectiveKind::kSubmodular}) {
    Tally tally;
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
      RunStream(seed, kind, &tally);
      if (HasFatalFailure()) return;
    }
    const std::string name = ToString(kind);
    EXPECT_GT(tally.epochs, 15 * kStreams) << name;
    EXPECT_GT(tally.hatches, 100u) << name;
    EXPECT_GT(tally.budget_hits, 100u) << name;
    EXPECT_GT(tally.dropped_ineligible, 100u) << name;
    EXPECT_GT(tally.dropped_capacity, 100u) << name;
    EXPECT_GT(tally.degraded, 100u) << name;
    EXPECT_GT(tally.replaying_restarts, 100u) << name;
    RecordProperty(name + "_epochs", static_cast<int>(tally.epochs));
    RecordProperty(name + "_hatches", static_cast<int>(tally.hatches));
    RecordProperty(name + "_budget_hits",
                   static_cast<int>(tally.budget_hits));
    RecordProperty(name + "_dropped_ineligible",
                   static_cast<int>(tally.dropped_ineligible));
    RecordProperty(name + "_dropped_capacity",
                   static_cast<int>(tally.dropped_capacity));
    RecordProperty(name + "_degraded", static_cast<int>(tally.degraded));
    RecordProperty(name + "_replaying_restarts",
                   static_cast<int>(tally.replaying_restarts));
  }
}

}  // namespace
}  // namespace mbta
