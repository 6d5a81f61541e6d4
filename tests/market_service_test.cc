#include "service/market_service.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/validate.h"
#include "util/clock.h"

namespace mbta {
namespace {

Delta AddWorker(std::uint64_t id, int capacity = 1, double unit_cost = 0.0) {
  Delta d;
  d.kind = DeltaKind::kAddWorker;
  d.id = id;
  d.worker.capacity = capacity;
  d.worker.unit_cost = unit_cost;
  return d;
}

Delta AddTask(std::uint64_t id, double payment = 1.0, double value = 1.0,
              int capacity = 1) {
  Delta d;
  d.kind = DeltaKind::kAddTask;
  d.id = id;
  d.task.capacity = capacity;
  d.task.payment = payment;
  d.task.value = value;
  return d;
}

Delta Remove(DeltaKind kind, std::uint64_t id) {
  Delta d;
  d.kind = kind;
  d.id = id;
  return d;
}

TEST(MarketServiceTest, InMemoryEpochAssignsArrivals) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  EXPECT_EQ(service.Submit(AddWorker(1)), SubmitResult::kAdmitted);
  EXPECT_EQ(service.Submit(AddWorker(2)), SubmitResult::kAdmitted);
  EXPECT_EQ(service.Submit(AddTask(100)), SubmitResult::kAdmitted);
  EXPECT_EQ(service.Submit(AddTask(200)), SubmitResult::kAdmitted);
  std::string error;
  ASSERT_TRUE(service.RunEpoch(&error)) << error;
  EXPECT_EQ(service.state().epoch, 1u);
  EXPECT_TRUE(service.state().pending.empty());
  // Two unit-capacity workers, two unit-capacity tasks, all pairs
  // eligible (no skills, zero cost): both tasks get staffed.
  EXPECT_EQ(service.state().pairs.size(), 2u);
  EXPECT_GT(service.objective_value(), 0.0);
  EXPECT_EQ(service.stats().counters.Value("service/epoch/total"), 1u);
}

TEST(MarketServiceTest, DepartureDropsItsPairsAndRepairs) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1));
  service.Submit(AddWorker(2));
  service.Submit(AddTask(100, 1.0, 5.0));
  ASSERT_TRUE(service.RunEpoch());
  ASSERT_EQ(service.state().pairs.size(), 1u);
  const std::uint64_t assigned = service.state().pairs[0].worker;
  service.Submit(Remove(DeltaKind::kRemoveWorker, assigned));
  ASSERT_TRUE(service.RunEpoch());
  // The other worker takes over the task.
  ASSERT_EQ(service.state().pairs.size(), 1u);
  EXPECT_NE(service.state().pairs[0].worker, assigned);
  EXPECT_EQ(service.state().workers.size(), 1u);
}

TEST(MarketServiceTest, CapacityCutShedsExcessPairs) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1, /*capacity=*/3));
  service.Submit(AddTask(100));
  service.Submit(AddTask(200));
  service.Submit(AddTask(300));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pairs.size(), 3u);
  Delta cut;
  cut.kind = DeltaKind::kWorkerCapacity;
  cut.id = 1;
  cut.capacity = 1;
  service.Submit(cut);
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pairs.size(), 1u);
}

Delta WorkerCapacity(std::uint64_t id, int capacity) {
  Delta d;
  d.kind = DeltaKind::kWorkerCapacity;
  d.id = id;
  d.capacity = capacity;
  return d;
}

/// An in-memory service whose epochs only repair (no escape hatch to a
/// full re-solve), so what a test sees is the refill's own work.
ServiceConfig RepairOnly() {
  ServiceConfig config;
  config.resolve_ratio = 0.0;
  return config;
}

TEST(MarketServiceTest, WithdrawnTaskRedeploysItsWorkerInTheSameEpoch) {
  MarketService service(RepairOnly());
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1));
  service.Submit(AddTask(100, 1.0, /*value=*/5.0));
  service.Submit(AddTask(200, 1.0, /*value=*/1.0));
  ASSERT_TRUE(service.RunEpoch());
  ASSERT_EQ(service.state().pairs, (std::vector<StablePair>{{1, 100}}));
  service.Submit(Remove(DeltaKind::kRemoveTask, 100));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pairs, (std::vector<StablePair>{{1, 200}}));
}

TEST(MarketServiceTest, CapacityRaiseRefillsTheNewSlack) {
  MarketService service(RepairOnly());
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1, /*capacity=*/1));
  service.Submit(AddTask(100));
  service.Submit(AddTask(200));
  ASSERT_TRUE(service.RunEpoch());
  ASSERT_EQ(service.state().pairs.size(), 1u);
  service.Submit(WorkerCapacity(1, 2));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pairs,
            (std::vector<StablePair>{{1, 100}, {1, 200}}));
}

TEST(MarketServiceTest, RepairKeepsEveryPairNoDeltaTouched) {
  // The locality contract of src/core/repair.h: an epoch refills around
  // the entities its deltas name and never removes a carried pair whose
  // worker and task none of them named.
  MarketService service(RepairOnly());
  ASSERT_TRUE(service.Start());
  for (std::uint64_t i = 0; i < 12; ++i) {
    service.Submit(AddWorker(i + 1, 1 + static_cast<int>(i % 3),
                             0.1 * static_cast<double>(i % 4)));
    service.Submit(AddTask(i + 100, 0.5 + 0.25 * static_cast<double>(i % 5),
                           1.0 + 0.5 * static_cast<double>(i % 3),
                           1 + static_cast<int>(i % 2)));
  }
  ASSERT_TRUE(service.RunEpoch());
  std::uint64_t next_id = 1000;
  std::size_t kept = 0;
  for (int round = 0; round < 4; ++round) {
    const std::vector<StablePair> before = service.state().pairs;
    ASSERT_GE(before.size(), 3u) << "round " << round;
    // One batch: a worker and a task that hold pairs leave, another
    // worker's capacity drops to zero, and a worker and a task arrive.
    const std::vector<std::uint64_t> touched_workers = {
        before.front().worker, before[before.size() / 2].worker, next_id};
    const std::vector<std::uint64_t> touched_tasks = {before.back().task,
                                                      next_id};
    service.Submit(Remove(DeltaKind::kRemoveWorker, touched_workers[0]));
    service.Submit(Remove(DeltaKind::kRemoveTask, touched_tasks[0]));
    service.Submit(WorkerCapacity(touched_workers[1], 0));
    service.Submit(AddWorker(next_id, 2));
    service.Submit(AddTask(next_id, 2.0, 3.0, 2));
    ++next_id;
    ASSERT_TRUE(service.RunEpoch());
    const std::vector<StablePair>& after = service.state().pairs;
    for (const StablePair& p : before) {
      if (std::count(touched_workers.begin(), touched_workers.end(),
                     p.worker) != 0 ||
          std::count(touched_tasks.begin(), touched_tasks.end(), p.task) !=
              0) {
        continue;
      }
      EXPECT_TRUE(std::binary_search(after.begin(), after.end(), p))
          << "round " << round << ": untouched pair (" << p.worker << ", "
          << p.task << ") was removed";
      ++kept;
    }
  }
  EXPECT_GT(kept, 0u);
}

TEST(MarketServiceTest, PaymentChangeTakesEffect) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  // Worker costs 0.5 per task; the task pays 0.25 — not eligible.
  service.Submit(AddWorker(1, 1, /*unit_cost=*/0.5));
  service.Submit(AddTask(100, /*payment=*/0.25));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_TRUE(service.state().pairs.empty());
  Delta raise;
  raise.kind = DeltaKind::kTaskPayment;
  raise.id = 100;
  raise.amount = 2.0;
  service.Submit(raise);
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pairs.size(), 1u);
}

TEST(MarketServiceTest, QueueShedsNewestButAdmitsDepartures) {
  ServiceConfig config;
  config.queue_capacity = 2;
  MarketService service(config);
  ASSERT_TRUE(service.Start());
  EXPECT_EQ(service.Submit(AddWorker(1)), SubmitResult::kAdmitted);
  EXPECT_EQ(service.Submit(AddWorker(2)), SubmitResult::kAdmitted);
  EXPECT_EQ(service.Submit(AddWorker(3)), SubmitResult::kShed);
  EXPECT_EQ(service.Submit(Remove(DeltaKind::kRemoveWorker, 1)),
            SubmitResult::kAdmitted);
  EXPECT_EQ(service.stats().counters.Value("service/delta/shed"), 1u);
  EXPECT_EQ(service.stats().counters.Value("service/delta/admitted"), 3u);
}

TEST(MarketServiceTest, InvalidDeltaIsRejected) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  Delta bad = AddWorker(1);
  bad.worker.fatigue = 0.0;  // out of (0, 1]
  std::string error;
  EXPECT_EQ(service.Submit(bad, &error), SubmitResult::kRejected);
  EXPECT_FALSE(error.empty());
  Delta nan = AddTask(2);
  nan.task.payment = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service.Submit(nan), SubmitResult::kRejected);
  EXPECT_EQ(service.stats().counters.Value("service/delta/rejected"), 2u);
}

TEST(MarketServiceTest, StaleDeltaIsSkippedDeterministically) {
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1));
  service.Submit(AddTask(100));
  // Remove and patch race inside one batch: the removal is admitted
  // first, so the capacity change goes stale and is skipped.
  service.Submit(Remove(DeltaKind::kRemoveWorker, 1));
  Delta patch;
  patch.kind = DeltaKind::kWorkerCapacity;
  patch.id = 1;
  patch.capacity = 4;
  service.Submit(patch);
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_TRUE(service.state().workers.empty());
  EXPECT_EQ(service.stats().counters.Value("service/delta/stale"), 1u);
}

TEST(MarketServiceTest, EpochBatchBoundsConsumption) {
  ServiceConfig config;
  config.epoch_batch = 2;
  MarketService service(config);
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1));
  service.Submit(AddTask(100));
  service.Submit(AddTask(200));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.state().pending.size(), 1u);
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_TRUE(service.state().pending.empty());
  EXPECT_EQ(service.state().epoch, 2u);
}

TEST(MarketServiceTest, SlowEpochDegradesTheNext) {
  ServiceConfig config;
  config.degrade_after_ms = 10.0;
  // Every NowMs() read advances 100ms: each epoch measures 100ms and the
  // threshold is 10ms, so epoch 2 onward runs degraded.
  FakeClock clock(0.0, 100.0);
  config.clock = &clock;
  MarketService service(config);
  ASSERT_TRUE(service.Start());
  service.Submit(AddWorker(1));
  service.Submit(AddTask(100));
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.last_mode(), EpochMode::kNormal);
  ASSERT_TRUE(service.RunEpoch());
  EXPECT_EQ(service.last_mode(), EpochMode::kDegraded);
  EXPECT_EQ(service.stats().counters.Value("service/epoch/degraded"), 1u);
  EXPECT_EQ(service.stats().stop_reason, StopReason::kNone);
}

TEST(MarketServiceTest, EveryEpochIsValidatorClean) {
  // ExecuteEpoch internally MBTA_CHECKs validation; this test re-checks
  // from the outside against a rebuilt market, including under churn.
  MarketService service(ServiceConfig{});
  ASSERT_TRUE(service.Start());
  std::uint64_t next_task = 100;
  for (int round = 0; round < 10; ++round) {
    service.Submit(AddWorker(static_cast<std::uint64_t>(round) + 1,
                             1 + round % 3, 0.1 * round));
    service.Submit(AddTask(next_task++, 1.0 + round, 1.0 + 0.5 * round));
    if (round % 3 == 2) {
      service.Submit(
          Remove(DeltaKind::kRemoveWorker,
                 static_cast<std::uint64_t>(round)));
    }
    ASSERT_TRUE(service.RunEpoch());
    const LaborMarket market =
        BuildMarket(service.state(), ServiceConfig{}.edge_model);
    Assignment assignment;
    for (const StablePair& pair : service.state().pairs) {
      const std::size_t w = service.state().WorkerIndex(pair.worker);
      const std::size_t t = service.state().TaskIndex(pair.task);
      ASSERT_NE(w, ServiceState::npos);
      ASSERT_NE(t, ServiceState::npos);
      EdgeId found = kInvalidEdge;
      for (const Incidence& inc :
           market.WorkerEdges(static_cast<WorkerId>(w))) {
        if (market.EdgeTask(inc.edge) == static_cast<TaskId>(t)) {
          found = inc.edge;
        }
      }
      ASSERT_NE(found, kInvalidEdge);
      assignment.edges.push_back(found);
    }
    const MbtaProblem problem{&market, ServiceConfig{}.objective};
    const ValidationResult check = ValidateAssignment(problem, assignment);
    EXPECT_TRUE(check.ok()) << "epoch " << round << ": " << check.Message();
  }
}

TEST(MarketServiceTest, WorkBudgetDegradesGracefully) {
  ServiceConfig config;
  config.epoch_max_work = 3;  // almost nothing
  MarketService service(config);
  ASSERT_TRUE(service.Start());
  for (int i = 0; i < 5; ++i) {
    service.Submit(AddWorker(static_cast<std::uint64_t>(i) + 1));
    service.Submit(AddTask(static_cast<std::uint64_t>(i) + 100));
  }
  ASSERT_TRUE(service.RunEpoch());
  // The budget tripped, the epoch still committed a feasible (possibly
  // sparse) assignment and reported the stop.
  EXPECT_TRUE(service.stats().deadline_hit);
  EXPECT_EQ(service.stats().stop_reason, StopReason::kWorkBudget);
  EXPECT_GE(service.stats().counters.Value("service/epoch/budget_hit"), 1u);
}

}  // namespace
}  // namespace mbta
