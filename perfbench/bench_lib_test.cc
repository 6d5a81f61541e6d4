#include "bench_lib.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

namespace mbta::perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  // Reverse order: the helper must sort.
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ReportsSampleCount) {
  EXPECT_EQ(SummarizeLatencies({}).samples, 0u);
  EXPECT_FALSE(SummarizeLatencies({}).p90.has_value());
  const PercentileSummary s = SummarizeLatencies(Ramp(7));
  EXPECT_EQ(s.samples, 7u);
  EXPECT_EQ(s.p50, 4.0);
}

TEST(PercentileTest, NoP90WithFewerThanTenSamplesAbove) {
  const PercentileSummary s = SummarizeLatencies(Ramp(99));
  EXPECT_EQ(s.samples, 99u);
  EXPECT_EQ(s.above_p90, 9u);  // nearest rank 90 of 99
  EXPECT_FALSE(s.p90.has_value());
}

TEST(PercentileTest, P90WithTenSamplesAbove) {
  const PercentileSummary s = SummarizeLatencies(Ramp(100));
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.above_p90, 10u);
  ASSERT_TRUE(s.p90.has_value());
  EXPECT_EQ(*s.p90, 90.0);
  EXPECT_EQ(s.p50, 50.5);
}

/// Replays a stream against live-id sets, as the service would apply it.
struct Replay {
  std::set<std::uint64_t> workers;
  std::set<std::uint64_t> tasks;
  std::set<std::uint64_t> ever_workers;
  std::set<std::uint64_t> ever_tasks;

  /// Applies `d`; false when it names a dead id or reuses an old one.
  bool Apply(const Delta& d) {
    switch (d.kind) {
      case DeltaKind::kAddWorker:
        workers.insert(d.id);
        return ever_workers.insert(d.id).second;
      case DeltaKind::kAddTask:
        tasks.insert(d.id);
        return ever_tasks.insert(d.id).second;
      case DeltaKind::kRemoveWorker:
        return workers.erase(d.id) == 1;
      case DeltaKind::kRemoveTask:
        return tasks.erase(d.id) == 1;
      case DeltaKind::kWorkerCapacity:
        return workers.count(d.id) == 1;
      case DeltaKind::kTaskCapacity:
      case DeltaKind::kTaskPayment:
      case DeltaKind::kTaskValue:
        return tasks.count(d.id) == 1;
    }
    return false;
  }
};

TEST(ServiceStreamTest, ShapeOfBulkAndChurn) {
  const ServiceStream s = MakeServiceStream(42);
  EXPECT_EQ(s.bulk.size(), 1000u);
  ASSERT_EQ(s.churn.size(), 126u);
  for (const auto& batch : s.churn) EXPECT_EQ(batch.size(), 32u);
}

TEST(ServiceStreamTest, TargetsOnlyLiveIdsAndHoldsEachSideNear500) {
  for (std::uint64_t seed : {42u, 7u, 1u}) {
    const ServiceStream s = MakeServiceStream(seed);
    Replay live;
    for (const Delta& d : s.bulk) ASSERT_TRUE(live.Apply(d));
    EXPECT_EQ(live.workers.size(), 500u);
    EXPECT_EQ(live.tasks.size(), 500u);
    std::map<DeltaKind, int> kinds;
    for (const auto& batch : s.churn) {
      for (const Delta& d : batch) {
        ++kinds[d.kind];
        std::string why;
        ASSERT_TRUE(ValidateDelta(d, &why)) << why;
        ASSERT_TRUE(live.Apply(d))
            << "seed " << seed << ": " << FormatDelta(d);
        ASSERT_GE(live.workers.size(), 450u);
        ASSERT_LE(live.workers.size(), 550u);
        ASSERT_GE(live.tasks.size(), 450u);
        ASSERT_LE(live.tasks.size(), 550u);
      }
    }
    // The nominal mix: 80% arrivals and departures, 10% payment patches,
    // 10% capacity patches (4032 deltas, so a few percent of slack).
    const int moves = kinds[DeltaKind::kAddWorker] + kinds[DeltaKind::kAddTask] +
                      kinds[DeltaKind::kRemoveWorker] +
                      kinds[DeltaKind::kRemoveTask];
    const int capacity =
        kinds[DeltaKind::kWorkerCapacity] + kinds[DeltaKind::kTaskCapacity];
    EXPECT_NEAR(moves / 4032.0, 0.8, 0.03);
    EXPECT_NEAR(kinds[DeltaKind::kTaskPayment] / 4032.0, 0.1, 0.02);
    EXPECT_NEAR(capacity / 4032.0, 0.1, 0.02);
    EXPECT_NEAR(kinds[DeltaKind::kAddWorker] / 4032.0, 0.2, 0.03);
    EXPECT_NEAR(kinds[DeltaKind::kRemoveTask] / 4032.0, 0.2, 0.03);
  }
}

TEST(ServiceStreamTest, SameSeedSameStream) {
  const ServiceStream a = MakeServiceStream(9);
  const ServiceStream b = MakeServiceStream(9);
  ASSERT_EQ(a.churn.size(), b.churn.size());
  EXPECT_EQ(a.bulk, b.bulk);
  EXPECT_EQ(a.churn, b.churn);
  EXPECT_NE(MakeServiceStream(10).churn, a.churn);
}

}  // namespace
}  // namespace mbta::perfbench
