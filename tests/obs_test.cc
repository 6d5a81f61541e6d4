/// Unit tests for the observability primitives: the counter/gauge
/// registry and the nesting scoped phase timer, including their
/// cross-thread contract (one writer per registry at a time, merged after
/// join), which the TSan build checks.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/phase_timer.h"

namespace mbta {
namespace {

TEST(CounterRegistryTest, StartsEmpty) {
  CounterRegistry registry;
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.Value("never/touched"), 0u);
  EXPECT_EQ(registry.Gauge("never/touched"), 0.0);
  EXPECT_FALSE(registry.Has("never/touched"));
}

TEST(CounterRegistryTest, AddAccumulates) {
  CounterRegistry registry;
  registry.Add("greedy/heap_pushes");
  registry.Add("greedy/heap_pushes", 41);
  EXPECT_EQ(registry.Value("greedy/heap_pushes"), 42u);
  EXPECT_TRUE(registry.Has("greedy/heap_pushes"));
  EXPECT_FALSE(registry.empty());
}

TEST(CounterRegistryTest, SetOverwrites) {
  CounterRegistry registry;
  registry.Add("flow/augmenting_paths", 10);
  registry.Set("flow/augmenting_paths", 3);
  EXPECT_EQ(registry.Value("flow/augmenting_paths"), 3u);
}

TEST(CounterRegistryTest, GaugesAreSeparateFromCounters) {
  CounterRegistry registry;
  registry.SetGauge("online/calibrated_threshold", 0.75);
  EXPECT_TRUE(registry.Has("online/calibrated_threshold"));
  EXPECT_EQ(registry.Gauge("online/calibrated_threshold"), 0.75);
  EXPECT_EQ(registry.Value("online/calibrated_threshold"), 0u);
  registry.SetGauge("online/calibrated_threshold", 0.5);
  EXPECT_EQ(registry.Gauge("online/calibrated_threshold"), 0.5);
}

TEST(CounterRegistryTest, IterationIsKeyOrdered) {
  CounterRegistry registry;
  registry.Add("z/last", 1);
  registry.Add("a/first", 2);
  registry.Add("m/middle", 3);
  std::vector<std::string> keys;
  for (const auto& [key, value] : registry.counters()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a/first", "m/middle", "z/last"}));
}

TEST(CounterRegistryTest, MergeSumsCountersAndOverwritesGauges) {
  CounterRegistry a, b;
  a.Add("shared", 10);
  a.Add("only_a", 1);
  a.SetGauge("gauge", 1.0);
  b.Add("shared", 5);
  b.Add("only_b", 2);
  b.SetGauge("gauge", 2.0);
  a.Merge(b);
  EXPECT_EQ(a.Value("shared"), 15u);
  EXPECT_EQ(a.Value("only_a"), 1u);
  EXPECT_EQ(a.Value("only_b"), 2u);
  EXPECT_EQ(a.Gauge("gauge"), 2.0);
}

TEST(CounterRegistryTest, ClearEmpties) {
  CounterRegistry registry;
  registry.Add("x", 1);
  registry.SetGauge("y", 2.0);
  registry.Clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.Value("x"), 0u);
}

TEST(PhaseTimingsTest, RecordAccumulatesTotalAndCalls) {
  PhaseTimings timings;
  timings.Record("solve", 1.5);
  timings.Record("solve", 2.5);
  EXPECT_DOUBLE_EQ(timings.TotalMs("solve"), 4.0);
  EXPECT_EQ(timings.entries().at("solve").calls, 2u);
  EXPECT_EQ(timings.TotalMs("never"), 0.0);
}

TEST(PhaseTimingsTest, ScopedPhaseNestsIntoSlashPaths) {
  PhaseTimings timings;
  {
    ScopedPhase solve(&timings, "solve");
    { ScopedPhase inner(&timings, "build_heap"); }
    { ScopedPhase inner(&timings, "lazy_loop"); }
    { ScopedPhase inner(&timings, "lazy_loop"); }
  }
  EXPECT_EQ(timings.entries().count("solve"), 1u);
  EXPECT_EQ(timings.entries().count("solve/build_heap"), 1u);
  EXPECT_EQ(timings.entries().count("solve/lazy_loop"), 1u);
  EXPECT_EQ(timings.entries().at("solve/lazy_loop").calls, 2u);
  // The outer phase's wall time covers its children.
  EXPECT_GE(timings.TotalMs("solve"),
            timings.TotalMs("solve/build_heap"));
}

TEST(PhaseTimingsTest, SiblingAfterNestedScopeGetsCleanPath) {
  PhaseTimings timings;
  {
    ScopedPhase a(&timings, "a");
    { ScopedPhase b(&timings, "b"); }
  }
  { ScopedPhase c(&timings, "c"); }
  EXPECT_EQ(timings.entries().count("a/b"), 1u);
  EXPECT_EQ(timings.entries().count("c"), 1u);
  EXPECT_EQ(timings.entries().count("a/c"), 0u);
}

TEST(PhaseTimingsTest, NullTimingsIsANoOp) {
  // Must not crash or record anywhere; this is the disabled fast path.
  ScopedPhase phase(nullptr, "solve");
  ScopedPhase nested(nullptr, "inner");
}

TEST(PhaseTimingsTest, MergeAccumulates) {
  PhaseTimings a, b;
  a.Record("solve", 1.0);
  b.Record("solve", 2.0);
  b.Record("extract", 0.5);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.TotalMs("solve"), 3.0);
  EXPECT_EQ(a.entries().at("solve").calls, 2u);
  EXPECT_DOUBLE_EQ(a.TotalMs("extract"), 0.5);
}

TEST(PhaseTimingsTest, MergeKeepsNestedPaths) {
  // The roll-up pattern: nested phases recorded into separate timings,
  // then merged into one total.
  PhaseTimings total;
  for (int i = 0; i < 3; ++i) {
    PhaseTimings part;
    {
      ScopedPhase solve(&part, "solve");
      ScopedPhase scan(&part, "scan");
    }
    total.Merge(part);
  }
  EXPECT_EQ(total.entries().at("solve").calls, 3u);
  EXPECT_EQ(total.entries().at("solve/scan").calls, 3u);
  EXPECT_EQ(total.entries().count("scan"), 0u);
}

constexpr int kThreads = 4;
constexpr int kItersPerThread = 20000;

/// Runs `body(t)` on kThreads threads at once and joins them all.
template <typename Body>
void RunOnThreads(const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& th : threads) th.join();
}

// The registries are single-writer: concurrent workers each fill their
// own registry, and the owner merges them after join.
TEST(CounterRegistryThreads, ConcurrentAddsLoseNothing) {
  std::vector<CounterRegistry> per_thread(kThreads);
  RunOnThreads([&per_thread](int t) {
    CounterRegistry& reg = per_thread[static_cast<std::size_t>(t)];
    const std::string own = "stress/thread_" + std::to_string(t);
    for (int i = 0; i < kItersPerThread; ++i) {
      reg.Add("stress/shared");
      reg.Add(own, 2);
    }
  });
  CounterRegistry total;
  for (const CounterRegistry& reg : per_thread) total.Merge(reg);
  EXPECT_EQ(total.Value("stress/shared"),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(total.Value("stress/thread_" + std::to_string(t)),
              2u * kItersPerThread);
  }
}

TEST(CounterRegistryThreads, ConcurrentMixedOpsStayConsistent) {
  std::vector<CounterRegistry> per_thread(kThreads);
  RunOnThreads([&per_thread](int t) {
    CounterRegistry& reg = per_thread[static_cast<std::size_t>(t)];
    const std::string gauge = "stress/gauge_" + std::to_string(t);
    for (int i = 0; i < kItersPerThread / 10; ++i) {
      reg.Add("stress/mixed");
      reg.SetGauge(gauge, static_cast<double>(i));
      EXPECT_EQ(reg.Value("stress/mixed"), static_cast<std::uint64_t>(i) + 1);
      EXPECT_TRUE(reg.Has(gauge));
    }
  });
  CounterRegistry total;
  for (const CounterRegistry& reg : per_thread) total.Merge(reg);
  EXPECT_EQ(total.Value("stress/mixed"),
            static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 10));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(total.Gauge("stress/gauge_" + std::to_string(t)),
                     static_cast<double>(kItersPerThread / 10 - 1));
  }
}

TEST(CounterRegistryThreads, ConcurrentMergeIntoTotal) {
  // A registry handed from thread to thread keeps one writer at a time:
  // each worker merges its private registry into the total, in turn.
  CounterRegistry total;
  for (int t = 0; t < kThreads; ++t) {
    std::thread worker([&total, t] {
      CounterRegistry local;
      local.Add("merge/work", static_cast<std::uint64_t>(t) + 1);
      local.SetGauge("merge/gauge_" + std::to_string(t), 1.0);
      total.Merge(local);
    });
    worker.join();
  }
  std::uint64_t want = 0;
  for (int t = 0; t < kThreads; ++t) want += static_cast<std::uint64_t>(t) + 1;
  EXPECT_EQ(total.Value("merge/work"), want);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(total.Gauge("merge/gauge_" + std::to_string(t)), 1.0);
  }
}

TEST(PhaseTimingsThreads, ConcurrentRecordsAccumulate) {
  std::vector<PhaseTimings> per_thread(kThreads);
  RunOnThreads([&per_thread](int t) {
    PhaseTimings& timings = per_thread[static_cast<std::size_t>(t)];
    const std::string own = "solve/worker_" + std::to_string(t);
    for (int i = 0; i < kItersPerThread / 10; ++i) {
      timings.Record("solve", 0.001);
      timings.Record(own, 0.002);
    }
  });
  PhaseTimings total;
  for (const PhaseTimings& pt : per_thread) total.Merge(pt);
  const auto it = total.entries().find("solve");
  ASSERT_NE(it, total.entries().end());
  EXPECT_EQ(it->second.calls,
            static_cast<std::uint64_t>(kThreads) * (kItersPerThread / 10));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(total.TotalMs("solve/worker_" + std::to_string(t)), 0.0);
  }
}

}  // namespace
}  // namespace mbta
