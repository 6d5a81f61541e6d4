/// Cooperative cancellation: a solve stopped by a std::atomic<bool> flag
/// (set in-line or from a second thread) returns a feasible,
/// ValidateAssignment-clean assignment with StopReason::kCancelled.
///
/// The local-search test also routes progress through a shared
/// CounterRegistry, mirroring how a serving thread and a watchdog share
/// observability state. The registry takes no lock: the watchdog alone
/// writes it until join(), which orders every later access. Under
/// scripts/check.sh's TSan leg any missing synchronization is a hard
/// failure.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/local_search_solver.h"
#include "core/solve_options.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "obs/counters.h"
#include "util/deadline.h"

namespace mbta {
namespace {

TEST(CancellationTest, PreSetFlagCancelsEveryStandardSolver) {
  const std::uint64_t seed = 0xCA9CE1;
  const LaborMarket market = GenerateMarket(UniformConfig(40, 35, seed));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
  std::atomic<bool> cancel{true};
  SolveOptions options;
  options.cancel = &cancel;
  for (const std::string& name : SolverNames()) {
    SCOPED_TRACE("solver=" + name);
    SolveStats stats;
    const Assignment a = CreateSolver(name, {.seed = seed, .market = &market})
                             ->Solve(p, options, &stats);
    const ValidationResult r = ValidateAssignment(p, a);
    EXPECT_TRUE(r.ok()) << r.Message();
    EXPECT_TRUE(stats.deadline_hit);
    EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
    EXPECT_GE(stats.counters.Value("cancel/observed"), 1u);
  }
}

TEST(CancellationTest, ClearedFlagDoesNotPerturbResult) {
  const LaborMarket market = GenerateMarket(UniformConfig(30, 30, 7));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  std::atomic<bool> cancel{false};
  SolveOptions options;
  options.cancel = &cancel;
  SolveStats stats;
  const Assignment a = GreedySolver().Solve(p, options, &stats);
  EXPECT_FALSE(stats.deadline_hit);
  EXPECT_EQ(a.edges, GreedySolver().Solve(p).edges);
}

TEST(CancellationTest, SecondThreadCancelsLongLocalSearch) {
  // Big dense instance: local search alone runs long enough that the
  // watchdog thread's cancel lands mid-solve on any realistic machine.
  // The assertions hold either way (feasible result, coherent stats), so
  // a machine fast enough to finish first only loses coverage, not
  // correctness.
  const LaborMarket market = GenerateMarket(UniformConfig(250, 250, 31));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};

  std::atomic<bool> cancel{false};
  CounterRegistry shared;  // the watchdog, then (after join) this thread
  SolveOptions options;
  options.cancel = &cancel;

  std::thread watchdog([&cancel, &shared] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancel.store(true, std::memory_order_release);
    shared.Add("cancel/requested");
  });

  SolveStats stats;
  const Assignment a = LocalSearchSolver().Solve(p, options, &stats);
  watchdog.join();
  shared.Add("solve/returned");
  shared.Merge(stats.counters);
  EXPECT_EQ(shared.Value("cancel/requested"), 1u);
  EXPECT_EQ(shared.Value("solve/returned"), 1u);

  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  if (stats.deadline_hit) {
    EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
    EXPECT_GE(stats.counters.Value("cancel/observed"), 1u);
  }
}

TEST(CancellationTest, SecondThreadCancelsFallbackChain) {
  const LaborMarket market = GenerateMarket(UniformConfig(200, 200, 32));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kModular}};

  std::atomic<bool> cancel{false};
  SolveOptions options;
  options.cancel = &cancel;

  std::thread watchdog([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel.store(true, std::memory_order_release);
  });

  const auto chain = CreateFallbackChain(kStandardFallbackChain);
  SolveStats stats;
  const Assignment a = chain->Solve(p, options, &stats);
  watchdog.join();

  const ValidationResult r = ValidateAssignment(p, a);
  EXPECT_TRUE(r.ok()) << r.Message();
  if (stats.deadline_hit) {
    EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
  }
}

}  // namespace
}  // namespace mbta
