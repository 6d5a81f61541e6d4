#ifndef MBTA_CORE_SOLVE_OPTIONS_H_
#define MBTA_CORE_SOLVE_OPTIONS_H_

#include <atomic>

#include "core/problem.h"
#include "util/arena.h"
#include "util/deadline.h"
#include "util/fault_injector.h"

namespace mbta {

/// Per-call solve configuration, threaded through Solver::Solve. The
/// default-constructed value reproduces the unbudgeted behaviour exactly:
/// with `budget.unlimited()`, no fault injector and no cancel flag, every
/// solver returns output byte-identical to `Solve(problem, info)`
/// (enforced by tests/differential_test.cc).
struct SolveOptions {
  /// Work-unit and wall-clock budget for this solve. On expiry the
  /// solver stops cooperatively and returns its best-so-far *feasible*
  /// assignment, with SolveStats::deadline_hit set.
  DeadlineBudget budget;

  /// Optional fault-injection harness (tests only). Solvers fire named
  /// fault points through it; null disables injection entirely.
  FaultInjector* faults = nullptr;

  /// Optional cooperative cancellation flag, typically set from another
  /// thread. Polled by the DeadlineGate; when observed the solve stops
  /// like a deadline hit, with StopReason::kCancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// Internal composition hook: a composite solver (local search seeding
  /// from greedy, FallbackSolver stages) passes its own gate here so the
  /// sub-solve draws from the *same* budget instead of restarting it.
  /// End users leave this null.
  DeadlineGate* shared_gate = nullptr;
};

/// Builds the gate a solver should poll for `options`. Idiom:
///
///   DeadlineGate local_gate = MakeGate(options);
///   DeadlineGate* gate =
///       options.shared_gate != nullptr ? options.shared_gate : &local_gate;
///
/// so a shared parent gate (when present) wins over a fresh local one.
inline DeadlineGate MakeGate(const SolveOptions& options) {
  return DeadlineGate(options.budget, options.faults, options.cancel);
}

/// Publishes the gate's outcome into `info` (null-safe): sets
/// `deadline_hit`/`stop_reason` and bumps the "deadline/hit" or
/// "cancel/observed" counter. Call once at the end of Solve with the
/// gate the solver actually polled.
void PublishBudgetOutcome(const DeadlineGate& gate, SolveStats* info);

/// Publishes a solve's scratch-arena footprint: "alloc/arena_resets" (a
/// counter — every solve rewinds its solver's scratch exactly once, so
/// the value is deterministic and joins the exact diff) and
/// "alloc/arena_bytes" (a gauge — bytes bump-allocated this solve; kept
/// out of the exact diff like mem/peak_rss_kb, since capacity-growth
/// heuristics may legitimately change it). Call at the end of Solve on
/// solvers that own a ScratchPool; `info` may be null.
void PublishArenaStats(const Arena& arena, SolveStats* info);

}  // namespace mbta

#endif  // MBTA_CORE_SOLVE_OPTIONS_H_
