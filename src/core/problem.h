#ifndef MBTA_CORE_PROBLEM_H_
#define MBTA_CORE_PROBLEM_H_

#include <cstddef>

#include "market/objective.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/phase_timer.h"
#include "obs/trace.h"
#include "util/deadline.h"

namespace mbta {

/// An MBTA problem instance: a labor market plus the mutual-benefit
/// objective to maximize over it (trade-off α and modular/submodular
/// benefit structure), subject to worker and task capacities.
struct MbtaProblem {
  const LaborMarket* market = nullptr;
  ObjectiveParams objective;

  MutualBenefitObjective MakeObjective() const {
    return MutualBenefitObjective(market, objective);
  }
};

/// Solver-side accounting, filled in by Solve() when requested. Passing
/// nullptr disables instrumentation entirely — solvers then skip every
/// counter publish and phase-timer clock read, so the disabled path costs
/// nothing. Instrumentation never changes a solver's output: with or
/// without a SolveStats attached, the returned assignment is
/// byte-identical (enforced by tests/differential_test.cc).
struct SolveStats {
  /// Wall-clock time of the solve, milliseconds.
  double wall_ms = 0.0;

  /// The solver's *dominant work counter* — the unit a complexity claim
  /// about it should be stated in, mirroring how the submodular-
  /// maximization literature counts oracle calls rather than seconds:
  ///  * greedy family / local search / online / budgeted: marginal-gain
  ///    evaluations (ObjectiveState::MarginalGain calls);
  ///  * exact-flow and matching baselines: augmenting paths shipped by
  ///    the min-cost-flow core;
  ///  * sort-and-scan baselines (worker-/requester-centric, random):
  ///    candidate edges scanned;
  ///  * stable matching: proposals made;
  ///  * brute force: search-tree nodes visited.
  /// Per-solver breakdowns beyond the headline number live in `counters`.
  std::size_t gain_evaluations = 0;

  /// Named work counters and gauges (stable keys, see CONTRIBUTING.md
  /// "Observability"). Every standard solver publishes at least one
  /// solver-specific counter here.
  CounterRegistry counters;

  /// Nested wall-clock phase breakdown (e.g. "solve/build_heap",
  /// "flow/augment"). Every standard solver records at least one phase.
  /// Attaching a Tracer here (`phases.set_tracer(...)`) before the solve
  /// additionally turns every phase into a timeline span — see
  /// CONTRIBUTING.md, "Tracing".
  PhaseTimings phases;

  /// Named value distributions (fixed deterministic boundaries), e.g.
  /// "greedy/gain" or "latency/solve_ms". Time-valued
  /// histograms use the "latency/" prefix, which the bench_compare
  /// determinism gates skip.
  HistogramRegistry histograms;

  /// True when the solve stopped early — DeadlineBudget exhausted (work
  /// units or wall clock) or cooperative cancellation observed. The
  /// returned assignment is still feasible and validator-clean; it is
  /// the solver's best answer found within the budget, not its full-run
  /// answer.
  bool deadline_hit = false;

  /// Why the solve stopped early; StopReason::kNone on a full run.
  StopReason stop_reason = StopReason::kNone;

  /// Flight-recorder snapshot: when a tracer is attached and the solve
  /// degrades (deadline hit, cancellation, fallback retry), the last N
  /// trace events are captured here for post-mortems. Empty otherwise.
  TraceSnapshot flight;
};

/// Historic name of SolveStats, kept as an alias so pre-instrumentation
/// call sites (`SolveInfo info; solver.Solve(p, &info);`) compile
/// unchanged.
using SolveInfo = SolveStats;

}  // namespace mbta

#endif  // MBTA_CORE_PROBLEM_H_
