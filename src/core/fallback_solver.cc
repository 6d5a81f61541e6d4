#include "core/fallback_solver.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/timer.h"

namespace mbta {

namespace {

DeadlineBudget ShrunkBudget(DeadlineBudget budget, double factor) {
  if (budget.max_work != DeadlineBudget::kUnlimitedWork) {
    const double shrunk =
        static_cast<double>(budget.max_work) * factor;
    budget.max_work =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(shrunk));
  }
  if (budget.max_wall_ms > 0.0) budget.max_wall_ms *= factor;
  return budget;
}

}  // namespace

FallbackSolver::FallbackSolver(std::vector<Stage> stages, Options options)
    : stages_(std::move(stages)), chain_options_(options) {
  MBTA_CHECK(!stages_.empty());
  for (const Stage& stage : stages_) {
    MBTA_CHECK(stage.solver != nullptr);
  }
  MBTA_CHECK(chain_options_.max_retries >= 0);
  MBTA_CHECK(chain_options_.retry_budget_factor > 0.0 &&
             chain_options_.retry_budget_factor <= 1.0);
}

Assignment FallbackSolver::Solve(const MbtaProblem& problem,
                                 const SolveOptions& options,
                                 SolveInfo* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  Tracer* tracer = phases != nullptr ? phases->tracer() : nullptr;
  ScopedPhase solve_phase(phases, "fallback");
  const MutualBenefitObjective objective = problem.MakeObjective();

  // Chain-level gate: the caller's budget bounds the *whole* chain, one
  // charge per stage attempt (per-stage work is bounded by the stage
  // budgets, so this coarse unit is enough to honor wall deadlines at
  // stage boundaries). Faults and cancellation are threaded into the
  // stages themselves, where they are observed at fine granularity.
  DeadlineGate local_gate(options.budget);
  DeadlineGate* chain_gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;

  Assignment best;
  double best_value = objective.Value(best);
  std::size_t transitions = 0;
  std::size_t retries = 0;
  bool completed = false;
  bool cancelled = false;
  StopReason chain_reason = StopReason::kNone;

  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (chain_gate->Charge()) {
      chain_reason = chain_gate->reason();
      break;
    }
    // mbta-lint: alloc-ok(once per fallback stage, not a solver inner loop)
    const std::string stage_label = "stage_" + std::to_string(s);
    DeadlineBudget stage_budget = stages_[s].budget;
    int attempts_left = 1 + chain_options_.max_retries;
    while (attempts_left-- > 0) {
      SolveOptions stage_options;
      stage_options.budget = stage_budget;
      stage_options.faults = options.faults;
      stage_options.cancel = options.cancel;
      SolveStats stage_stats;
      // Thread the chain's tracer into the stage: the stage's own
      // ScopedPhase scopes then emit spans on the same timeline, nested
      // under this chain's "fallback"/"stage_N" spans (span depth belongs
      // to the tracer, not to any one PhaseTimings).
      stage_stats.phases.set_tracer(tracer);
      Assignment result;
      bool faulted = false;
      {
        ScopedPhase stage_phase(phases, stage_label);
        try {
          result = stages_[s].solver->Solve(problem, stage_options,
                                            &stage_stats);
        } catch (const FaultInjectedError&) {
          faulted = true;
        }
        if (info != nullptr) {
          // Keep whatever instrumentation the attempt accumulated, a
          // killed one too: the phase record of a killed stage is exactly
          // what an incident investigation wants to see. The stage's
          // phases land under "fallback/stage_N/", the open chain.
          info->counters.Merge(stage_stats.counters);
          info->phases.Merge(stage_stats.phases);
          info->histograms.Merge(stage_stats.histograms);
        }
      }
      if (faulted) {
        if (attempts_left > 0) {
          ++retries;
          // A retry is a degradation event: mark it on the timeline and
          // capture what the solver was doing when the fault landed.
          if (tracer != nullptr) {
            tracer->Instant("fallback/retry", "fallback");
            if (info != nullptr) {
              info->flight = tracer->SnapshotFlight("fallback/retry");
            }
          }
          stage_budget = ShrunkBudget(stage_budget,
                                      chain_options_.retry_budget_factor);
          continue;
        }
        break;  // retries exhausted: give up on this stage, downgrade
      }
      if (info != nullptr) {
        info->gain_evaluations += stage_stats.gain_evaluations;
        // A stage that degraded snapshotted its own flight recorder
        // (PublishBudgetOutcome); surface the first such snapshot.
        if (info->flight.empty() && !stage_stats.flight.empty()) {
          info->flight = stage_stats.flight;
        }
      }
      const double value = objective.Value(result);
      if (value > best_value) {
        best = result;
        best_value = value;
      }
      if (stage_stats.stop_reason == StopReason::kCancelled) {
        cancelled = true;
      } else if (!stage_stats.deadline_hit) {
        completed = true;
      } else {
        chain_reason = stage_stats.stop_reason;
      }
      break;  // stage attempt resolved (no transient fault)
    }
    if (completed || cancelled) break;
    if (s + 1 < stages_.size()) ++transitions;
  }

  if (info != nullptr) {
    info->counters.Add("solve/fallback/stage", transitions);
    info->counters.Add("solve/fallback/retry", retries);
    if (cancelled) {
      info->deadline_hit = true;
      info->stop_reason = StopReason::kCancelled;
    } else if (!completed) {
      info->deadline_hit = true;
      info->stop_reason = chain_reason != StopReason::kNone
                              ? chain_reason
                              : StopReason::kWorkBudget;
    }
    // Chain-level degradation with no stage-level snapshot (e.g. the
    // chain gate expired between stages): capture the flight now.
    if (info->deadline_hit && tracer != nullptr && info->flight.empty()) {
      info->flight = tracer->SnapshotFlight(
          cancelled ? "cancel" : "deadline");
    }
    info->wall_ms = timer.ElapsedMs();
  }
  return best;
}

}  // namespace mbta
