#ifndef MBTA_CORE_FALLBACK_SOLVER_H_
#define MBTA_CORE_FALLBACK_SOLVER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"

namespace mbta {

/// Degradation chain: runs a primary solver under a per-stage budget and,
/// when that budget expires or an injected transient fault kills the
/// stage, falls back to progressively cheaper solvers — down to a trivial
/// floor that always completes. The chain keeps the best-by-objective
/// feasible assignment seen across stages, so a partial answer from an
/// expensive stage is never thrown away for a worse complete one.
///
/// Contract (see CONTRIBUTING.md "Robustness"):
///  * Stages run in order; each gets its own DeadlineBudget.
///  * A stage that completes within budget ends the chain immediately.
///  * A stage that throws FaultInjectedError is retried up to
///    `max_retries` times with its budget shrunk by `retry_budget_factor`
///    (transient-failure model: less work, better odds); once retries are
///    exhausted the chain moves on.
///  * Every downgrade (stage i → stage i+1) bumps the
///    "solve/fallback/stage" counter; retries bump
///    "solve/fallback/retry".
///  * Cooperative cancellation stops the whole chain, not just the
///    current stage.
///  * `deadline_hit` on the chain's SolveStats means no stage ran to
///    completion (the result is a best-effort partial); a completed
///    fallback stage clears it but leaves the stage counter as the
///    degradation record.
class FallbackSolver : public Solver {
 public:
  struct Stage {
    std::shared_ptr<const Solver> solver;
    /// Budget this stage may burn before the chain downgrades.
    DeadlineBudget budget;
  };

  struct Options {
    /// Retries per stage after an injected transient failure.
    int max_retries = 1;
    /// Budget shrink factor applied on each retry.
    double retry_budget_factor = 0.5;
  };

  explicit FallbackSolver(std::vector<Stage> stages)
      : FallbackSolver(std::move(stages), Options()) {}
  FallbackSolver(std::vector<Stage> stages, Options options);

  std::string name() const override { return "fallback"; }

  using Solver::Solve;
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveInfo* info = nullptr) const override;

  const std::vector<Stage>& stages() const { return stages_; }

 private:
  std::vector<Stage> stages_;
  Options chain_options_;
};

}  // namespace mbta

#endif  // MBTA_CORE_FALLBACK_SOLVER_H_
