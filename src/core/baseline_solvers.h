#ifndef MBTA_CORE_BASELINE_SOLVERS_H_
#define MBTA_CORE_BASELINE_SOLVERS_H_

#include <cstdint>
#include <string>

#include "core/solver.h"

namespace mbta {

/// Assigns edges in a uniformly random order, accepting every edge that is
/// still capacity-feasible. The sanity floor every real algorithm must
/// clear.
class RandomSolver : public Solver {
 public:
  explicit RandomSolver(std::uint64_t seed = 1) : seed_(seed) {}

  std::string name() const override { return "random"; }

  using Solver::Solve;
  /// Budget granularity: one work unit per candidate edge scanned.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveInfo* info = nullptr) const override;

 private:
  std::uint64_t seed_;
};

/// Worker-centric baseline: every worker myopically grabs its highest
/// worker-benefit tasks (first come, first served on task capacity). This
/// is the "workers choose" regime of real platforms — strong on the worker
/// side, blind to answer quality.
class WorkerCentricSolver : public Solver {
 public:
  WorkerCentricSolver() = default;

  std::string name() const override { return "worker-centric"; }

  using Solver::Solve;
  /// Budget granularity: one work unit per candidate edge scanned.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveInfo* info = nullptr) const override;
};

/// Requester-centric baseline: every task grabs its highest-quality
/// workers (first come, first served on worker capacity). The classic
/// quality-only assignment literature — strong on the requester side,
/// blind to worker payoff.
class RequesterCentricSolver : public Solver {
 public:
  RequesterCentricSolver() = default;

  std::string name() const override { return "requester-centric"; }

  using Solver::Solve;
  /// Budget granularity: one work unit per candidate edge scanned.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveInfo* info = nullptr) const override;
};

}  // namespace mbta

#endif  // MBTA_CORE_BASELINE_SOLVERS_H_
