#ifndef MBTA_CORE_SOLVER_H_
#define MBTA_CORE_SOLVER_H_

#include <string>

#include "core/problem.h"
#include "core/solve_options.h"
#include "market/assignment.h"

namespace mbta {

/// Common interface of all task-assignment algorithms. Implementations are
/// stateless with respect to the problem (configuration lives in the
/// constructor), so one solver object can be reused across instances.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Short stable identifier used in experiment tables, e.g. "greedy".
  virtual std::string name() const = 0;

  /// Historic entry point, kept callable on every solver: equivalent to
  /// Solve(problem, SolveOptions{}, info). Implementations bring it into
  /// scope with `using Solver::Solve;`.
  Assignment Solve(const MbtaProblem& problem, SolveInfo* info) const {
    return Solve(problem, SolveOptions{}, info);
  }

  /// Computes a feasible assignment for the problem. `info`, when
  /// non-null, receives timing and work counters. `options` carries the
  /// robustness knobs (DeadlineBudget, fault injection, cancellation);
  /// the default value reproduces the unbudgeted solve byte-for-byte.
  /// On budget expiry the solver returns its best-so-far *feasible*
  /// assignment and marks `info->deadline_hit` — never a partial or
  /// invalid one.
  virtual Assignment Solve(const MbtaProblem& problem,
                           const SolveOptions& options = {},
                           SolveInfo* info = nullptr) const = 0;
};

}  // namespace mbta

#endif  // MBTA_CORE_SOLVER_H_
