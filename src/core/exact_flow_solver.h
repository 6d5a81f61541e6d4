#ifndef MBTA_CORE_EXACT_FLOW_SOLVER_H_
#define MBTA_CORE_EXACT_FLOW_SOLVER_H_

#include <string>

#include "core/solver.h"

namespace mbta {

/// Exact solver for the *modular* MBTA objective via min-cost flow: the
/// capacitated assignment is a transportation problem, so routing flow on
/// the network  source →(cap(w))→ workers →(1, cost = −edge weight)→ tasks
/// →(cap(t))→ sink  and augmenting only along negative-cost paths yields
/// the benefit-maximizing feasible assignment.
///
/// Edge weights are scaled to a 1e-6 fixed-point grid (documented bound on
/// the optimality gap: ≤ |E| · 1e-6). Rejects submodular instances — use
/// greedy/local search there, with this solver as the modular reference.
///
/// Capacity::kUnit sets every capacity to 1: the "matching" baseline
/// (max-weight bipartite matching on either objective), standing for
/// prior work that ignores the capacitated structure.
class ExactFlowSolver : public Solver {
 public:
  enum class Capacity { kMarket, kUnit };

  explicit ExactFlowSolver(Capacity capacity = Capacity::kMarket)
      : capacity_(capacity) {}

  std::string name() const override {
    return capacity_ == Capacity::kMarket ? "exact-flow" : "matching";
  }

  using Solver::Solve;
  /// Budget granularity: one work unit per augmenting-path attempt in
  /// the min-cost-flow core. On expiry the partial flow is decomposed
  /// into an assignment — every full augmentation keeps the flow
  /// integral and capacity-feasible, so the prefix is a valid (if
  /// suboptimal) assignment. Fault point "flow/build_arc" fires per
  /// network arc during graph construction.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveInfo* info = nullptr) const override;

  /// Fixed-point scale for benefit-to-cost conversion.
  static constexpr double kScale = 1e6;

 private:
  Capacity capacity_;
};

}  // namespace mbta

#endif  // MBTA_CORE_EXACT_FLOW_SOLVER_H_
