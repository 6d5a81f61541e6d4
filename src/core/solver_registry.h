#ifndef MBTA_CORE_SOLVER_REGISTRY_H_
#define MBTA_CORE_SOLVER_REGISTRY_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fallback_solver.h"
#include "core/local_search_solver.h"
#include "core/problem.h"
#include "core/solver.h"
#include "market/labor_market.h"
#include "util/deadline.h"

namespace mbta {

/// The solver line-up, named once: one table in solver_registry.cc that
/// every tool, bench and test sweep over "all solvers" reads. Display
/// order: the standard comparison line-up (exact-flow, greedy, threshold,
/// local-search, matching, stable-da, worker-centric, requester-centric,
/// random), then greedy-plain, the online family and budgeted-greedy.

/// The settings callers pass to the solvers they build by name.
struct SolverConfig {
  /// Seed of the randomized solvers (random and the online family).
  std::uint64_t seed = 1;
  /// Local search's cap on full improvement passes.
  int max_passes = LocalSearchSolver::Options{}.max_passes;
  /// Market budgeted-greedy derives its requester budgets from
  /// (ProportionalBudgets(*market, 0.5)); no other solver reads it.
  const LaborMarket* market = nullptr;
};

/// Every registered name, in display order.
std::vector<std::string> SolverNames();

/// True for solvers that accept only the modular objective (exact-flow).
/// False for unknown names.
bool IsModularOnly(std::string_view name);

/// Builds the named solver, or returns nullptr for an unknown name (or
/// for budgeted-greedy when `config.market` is null).
std::unique_ptr<Solver> CreateSolver(std::string_view name,
                                     const SolverConfig& config = {});

/// CreateSolver for each name, in order.
std::vector<std::unique_ptr<Solver>> CreateSolvers(
    std::initializer_list<std::string_view> names,
    const SolverConfig& config = {});

/// The standard comparison line-up in display order; modular-only
/// solvers are included only when `objective` is modular.
std::vector<std::unique_ptr<Solver>> CreateStandardSolvers(
    ObjectiveKind objective, const SolverConfig& config = {});

/// The standard degradation chain for *modular* instances: exact flow
/// (optimal but super-linear) → greedy (near-optimal, fast) →
/// worker-centric (trivial floor).
inline constexpr std::string_view kStandardFallbackChain =
    "exact-flow>greedy>worker-centric";

/// Builds a FallbackSolver from a '>'-separated list of registered names.
/// Every stage but the last gets `stage_budget`; the last (the floor)
/// runs unbudgeted so the chain always returns a complete feasible
/// assignment. Returns nullptr for a malformed spec: empty, an empty
/// stage, or a name CreateSolver cannot build.
std::unique_ptr<FallbackSolver> CreateFallbackChain(
    std::string_view spec, const DeadlineBudget& stage_budget = {});

}  // namespace mbta

#endif  // MBTA_CORE_SOLVER_REGISTRY_H_
