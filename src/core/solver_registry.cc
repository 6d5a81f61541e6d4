#include "core/solver_registry.h"

#include <utility>

#include "core/baseline_solvers.h"
#include "core/budget.h"
#include "core/budgeted_greedy_solver.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/online_solvers.h"
#include "core/stable_matching_solver.h"
#include "core/threshold_solver.h"

namespace mbta {

namespace {

struct Entry {
  std::string_view name;
  bool modular_only;
  /// Member of the standard comparison line-up (CreateStandardSolvers).
  bool standard;
  std::unique_ptr<Solver> (*make)(const SolverConfig&);
};

/// A solver built from constant constructor arguments.
template <typename S, auto... kArgs>
std::unique_ptr<Solver> Make(const SolverConfig&) {
  return std::make_unique<S>(kArgs...);
}

/// A solver built from the config's seed.
template <typename S>
std::unique_ptr<Solver> Seeded(const SolverConfig& config) {
  return std::make_unique<S>(config.seed);
}

std::unique_ptr<Solver> MakeLocalSearch(const SolverConfig& config) {
  LocalSearchSolver::Options options;
  options.max_passes = config.max_passes;
  return std::make_unique<LocalSearchSolver>(options);
}

std::unique_ptr<Solver> MakeBudgetedGreedy(const SolverConfig& config) {
  if (config.market == nullptr) return nullptr;
  return std::make_unique<BudgetedGreedySolver>(
      ProportionalBudgets(*config.market, 0.5));
}

constexpr auto kMatching =
    Make<ExactFlowSolver, ExactFlowSolver::Capacity::kUnit>;
constexpr auto kGreedyPlain = Make<GreedySolver, GreedySolver::Mode::kPlain>;

/// The line-up in display order: {name, modular_only, standard, factory}.
/// Each name matches its solver's name().
constexpr Entry kEntries[] = {
    {"exact-flow", true, true, Make<ExactFlowSolver>},
    {"greedy", false, true, Make<GreedySolver>},
    {"threshold", false, true, Make<ThresholdSolver>},
    {"local-search", false, true, MakeLocalSearch},
    {"matching", false, true, kMatching},
    {"stable-da", false, true, Make<StableMatchingSolver>},
    {"worker-centric", false, true, Make<WorkerCentricSolver>},
    {"requester-centric", false, true, Make<RequesterCentricSolver>},
    {"random", false, true, Seeded<RandomSolver>},
    {"greedy-plain", false, false, kGreedyPlain},
    {"online-greedy", false, false, Seeded<OnlineGreedySolver>},
    {"online-task-greedy", false, false, Seeded<TaskArrivalGreedySolver>},
    {"online-two-phase", false, false, Seeded<TwoPhaseOnlineSolver>},
    {"budgeted-greedy", false, false, MakeBudgetedGreedy},
};

const Entry* Find(std::string_view name) {
  for (const Entry& entry : kEntries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> SolverNames() {
  std::vector<std::string> names;
  for (const Entry& entry : kEntries) names.emplace_back(entry.name);
  return names;
}

bool IsModularOnly(std::string_view name) {
  const Entry* entry = Find(name);
  return entry != nullptr && entry->modular_only;
}

std::unique_ptr<Solver> CreateSolver(std::string_view name,
                                     const SolverConfig& config) {
  const Entry* entry = Find(name);
  return entry != nullptr ? entry->make(config) : nullptr;
}

std::vector<std::unique_ptr<Solver>> CreateSolvers(
    std::initializer_list<std::string_view> names,
    const SolverConfig& config) {
  std::vector<std::unique_ptr<Solver>> solvers;
  for (std::string_view name : names) {
    solvers.push_back(CreateSolver(name, config));
  }
  return solvers;
}

std::vector<std::unique_ptr<Solver>> CreateStandardSolvers(
    ObjectiveKind objective, const SolverConfig& config) {
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const Entry& entry : kEntries) {
    if (!entry.standard) continue;
    if (entry.modular_only && objective != ObjectiveKind::kModular) continue;
    solvers.push_back(entry.make(config));
  }
  return solvers;
}

std::unique_ptr<FallbackSolver> CreateFallbackChain(
    std::string_view spec, const DeadlineBudget& stage_budget) {
  std::vector<FallbackSolver::Stage> stages;
  while (true) {
    const std::size_t end = spec.find('>');
    std::shared_ptr<const Solver> solver = CreateSolver(spec.substr(0, end));
    if (solver == nullptr) return nullptr;
    stages.push_back({std::move(solver), stage_budget});
    if (end == std::string_view::npos) break;
    spec.remove_prefix(end + 1);
  }
  // The floor runs unbudgeted: it must always deliver a complete
  // feasible assignment.
  stages.back().budget = DeadlineBudget{};
  return std::make_unique<FallbackSolver>(std::move(stages));
}

}  // namespace mbta
