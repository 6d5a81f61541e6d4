#ifndef MBTA_CORE_REPAIR_H_
#define MBTA_CORE_REPAIR_H_

#include <cstddef>
#include <vector>

#include "market/objective.h"
#include "util/deadline.h"

namespace mbta {

/// Incremental repair for dynamic markets: instead of re-solving from
/// scratch when the market changes slightly, patch the existing
/// assignment locally. All functions return a feasible (validator-clean)
/// assignment and never touch pairs unaffected by the change. They are
/// the building blocks of the resident MarketService (src/service), which
/// chains them per delta inside an epoch and escalates to a full re-solve
/// when repair quality degrades (see CONTRIBUTING.md, "Serving &
/// durability").

/// Work accounting for one repair call, in the same units the greedy
/// family reports (marginal-gain evaluations). Aggregated by the service
/// into SolveStats::gain_evaluations.
struct RepairStats {
  std::size_t gain_evaluations = 0;  ///< MarginalGain calls made
  std::size_t edges_added = 0;       ///< edges the refill committed
  std::size_t edges_dropped = 0;     ///< previously-assigned edges shed
};

/// Endpoints a refill must leave alone: candidates touching the banned
/// worker or task are skipped without being evaluated (kNoBan = none).
/// The removal paths ban the departed entity from its own backfill.
inline constexpr VertexId kNoBan = static_cast<VertexId>(-1);
struct RefillBans {
  WorkerId worker = kNoBan;
  TaskId task = kNoBan;
};

/// One gain evaluation of a refill scan: the candidate and its marginal
/// gain, bit-identical to ObjectiveState::MarginalGain at that moment.
struct RefillEvaluation {
  EdgeId edge;
  double gain;
};

/// Greedily adds the best positive-marginal feasible edge from
/// `candidates` until none improves: each pass scans the candidates in
/// the order given (callers sort for determinism), evaluates every one
/// that is not banned and passes CanAdd, and commits the first edge of
/// the highest gain. Already-chosen candidates fail CanAdd and cost
/// nothing; a duplicated candidate is evaluated, counted and charged
/// once per copy on every pass until it is added or stops fitting.
/// Charges `gate` one work unit before each gain evaluation when
/// non-null and stops early once the gate trips — the state is feasible
/// at every step, so an interrupted refill is still a valid (if less
/// repaired) answer. When `evaluations` is non-null, every evaluation is
/// appended to it in scan order.
///
/// The scan does exactly the plain loop's work — same evaluations in the
/// same order, same gains to the bit — at a lower constant: candidates
/// that fail CanAdd or a ban are compacted out of the live list for
/// good (loads and the chosen set only grow inside one refill), each
/// task's requester term is computed once per pass, and each run of
/// same-worker candidates sorts the worker's chosen benefits once.
void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats = nullptr, DeadlineGate* gate = nullptr,
                  RefillBans bans = {},
                  std::vector<RefillEvaluation>* evaluations = nullptr);

/// Worker `w` leaves the platform: drop all of its assignments, then
/// greedily refill the capacity slack this opened on the affected tasks
/// (best positive-marginal feasible edges, other workers only).
Assignment RemoveWorkerAndRepair(const MutualBenefitObjective& objective,
                                 const Assignment& current, WorkerId w,
                                 RepairStats* stats = nullptr);

/// Task `t` is withdrawn by its requester: drop its assignments, then let
/// each freed worker greedily pick replacement tasks.
Assignment RemoveTaskAndRepair(const MutualBenefitObjective& objective,
                               const Assignment& current, TaskId t,
                               RepairStats* stats = nullptr);

/// Worker `w` just arrived (it exists in the market, `current` holds none
/// of its edges): greedily assign it its best positive-marginal feasible
/// edges. Localized — only w's incident edges are candidates, nothing
/// already assigned moves.
Assignment AddWorkerAndRepair(const MutualBenefitObjective& objective,
                              const Assignment& current, WorkerId w,
                              RepairStats* stats = nullptr);

/// Task `t` was just posted: greedily staff it from workers with spare
/// capacity. Symmetric to AddWorkerAndRepair.
Assignment AddTaskAndRepair(const MutualBenefitObjective& objective,
                            const Assignment& current, TaskId t,
                            RepairStats* stats = nullptr);

/// Worker `w`'s attributes changed in the market `objective` now wraps
/// (capacity raised or lowered, cost shifted): re-fit its assignments.
/// Every other pair of `current` is kept; w's previous edges are re-added
/// best-marginal-first while feasible (so a capacity cut sheds the least
/// valuable ones), then the slack around w and its affected tasks is
/// greedily refilled. `current` may be infeasible *at w* under the new
/// capacity — that is the expected input.
Assignment PatchWorkerAndRepair(const MutualBenefitObjective& objective,
                                const Assignment& current, WorkerId w,
                                RepairStats* stats = nullptr);

/// Task-side twin of PatchWorkerAndRepair, covering capacity, payment,
/// and value changes on task `t` (a payment change moves every incident
/// edge's worker benefit, so t's pairs are re-chosen under the new
/// attributes).
Assignment PatchTaskAndRepair(const MutualBenefitObjective& objective,
                              const Assignment& current, TaskId t,
                              RepairStats* stats = nullptr);

}  // namespace mbta

#endif  // MBTA_CORE_REPAIR_H_
