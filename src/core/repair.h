#ifndef MBTA_CORE_REPAIR_H_
#define MBTA_CORE_REPAIR_H_

#include <cstddef>
#include <vector>

#include "market/objective.h"
#include "util/deadline.h"

namespace mbta {

/// Incremental repair for dynamic markets: instead of re-solving from
/// scratch when the market changes slightly, refill the existing
/// assignment locally. The resident MarketService (src/service) is the
/// one caller: each epoch re-anchors the carried pairs into an
/// ObjectiveState, then calls GreedyRefill once on the edges incident to
/// every entity a delta of the batch touched (or that lost a carried
/// pair), and escalates to a full re-solve when repair quality degrades
/// (see CONTRIBUTING.md, "Serving & durability"). A carried pair whose
/// worker and task nothing touched is never removed.

/// Work accounting for one repair, in the same units the greedy family
/// reports (marginal-gain evaluations). Aggregated by the service into
/// SolveStats::gain_evaluations.
struct RepairStats {
  std::size_t gain_evaluations = 0;  ///< MarginalGain calls made
  std::size_t edges_added = 0;       ///< edges the refill committed
  std::size_t edges_dropped = 0;     ///< previously-assigned edges shed
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
/// that passes CanAdd, and commits the first edge of the highest gain.
/// Already-chosen candidates fail CanAdd and cost nothing; a duplicated
/// candidate is evaluated, counted and charged once per copy on every
/// pass until it is added or stops fitting. Charges `gate` one work unit
/// before each gain evaluation when non-null and stops early once the
/// gate trips — the state is feasible at every step, so an interrupted
/// refill is still a valid (if less repaired) answer. When `evaluations`
/// is non-null, every evaluation is appended to it in scan order.
///
/// The scan does exactly the plain loop's work — same evaluations in the
/// same order, same gains to the bit — at a lower constant: candidates
/// that fail CanAdd are compacted out of the live list for good (loads
/// and the chosen set only grow inside one refill), each task's
/// requester term is computed once per pass, and each run of same-worker
/// candidates sorts the worker's chosen benefits once.
void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats = nullptr, DeadlineGate* gate = nullptr,
                  std::vector<RefillEvaluation>* evaluations = nullptr);

}  // namespace mbta

#endif  // MBTA_CORE_REPAIR_H_
