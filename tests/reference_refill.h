#ifndef MBTA_TESTS_REFERENCE_REFILL_H_
#define MBTA_TESTS_REFERENCE_REFILL_H_

#include <vector>

#include "core/repair.h"

namespace mbta {

/// The plain-scan refill that GreedyRefill's compacting scan replaced,
/// kept as the oracle of refill_differential_test: every pass rescans
/// all candidates and evaluates each feasible one with MarginalGain. The
/// only addition is the `evaluations` record.
inline void ReferenceRefill(ObjectiveState& state,
                            const std::vector<EdgeId>& candidates,
                            RepairStats* stats, DeadlineGate* gate,
                            std::vector<RefillEvaluation>* evaluations) {
  for (;;) {
    double best_gain = 1e-12;
    EdgeId best_edge = kInvalidEdge;
    for (EdgeId e : candidates) {
      if (!state.CanAdd(e)) continue;
      if (gate != nullptr && gate->Charge()) return;
      const double gain = state.MarginalGain(e);
      if (stats != nullptr) ++stats->gain_evaluations;
      if (evaluations != nullptr) evaluations->push_back({e, gain});
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e;
      }
    }
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    if (stats != nullptr) ++stats->edges_added;
  }
}

}  // namespace mbta

#endif  // MBTA_TESTS_REFERENCE_REFILL_H_
