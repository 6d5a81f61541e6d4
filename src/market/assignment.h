#ifndef MBTA_MARKET_ASSIGNMENT_H_
#define MBTA_MARKET_ASSIGNMENT_H_

#include <cstddef>
#include <vector>

#include "market/labor_market.h"

namespace mbta {

/// An assignment is a set of eligibility edges chosen by a solver: edge
/// (w, t) present means worker w is assigned to task t. Stored as a plain
/// edge-id list; feasibility (capacities, no duplicates) is checked by
/// IsFeasible.
struct Assignment {
  std::vector<EdgeId> edges;

  std::size_t size() const { return edges.size(); }
  bool empty() const { return edges.empty(); }
};

/// True iff the assignment uses each edge at most once and respects every
/// worker and task capacity.
bool IsFeasible(const LaborMarket& market, const Assignment& a);

/// Per-worker load (number of assigned tasks) under `a`.
std::vector<int> WorkerLoads(const LaborMarket& market, const Assignment& a);

/// Per-task load (number of assigned workers) under `a`.
std::vector<int> TaskLoads(const LaborMarket& market, const Assignment& a);

/// Edges of `a` grouped per task: result[t] lists edge ids assigned to t.
std::vector<std::vector<EdgeId>> EdgesByTask(const LaborMarket& market,
                                             const Assignment& a);

/// Edges of `a` grouped per worker.
std::vector<std::vector<EdgeId>> EdgesByWorker(const LaborMarket& market,
                                               const Assignment& a);

}  // namespace mbta

#endif  // MBTA_MARKET_ASSIGNMENT_H_
