#include "market/assignment.h"

#include <cstdint>

#include "util/check.h"

namespace mbta {

bool IsFeasible(const LaborMarket& market, const Assignment& a) {
  std::vector<int> worker_load(market.NumWorkers(), 0);
  std::vector<int> task_load(market.NumTasks(), 0);
  // Duplicate detection via a dense seen-bitmap: ids are validated
  // against NumEdges() first, so direct indexing is safe (and, unlike a
  // hash set, has no nondeterministic behavior to leak anywhere).
  std::vector<std::uint8_t> seen(market.NumEdges(), 0);
  for (EdgeId e : a.edges) {
    if (e >= market.NumEdges()) return false;
    if (seen[e] != 0) return false;  // duplicate edge
    seen[e] = 1;
    const WorkerId w = market.EdgeWorker(e);
    const TaskId t = market.EdgeTask(e);
    if (++worker_load[w] > market.worker(w).capacity) return false;
    if (++task_load[t] > market.task(t).capacity) return false;
  }
  return true;
}

std::vector<int> WorkerLoads(const LaborMarket& market, const Assignment& a) {
  std::vector<int> load(market.NumWorkers(), 0);
  for (EdgeId e : a.edges) ++load[market.EdgeWorker(e)];
  return load;
}

std::vector<int> TaskLoads(const LaborMarket& market, const Assignment& a) {
  std::vector<int> load(market.NumTasks(), 0);
  for (EdgeId e : a.edges) ++load[market.EdgeTask(e)];
  return load;
}

std::vector<std::vector<EdgeId>> EdgesByTask(const LaborMarket& market,
                                             const Assignment& a) {
  std::vector<std::vector<EdgeId>> by_task(market.NumTasks());
  for (EdgeId e : a.edges) by_task[market.EdgeTask(e)].push_back(e);
  return by_task;
}

std::vector<std::vector<EdgeId>> EdgesByWorker(const LaborMarket& market,
                                               const Assignment& a) {
  std::vector<std::vector<EdgeId>> by_worker(market.NumWorkers());
  for (EdgeId e : a.edges) by_worker[market.EdgeWorker(e)].push_back(e);
  return by_worker;
}

}  // namespace mbta
