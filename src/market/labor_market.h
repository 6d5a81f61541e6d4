#ifndef MBTA_MARKET_LABOR_MARKET_H_
#define MBTA_MARKET_LABOR_MARKET_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "market/types.h"

namespace mbta {

/// An immutable bipartite labor market: workers, tasks, the eligibility
/// graph between them, and the per-edge attributes (answer quality and
/// worker-side benefit) every solver consumes.
///
/// Built by LaborMarketBuilder. Workers are the graph's left side, tasks
/// the right side; edge ids index the attribute arrays.
class LaborMarket {
 public:
  LaborMarket() = default;

  std::size_t NumWorkers() const { return workers_.size(); }
  std::size_t NumTasks() const { return tasks_.size(); }
  std::size_t NumEdges() const { return graph_.NumEdges(); }

  const Worker& worker(WorkerId w) const { return workers_[w]; }
  const Task& task(TaskId t) const { return tasks_[t]; }
  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  const BipartiteGraph& graph() const { return graph_; }

  WorkerId EdgeWorker(EdgeId e) const { return graph_.EdgeLeft(e); }
  TaskId EdgeTask(EdgeId e) const { return graph_.EdgeRight(e); }

  /// q(w, t) for the edge.
  double Quality(EdgeId e) const { return quality_[e]; }
  /// wb(w, t) for the edge.
  double WorkerBenefit(EdgeId e) const { return worker_benefit_[e]; }

  /// Per-edge attribute columns, indexed by EdgeId. Attributes are stored
  /// structure-of-arrays so gain kernels (ObjectiveState::MarginalGain,
  /// the repair refill) stream one contiguous column per quantity instead
  /// of striding through an array of structs; the scalar accessors above
  /// read the same memory, so the two paths can never disagree.
  std::span<const double> Qualities() const { return quality_; }
  std::span<const double> WorkerBenefits() const { return worker_benefit_; }
  /// V(task(e)) replicated per edge, sparing kernels the EdgeId → TaskId →
  /// Task indirection on the hot path.
  std::span<const double> EdgeTaskValues() const { return task_value_; }

  /// Edges incident to a worker / task.
  std::span<const Incidence> WorkerEdges(WorkerId w) const {
    return graph_.LeftNeighbors(w);
  }
  std::span<const Incidence> TaskEdges(TaskId t) const {
    return graph_.RightNeighbors(t);
  }

  /// Human-readable label, e.g. "MTurkLike(seed=7)". Set by generators.
  const std::string& name() const { return name_; }

 private:
  friend class LaborMarketBuilder;

  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  BipartiteGraph graph_;
  // Edge attributes, one column per quantity (see Qualities() above).
  std::vector<double> quality_;
  std::vector<double> worker_benefit_;
  std::vector<double> task_value_;
  std::string name_;
};

/// Assembles a LaborMarket. Typical flow: add workers and tasks, then
/// either add explicit edges with attributes, or call
/// ConnectEligiblePairs() to materialize all eligible pairs under the
/// default edge model.
class LaborMarketBuilder {
 public:
  LaborMarketBuilder() = default;

  /// Adds a worker; its `id` field is overwritten with the dense index.
  WorkerId AddWorker(Worker w);
  /// Adds a task; its `id` field is overwritten with the dense index.
  TaskId AddTask(Task t);

  /// Adds an explicit eligibility edge with precomputed attributes.
  void AddEdge(WorkerId w, TaskId t, EdgeAttributes attr);

  /// Scans all worker/task pairs and adds an edge for every eligible one
  /// (O(|W|·|T|) — used by generators, which keep sides in the 10^3..10^4
  /// range or pre-restrict candidates themselves).
  void ConnectEligiblePairs(const EdgeModelParams& params);

  /// Capacity hint for the edge columns.
  void ReserveEdges(std::size_t n);

  void SetName(std::string name) { name_ = std::move(name); }

  std::size_t NumWorkers() const { return workers_.size(); }
  std::size_t NumTasks() const { return tasks_.size(); }

  /// Finalizes; the builder is consumed.
  LaborMarket Build();

 private:
  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  // Edges straight into the market's columns, indexed by EdgeId.
  std::vector<WorkerId> edge_worker_;
  std::vector<TaskId> edge_task_;
  std::vector<double> quality_;
  std::vector<double> worker_benefit_;
  std::vector<double> task_value_;
  std::string name_ = "unnamed";
};

}  // namespace mbta

#endif  // MBTA_MARKET_LABOR_MARKET_H_
