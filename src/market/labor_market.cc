#include "market/labor_market.h"

#include <utility>

#include "util/check.h"

namespace mbta {

WorkerId LaborMarketBuilder::AddWorker(Worker w) {
  const WorkerId id = static_cast<WorkerId>(workers_.size());
  w.id = id;
  MBTA_CHECK(w.capacity >= 0);
  MBTA_CHECK(w.fatigue > 0.0 && w.fatigue <= 1.0);
  MBTA_CHECK(w.reliability >= 0.0 && w.reliability <= 1.0);
  workers_.push_back(std::move(w));
  return id;
}

TaskId LaborMarketBuilder::AddTask(Task t) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  t.id = id;
  MBTA_CHECK(t.capacity >= 0);
  MBTA_CHECK(t.value >= 0.0);
  MBTA_CHECK(t.difficulty >= 0.0 && t.difficulty <= 1.0);
  tasks_.push_back(std::move(t));
  return id;
}

void LaborMarketBuilder::AddEdge(WorkerId w, TaskId t, EdgeAttributes attr) {
  MBTA_CHECK(w < workers_.size());
  MBTA_CHECK(t < tasks_.size());
  MBTA_CHECK(attr.quality >= 0.0 && attr.quality <= 1.0);
  MBTA_CHECK(attr.worker_benefit >= 0.0);
  edge_worker_.push_back(w);
  edge_task_.push_back(t);
  quality_.push_back(attr.quality);
  worker_benefit_.push_back(attr.worker_benefit);
  task_value_.push_back(tasks_[t].value);
}

void LaborMarketBuilder::ReserveEdges(std::size_t n) {
  edge_worker_.reserve(n);
  edge_task_.reserve(n);
  quality_.reserve(n);
  worker_benefit_.reserve(n);
  task_value_.reserve(n);
}

void LaborMarketBuilder::ConnectEligiblePairs(const EdgeModelParams& params) {
  for (const Worker& w : workers_) {
    for (const Task& t : tasks_) {
      // Payment first: the skill match is only computed for pairs the
      // worker would accept.
      if (!IsRational(w, t)) continue;
      const double match = SkillMatch(w.skills, t.required_skills);
      if (IsEligible(w, t, match, params)) {
        AddEdge(w.id, t.id, ComputeEdgeAttributes(w, t, match, params));
      }
    }
  }
}

LaborMarket LaborMarketBuilder::Build() {
  LaborMarket market;
  market.graph_ = BipartiteGraphBuilder(workers_.size(), tasks_.size(),
                                        std::move(edge_worker_),
                                        std::move(edge_task_))
                      .Build();
  market.workers_ = std::move(workers_);
  market.tasks_ = std::move(tasks_);
  market.name_ = std::move(name_);
  market.quality_ = std::move(quality_);
  market.worker_benefit_ = std::move(worker_benefit_);
  market.task_value_ = std::move(task_value_);
  return market;
}

}  // namespace mbta
