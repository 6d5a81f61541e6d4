#include "service/match_cache.h"

#include <string>

#include "util/check.h"

namespace mbta {

namespace {

constexpr std::uint32_t kDeparted = static_cast<std::uint32_t>(-1);

}  // namespace

MatchCache::MatchCache(const EdgeModelParams& edge_model)
    : edge_model_(edge_model) {}

void MatchCache::FillRow(const SkillVector& skills, const ServiceState& state,
                         Row* row) {
  for (std::size_t j = 0; j < state.tasks.size(); ++j) {
    const double match =
        SkillMatch(skills, state.tasks[j].task.required_skills);
    if (match >= edge_model_.skill_threshold) {
      row->tasks.push_back(task_keys_[j]);
      row->matches.push_back(match);
    }
  }
  skill_matches_ += state.tasks.size();
}

void MatchCache::Rebuild(const ServiceState& state) {
  MBTA_CHECK(state.tasks.size() < kDeparted);
  task_keys_.resize(state.tasks.size());
  for (std::size_t j = 0; j < task_keys_.size(); ++j) {
    task_keys_[j] = static_cast<std::uint32_t>(j);
  }
  next_key_ = static_cast<std::uint32_t>(task_keys_.size());
  rows_.assign(state.workers.size(), Row{});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    FillRow(state.workers[i].worker.skills, state, &rows_[i]);
  }
  valid_ = true;
}

void MatchCache::Apply(const ServiceState& state, const Delta& delta,
                       std::size_t removed_index) {
  MBTA_CHECK(valid_);
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      rows_.emplace_back();
      FillRow(state.workers.back().worker.skills, state, &rows_.back());
      break;
    case DeltaKind::kAddTask: {
      MBTA_CHECK(next_key_ < kDeparted);
      const std::uint32_t key = next_key_++;
      task_keys_.push_back(key);
      const SkillVector& skills = state.tasks.back().task.required_skills;
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double match =
            SkillMatch(state.workers[i].worker.skills, skills);
        if (match >= edge_model_.skill_threshold) {
          rows_[i].tasks.push_back(key);
          rows_[i].matches.push_back(match);
        }
      }
      skill_matches_ += rows_.size();
      break;
    }
    case DeltaKind::kRemoveWorker:
      rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(removed_index));
      break;
    case DeltaKind::kRemoveTask:
      // The column's entries go at the next Assemble, which walks every
      // row anyway.
      task_keys_.erase(task_keys_.begin() +
                       static_cast<std::ptrdiff_t>(removed_index));
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      break;
  }
  MBTA_CHECK(rows_.size() == state.workers.size() &&
             task_keys_.size() == state.tasks.size());
}

LaborMarket MatchCache::Assemble(const ServiceState& state) {
  MBTA_CHECK(valid_ && rows_.size() == state.workers.size() &&
             task_keys_.size() == state.tasks.size());
  // Task key → dense index, kDeparted for tasks gone since the last
  // assembly.
  std::vector<std::uint32_t> dense(next_key_, kDeparted);
  for (std::size_t j = 0; j < task_keys_.size(); ++j) {
    dense[task_keys_[j]] = static_cast<std::uint32_t>(j);
  }
  LaborMarketBuilder builder;
  for (const StableWorker& w : state.workers) builder.AddWorker(w.worker);
  for (const StableTask& t : state.tasks) builder.AddTask(t.task);
  std::size_t cached = 0;
  for (const Row& row : rows_) cached += row.tasks.size();
  builder.ReserveEdges(cached);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Row& row = rows_[i];
    const Worker& w = state.workers[i].worker;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < row.tasks.size(); ++k) {
      const std::uint32_t j = dense[row.tasks[k]];
      if (j == kDeparted) continue;
      const double match = row.matches[k];
      row.tasks[kept] = j;
      row.matches[kept] = match;
      ++kept;
      const Task& t = state.tasks[j].task;
      if (IsEligible(w, t, match, edge_model_)) {
        builder.AddEdge(static_cast<WorkerId>(i), static_cast<TaskId>(j),
                        ComputeEdgeAttributes(w, t, match, edge_model_));
      }
    }
    row.tasks.resize(kept);
    row.matches.resize(kept);
  }
  for (std::size_t j = 0; j < task_keys_.size(); ++j) {
    task_keys_[j] = static_cast<std::uint32_t>(j);
  }
  next_key_ = static_cast<std::uint32_t>(task_keys_.size());
  builder.SetName("service(epoch=" + std::to_string(state.epoch) + ")");
  return builder.Build();
}

}  // namespace mbta
