#include "service/match_cache.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace mbta {

namespace {

constexpr std::uint32_t kDeparted = static_cast<std::uint32_t>(-1);

/// Departed task columns stay in the rows until they number at least
/// 1/kPurgeRatio of the live tasks; then one Assemble purges them all.
constexpr std::size_t kPurgeRatio = 4;

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
          Row& row = rows_[i];
          // A full row sheds its departed entries before it regrows.
          if (row.tasks.size() == row.tasks.capacity()) DropDeparted(&row);
          row.tasks.push_back(key);
          row.matches.push_back(match);
        }
      }
      skill_matches_ += rows_.size();
      break;
    }
    case DeltaKind::kRemoveWorker:
      rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(removed_index));
      break;
    case DeltaKind::kRemoveTask:
      // The column's entries stay until an Assemble purges them.
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

bool MatchCache::IsEdge(const ServiceState& state, std::size_t w,
                        std::size_t t) const {
  MBTA_CHECK(valid_ && w < rows_.size() && t < task_keys_.size());
  const Row& row = rows_[w];
  const auto it =
      std::lower_bound(row.tasks.begin(), row.tasks.end(), task_keys_[t]);
  if (it == row.tasks.end() || *it != task_keys_[t]) return false;
  const double match = row.matches[static_cast<std::size_t>(
      it - row.tasks.begin())];
  return IsEligible(state.workers[w].worker, state.tasks[t].task, match,
                    edge_model_);
}

void MatchCache::DropDeparted(Row* row) const {
  // Both key lists ascend, so one merge finds the live entries.
  std::size_t live = 0;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < row->tasks.size(); ++k) {
    const std::uint32_t key = row->tasks[k];
    while (live < task_keys_.size() && task_keys_[live] < key) ++live;
    if (live == task_keys_.size() || task_keys_[live] != key) continue;
    row->tasks[kept] = key;
    row->matches[kept] = row->matches[k];
    ++kept;
  }
  row->tasks.resize(kept);
  row->matches.resize(kept);
}

void MatchCache::Purge(const std::vector<std::uint32_t>& dense) {
  for (Row& row : rows_) {
    DropDeparted(&row);
    for (std::uint32_t& key : row.tasks) key = dense[key];
  }
  for (std::size_t j = 0; j < task_keys_.size(); ++j) {
    task_keys_[j] = static_cast<std::uint32_t>(j);
  }
  next_key_ = static_cast<std::uint32_t>(task_keys_.size());
}

LaborMarket MatchCache::Assemble(const ServiceState& state,
                                 const MarketReach& reach,
                                 std::vector<EdgeId>* candidates) {
  MBTA_CHECK(valid_ && rows_.size() == state.workers.size() &&
             task_keys_.size() == state.tasks.size());
  MBTA_CHECK(reach.everything ||
             (reach.worker_touched.size() == rows_.size() &&
              reach.task_touched.size() == task_keys_.size()));
  // Task key → dense index, kDeparted for tasks gone since the last
  // purge.
  std::vector<std::uint32_t> dense;
  const auto map_keys = [&] {
    dense.assign(next_key_, kDeparted);
    for (std::size_t j = 0; j < task_keys_.size(); ++j) {
      dense[task_keys_[j]] = static_cast<std::uint32_t>(j);
    }
  };
  map_keys();
  const std::size_t departed = next_key_ - task_keys_.size();
  if (departed > 0 && departed * kPurgeRatio >= task_keys_.size()) {
    Purge(dense);
    map_keys();
  }

  LaborMarketBuilder builder;
  for (const StableWorker& w : state.workers) builder.AddWorker(w.worker);
  for (const StableTask& t : state.tasks) builder.AddTask(t.task);
  // Upper bound on the reach: whole rows for touched workers, the
  // touched and carried tasks for the rest.
  std::size_t bound = reach.carried.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    bound += reach.everything || reach.worker_touched[i]
                 ? rows_[i].tasks.size()
                 : reach.touched_tasks.size();
  }
  builder.ReserveEdges(bound);
  if (candidates != nullptr) {
    candidates->clear();
    candidates->reserve(bound);
  }

  EdgeId next_edge = 0;
  std::size_t c = 0;  // cursor into reach.carried
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    const Worker& w = state.workers[i].worker;
    const auto emit = [&](std::uint32_t j, double match, bool candidate) {
      const Task& t = state.tasks[j].task;
      if (!IsEligible(w, t, match, edge_model_)) return;
      if (candidate && candidates != nullptr) candidates->push_back(next_edge);
      ++next_edge;
      builder.AddEdge(static_cast<WorkerId>(i), static_cast<TaskId>(j),
                      ComputeEdgeAttributes(w, t, match, edge_model_));
    };
    const std::size_t carried_begin = c;
    while (c < reach.carried.size() && reach.carried[c].first == i) ++c;
    if (reach.everything || reach.worker_touched[i] != 0) {
      for (std::size_t k = 0; k < row.tasks.size(); ++k) {
        const std::uint32_t j = dense[row.tasks[k]];
        if (j != kDeparted) emit(j, row.matches[k], true);
      }
      continue;
    }
    // Merge the touched tasks with this worker's carried tasks, both
    // ascending, and look each up in the row from where the last one
    // was found: keys ascend with the dense index.
    auto touched = reach.touched_tasks.begin();
    std::size_t carried = carried_begin;
    std::size_t pos = 0;
    while (touched != reach.touched_tasks.end() || carried < c) {
      std::uint32_t j;
      if (carried == c ||
          (touched != reach.touched_tasks.end() &&
           *touched <= reach.carried[carried].second)) {
        j = *touched++;
        if (carried < c && reach.carried[carried].second == j) ++carried;
      } else {
        j = reach.carried[carried++].second;
      }
      const std::uint32_t key = task_keys_[j];
      pos = static_cast<std::size_t>(
          std::lower_bound(row.tasks.begin() + static_cast<std::ptrdiff_t>(pos),
                           row.tasks.end(), key) -
          row.tasks.begin());
      if (pos == row.tasks.size()) break;
      if (row.tasks[pos] == key) {
        emit(j, row.matches[pos], reach.task_touched[j] != 0);
      }
    }
  }
  MBTA_CHECK_MSG(c == reach.carried.size(),
                 "carried pairs must ascend by worker");
  builder.SetName("service(epoch=" + std::to_string(state.epoch) + ")");
  return builder.Build();
}

}  // namespace mbta
