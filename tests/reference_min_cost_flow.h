#ifndef MBTA_TESTS_REFERENCE_MIN_COST_FLOW_H_
#define MBTA_TESTS_REFERENCE_MIN_COST_FLOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "flow/min_cost_flow.h"
#include "util/check.h"
#include "util/deadline.h"

namespace mbta {

/// Test-only oracle: the min-cost flow engine as it stood before the CSR
/// arc store and the level-bitset frontier — per-node arc-index lists
/// over an array-of-structs arc table, and Dijkstra on a lazy
/// std::priority_queue of (distance, node) popped in ascending order.
/// Same public surface, Result and Stats as MinCostFlow (minus tracing),
/// so a differential test can demand byte-identical output from both.
class ReferenceMinCostFlow {
 public:
  using ArcId = std::size_t;
  using Result = MinCostFlow::Result;
  using Stats = MinCostFlow::Stats;

  explicit ReferenceMinCostFlow(std::size_t num_nodes) : head_(num_nodes) {}

  std::size_t AddNode() {
    head_.emplace_back();
    return head_.size() - 1;
  }

  ArcId AddArc(std::size_t from, std::size_t to, std::int64_t capacity,
               std::int64_t cost) {
    MBTA_CHECK(from < head_.size() && to < head_.size());
    MBTA_CHECK(capacity >= 0);
    if (cost < 0) has_negative_costs_ = true;
    const std::size_t fwd = arcs_.size();
    arcs_.push_back({to, fwd + 1, capacity, cost});
    arcs_.push_back({from, fwd, 0, -cost});
    head_[from].push_back(fwd);
    head_[to].push_back(fwd + 1);
    forward_index_.push_back(fwd);
    initial_capacity_.push_back(capacity);
    return forward_index_.size() - 1;
  }

  Result Solve(std::size_t source, std::size_t sink,
               std::int64_t flow_limit) {
    return Run(source, sink, flow_limit, /*stop_at_nonnegative=*/false);
  }

  Result SolveNegativeOnly(std::size_t source, std::size_t sink) {
    return Run(source, sink, kInf, /*stop_at_nonnegative=*/true);
  }

  void SetDeadlineGate(DeadlineGate* gate) { gate_ = gate; }

  std::int64_t Flow(ArcId arc) const {
    return initial_capacity_[arc] - arcs_[forward_index_[arc]].capacity;
  }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::int64_t kInf =
      std::numeric_limits<std::int64_t>::max() / 4;

  struct Arc {
    std::size_t to;
    std::size_t rev;
    std::int64_t capacity;  // residual
    std::int64_t cost;
  };

  void InitPotentials(std::size_t source) {
    potential_.assign(head_.size(), 0);
    if (!has_negative_costs_) return;
    potential_.assign(head_.size(), kInf);
    potential_[source] = 0;
    std::vector<bool> in_queue(head_.size(), false);
    std::queue<std::size_t> queue;
    queue.push(source);
    in_queue[source] = true;
    while (!queue.empty()) {
      const std::size_t v = queue.front();
      queue.pop();
      in_queue[v] = false;
      for (std::size_t idx : head_[v]) {
        const Arc& a = arcs_[idx];
        if (a.capacity > 0 && potential_[v] < kInf &&
            potential_[v] + a.cost < potential_[a.to]) {
          potential_[a.to] = potential_[v] + a.cost;
          if (!in_queue[a.to]) {
            queue.push(a.to);
            in_queue[a.to] = true;
          }
        }
      }
    }
    for (auto& p : potential_) {
      if (p >= kInf) p = 0;
    }
  }

  bool ShortestPath(std::size_t source, std::size_t sink) {
    ++stats_.dijkstra_runs;
    dist_.assign(head_.size(), kInf);
    prev_arc_.assign(head_.size(), static_cast<std::size_t>(-1));
    std::priority_queue<std::pair<std::int64_t, std::size_t>,
                        std::vector<std::pair<std::int64_t, std::size_t>>,
                        std::greater<>>
        queue;
    dist_[source] = 0;
    queue.emplace(0, source);
    while (!queue.empty()) {
      const auto [d, v] = queue.top();
      queue.pop();
      if (d > dist_[v]) continue;
      stats_.arcs_scanned += head_[v].size();
      for (std::size_t idx : head_[v]) {
        const Arc& a = arcs_[idx];
        if (a.capacity <= 0) continue;
        const std::int64_t reduced =
            a.cost + potential_[v] - potential_[a.to];
        MBTA_CHECK(reduced >= 0);
        if (dist_[v] + reduced < dist_[a.to]) {
          dist_[a.to] = dist_[v] + reduced;
          prev_arc_[a.to] = idx;
          queue.emplace(dist_[a.to], a.to);
        }
      }
    }
    return dist_[sink] < kInf;
  }

  Result Run(std::size_t source, std::size_t sink, std::int64_t flow_limit,
             bool stop_at_nonnegative) {
    InitPotentials(source);
    Result result;
    while (result.flow < flow_limit &&
           (gate_ == nullptr || !gate_->Charge()) &&
           ShortestPath(source, sink)) {
      const std::int64_t path_cost =
          dist_[sink] - potential_[source] + potential_[sink];
      if (stop_at_nonnegative && path_cost >= 0) break;
      for (std::size_t v = 0; v < head_.size(); ++v) {
        if (dist_[v] < kInf) potential_[v] += dist_[v];
      }
      std::int64_t push = flow_limit - result.flow;
      for (std::size_t v = sink; v != source;) {
        const Arc& a = arcs_[prev_arc_[v]];
        push = std::min(push, a.capacity);
        v = arcs_[a.rev].to;
      }
      MBTA_CHECK(push > 0);
      for (std::size_t v = sink; v != source;) {
        Arc& a = arcs_[prev_arc_[v]];
        a.capacity -= push;
        arcs_[a.rev].capacity += push;
        v = arcs_[a.rev].to;
      }
      result.flow += push;
      result.cost += push * path_cost;
      ++stats_.augmenting_paths;
    }
    return result;
  }

  std::vector<std::vector<std::size_t>> head_;
  std::vector<Arc> arcs_;
  std::vector<std::int64_t> initial_capacity_;
  std::vector<std::size_t> forward_index_;
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<std::size_t> prev_arc_;
  bool has_negative_costs_ = false;
  DeadlineGate* gate_ = nullptr;
  Stats stats_;
};

}  // namespace mbta

#endif  // MBTA_TESTS_REFERENCE_MIN_COST_FLOW_H_
