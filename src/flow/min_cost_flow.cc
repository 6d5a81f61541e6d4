#include "flow/min_cost_flow.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "obs/trace.h"
#include "util/bitset.h"
#include "util/check.h"

namespace mbta {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : num_nodes_(num_nodes) {}

std::size_t MinCostFlow::AddNode() { return num_nodes_++; }

MinCostFlow::ArcId MinCostFlow::AddArc(std::size_t from, std::size_t to,
                                       std::int64_t capacity,
                                       std::int64_t cost) {
  MBTA_CHECK(from < num_nodes_ && to < num_nodes_);
  MBTA_CHECK(capacity >= 0);
  MBTA_CHECK(!solved_);
  if (cost < 0) has_negative_costs_ = true;
  pending_.push_back({static_cast<std::uint32_t>(from),
                      static_cast<std::uint32_t>(to), capacity, cost});
  return pending_.size() - 1;
}

void MinCostFlow::BuildCsr() {
  const std::size_t num_arcs = 2 * pending_.size();
  MBTA_CHECK(num_arcs <= std::numeric_limits<std::uint32_t>::max());
  MBTA_CHECK(num_nodes_ < std::numeric_limits<std::uint32_t>::max());
  // Counting sort by tail. Arc k adds its forward arc to `from` and then
  // its reverse arc to `to`, so a stable pass in AddArc order lays every
  // node's arcs out in the order they were added. Degrees are counted
  // one slot up, so after the prefix sum off_[v + 1] is v's first
  // position; it serves as v's fill cursor and ends at v's end, which
  // is exactly the CSR offset off_[v + 1].
  off_.assign(num_nodes_ + 2, 0);
  for (const PendingArc& a : pending_) {
    ++off_[a.from + 2];
    ++off_[a.to + 2];
  }
  for (std::size_t v = 2; v < off_.size(); ++v) off_[v] += off_[v - 1];
  to_.resize(num_arcs);
  rev_.resize(num_arcs);
  cap_.resize(num_arcs);
  cost_.resize(num_arcs);
  arc_pos_.resize(pending_.size());
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const PendingArc& a = pending_[k];
    const std::uint32_t fwd = off_[a.from + 1]++;
    const std::uint32_t bwd = off_[a.to + 1]++;
    to_[fwd] = a.to;
    rev_[fwd] = bwd;
    cap_[fwd] = a.capacity;
    cost_[fwd] = a.cost;
    to_[bwd] = a.from;
    rev_[bwd] = fwd;
    cap_[bwd] = 0;
    cost_[bwd] = -a.cost;
    arc_pos_[k] = fwd;
  }
  off_.pop_back();
  pending_ = {};
  dist_.resize(num_nodes_);
  prev_arc_.resize(num_nodes_);
  level_bits_.assign((num_nodes_ + 63) / 64, 0);
}

void MinCostFlow::InitPotentials(std::size_t source) {
  potential_.assign(num_nodes_, 0);
  if (!has_negative_costs_) return;
  ScopedSpan span(tracer_, "mcf/init_potentials", "flow");
  // Bellman–Ford (queue-based) from the source over residual arcs.
  potential_.assign(num_nodes_, kInf);
  potential_[source] = 0;
  DenseBitset in_queue(num_nodes_);
  bf_queue_.clear();
  bf_queue_.push_back(source);
  std::size_t bf_head = 0;
  in_queue.Set(source);
  while (bf_head < bf_queue_.size()) {
    // Compact the drained prefix so reinsertion-heavy instances stay at
    // the high-water mark instead of growing without bound.
    if (bf_head > 1024 && bf_head * 2 > bf_queue_.size()) {
      bf_queue_.erase(bf_queue_.begin(),
                      bf_queue_.begin() +
                          static_cast<std::ptrdiff_t>(bf_head));
      bf_head = 0;
    }
    const std::size_t v = bf_queue_[bf_head++];
    in_queue.Clear(v);
    for (std::uint32_t i = off_[v]; i != off_[v + 1]; ++i) {
      const std::size_t to = to_[i];
      if (cap_[i] > 0 && potential_[v] < kInf &&
          potential_[v] + cost_[i] < potential_[to]) {
        potential_[to] = potential_[v] + cost_[i];
        if (!in_queue.Test(to)) {
          bf_queue_.push_back(to);
          in_queue.Set(to);
        }
      }
    }
  }
  // Unreachable nodes keep kInf; clamp so reduced costs stay finite (they
  // can never lie on an augmenting path anyway).
  for (auto& p : potential_) {
    if (p >= kInf) p = 0;
  }
}

void MinCostFlow::Enqueue(std::uint32_t v, std::int64_t key) {
  if (key == level_key_) {
    level_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    level_cursor_ = std::min<std::size_t>(level_cursor_, v >> 6);
    ++level_size_;
  } else {
    heap_.emplace_back(key, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++heap_live_;
  }
}

bool MinCostFlow::PopMin(std::uint32_t* v) {
  if (level_size_ == 0) {
    if (heap_live_ == 0) {
      heap_.clear();  // only stale entries remain
      return false;
    }
    // An entry is stale once its key is above its node's dist_. Drop
    // stale entries off the top; the first live one opens the next level,
    // and every live entry at its key moves into the level bitset.
    const auto is_live = [this](const auto& entry) {
      return entry.first == dist_[entry.second];
    };
    const auto pop = [this] {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto top = heap_.back();
      heap_.pop_back();
      return top;
    };
    while (!is_live(heap_.front())) pop();
    level_key_ = heap_.front().first;
    level_cursor_ = level_bits_.size();
    while (!heap_.empty() && heap_.front().first == level_key_) {
      const auto entry = pop();
      if (!is_live(entry)) continue;
      Enqueue(entry.second, entry.first);
      --heap_live_;
    }
  }
  std::size_t word = level_cursor_;
  while (level_bits_[word] == 0) ++word;
  const std::uint64_t bits = level_bits_[word];
  level_bits_[word] = bits & (bits - 1);
  level_cursor_ = word;
  --level_size_;
  *v = static_cast<std::uint32_t>(word * 64 +
                                  static_cast<std::size_t>(
                                      std::countr_zero(bits)));
  return true;
}

bool MinCostFlow::ShortestPath(std::size_t source, std::size_t sink) {
  ++stats_.dijkstra_runs;
  ScopedSpan span(tracer_, "mcf/shortest_path", "flow");
  const std::uint64_t arcs_before = stats_.arcs_scanned;
  std::fill(dist_.begin(), dist_.end(), kInf);
  // Every node is popped once, at its final distance, in the same
  // (distance, node id) order as a lazy binary-heap Dijkstra, so
  // relaxations, tie-breaks and augmenting paths match it exactly.
  dist_[source] = 0;
  level_key_ = 0;
  Enqueue(static_cast<std::uint32_t>(source), 0);
  std::uint32_t v;
  while (PopMin(&v)) {
    const std::int64_t dv = dist_[v];
    const std::int64_t pv = potential_[v];
    stats_.arcs_scanned += off_[v + 1] - off_[v];
    for (std::uint32_t i = off_[v]; i != off_[v + 1]; ++i) {
      if (cap_[i] <= 0) continue;
      const std::uint32_t to = to_[i];
      const std::int64_t reduced = cost_[i] + pv - potential_[to];
      MBTA_CHECK_MSG(reduced >= 0, "negative reduced cost %lld",
                     static_cast<long long>(reduced));
      const std::int64_t nd = dv + reduced;
      if (nd < dist_[to]) {
        // `to` was unreached or waiting in the heap at a larger key
        // (nodes at the current level already sit at the minimum).
        if (dist_[to] != kInf) --heap_live_;
        dist_[to] = nd;
        prev_arc_[to] = i;
        Enqueue(to, nd);
      }
    }
  }
  span.Arg("arcs_scanned",
           static_cast<std::int64_t>(stats_.arcs_scanned - arcs_before));
  return dist_[sink] < kInf;
}

MinCostFlow::Result MinCostFlow::Run(std::size_t source, std::size_t sink,
                                     std::int64_t flow_limit,
                                     bool stop_at_nonnegative) {
  MBTA_CHECK(source < num_nodes_ && sink < num_nodes_);
  MBTA_CHECK(source != sink);
  MBTA_CHECK(!solved_);
  solved_ = true;
  BuildCsr();
  InitPotentials(source);
  Result result;
  while (result.flow < flow_limit &&
         (gate_ == nullptr || !gate_->Charge()) &&
         ShortestPath(source, sink)) {
    // True path cost = reduced-path length adjusted by potentials.
    const std::int64_t path_cost =
        dist_[sink] - potential_[source] + potential_[sink];
    if (stop_at_nonnegative && path_cost >= 0) break;
    // Update potentials with shortest-path distances (Johnson).
    for (std::size_t v = 0; v < num_nodes_; ++v) {
      if (dist_[v] < kInf) potential_[v] += dist_[v];
    }
    // Find bottleneck on the augmenting path; the tail of arc i is the
    // head of its partner rev_[i].
    std::int64_t push = flow_limit - result.flow;
    for (std::size_t v = sink; v != source;) {
      const std::uint32_t i = prev_arc_[v];
      push = std::min(push, cap_[i]);
      v = to_[rev_[i]];
    }
    MBTA_CHECK(push > 0);
    for (std::size_t v = sink; v != source;) {
      const std::uint32_t i = prev_arc_[v];
      cap_[i] -= push;
      cap_[rev_[i]] += push;
      v = to_[rev_[i]];
    }
    result.flow += push;
    result.cost += push * path_cost;
    ++stats_.augmenting_paths;
  }
  return result;
}

MinCostFlow::Result MinCostFlow::Solve(std::size_t source, std::size_t sink,
                                       std::int64_t flow_limit) {
  return Run(source, sink, flow_limit, /*stop_at_nonnegative=*/false);
}

MinCostFlow::Result MinCostFlow::SolveNegativeOnly(std::size_t source,
                                                   std::size_t sink) {
  return Run(source, sink, kInf, /*stop_at_nonnegative=*/true);
}

std::int64_t MinCostFlow::Flow(ArcId arc) const {
  if (!solved_) {
    MBTA_CHECK(arc < pending_.size());
    return 0;
  }
  MBTA_CHECK(arc < arc_pos_.size());
  // The reverse arc starts empty and gains exactly what the forward arc
  // ships, so its residual capacity is the arc's flow.
  return cap_[rev_[arc_pos_[arc]]];
}

}  // namespace mbta
