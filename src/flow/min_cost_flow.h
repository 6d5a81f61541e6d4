#ifndef MBTA_FLOW_MIN_COST_FLOW_H_
#define MBTA_FLOW_MIN_COST_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/deadline.h"

namespace mbta {

class Tracer;

/// Min-cost max-flow via successive shortest augmenting paths with Johnson
/// potentials (Dijkstra after a one-time Bellman–Ford to absorb negative
/// arc costs). Capacities and costs are 64-bit integers; callers with
/// real-valued benefits scale them to a fixed-point grid first.
///
/// Two solve modes:
///  * Solve(s, t, limit): classic min-cost flow of value min(maxflow, limit).
///  * SolveNegativeOnly(s, t): keeps augmenting only while the shortest
///    path has strictly negative cost — exactly "maximize total profit with
///    free disposal", which is how optimal modular task assignment is
///    solved (profit arcs carry cost = -benefit).
class MinCostFlow {
 public:
  using ArcId = std::size_t;

  struct Result {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };

  /// Work counters accumulated by a solve call, for observability: the
  /// number of augmenting paths shipped (the flow solver's dominant unit
  /// of work — one path per assignment made), Dijkstra runs (paths found
  /// plus the final failed search), and residual arcs scanned across all
  /// shortest-path computations (the relabel/scan total).
  struct Stats {
    std::uint64_t augmenting_paths = 0;
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t arcs_scanned = 0;
  };

  explicit MinCostFlow(std::size_t num_nodes);

  std::size_t AddNode();

  /// Adds an arc; capacity >= 0, any cost. Returns an id for Flow().
  ArcId AddArc(std::size_t from, std::size_t to, std::int64_t capacity,
               std::int64_t cost);

  /// Min-cost flow of value min(max flow, flow_limit).
  Result Solve(std::size_t source, std::size_t sink,
               std::int64_t flow_limit);

  /// Augments while the cheapest augmenting path has negative total cost.
  /// Returns the flow shipped and its (negative or zero) total cost.
  Result SolveNegativeOnly(std::size_t source, std::size_t sink);

  /// Attaches a cooperative stop check, charged once per augmenting-path
  /// attempt (before each shortest-path search). When the gate trips the
  /// solve stops early and returns the flow shipped so far — every full
  /// augmentation keeps the flow integral and capacity-feasible, so the
  /// partial result decomposes into a valid (suboptimal) assignment.
  /// Null (the default) disables the check. Must be set before solving.
  void SetDeadlineGate(DeadlineGate* gate) { gate_ = gate; }

  /// Attaches a span sink: the solve then emits one "mcf/init_potentials"
  /// span (the Bellman–Ford pass, when negative costs force one) and one
  /// "mcf/shortest_path" span per Dijkstra run, each carrying the arcs
  /// scanned by that search — counts mirror the deterministic
  /// dijkstra_runs counter. Null (the default) traces nothing. Must be
  /// set before solving.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Flow routed on an arc after a solve call.
  std::int64_t Flow(ArcId arc) const;

  /// Work counters of the last solve call (zeros before any solve).
  const Stats& stats() const { return stats_; }

  std::size_t num_nodes() const { return num_nodes_; }

 private:
  /// An AddArc call, kept until the solve freezes the arc set.
  struct PendingArc {
    std::uint32_t from;
    std::uint32_t to;
    std::int64_t capacity;
    std::int64_t cost;
  };

  Result Run(std::size_t source, std::size_t sink, std::int64_t flow_limit,
             bool stop_at_nonnegative);
  /// Counting-sorts pending_ into the CSR arc store (each node's arcs in
  /// AddArc order, forward and reverse interleaved as they were added)
  /// and frees pending_. Called once per solve, after which the arc set
  /// is frozen.
  void BuildCsr();
  void InitPotentials(std::size_t source);
  /// One Dijkstra over reduced costs; fills dist_/prev_arc_. Returns true
  /// if the sink is reachable.
  bool ShortestPath(std::size_t source, std::size_t sink);
  /// Dijkstra frontier: adds `v` at tentative key `key` (>= level_key_).
  void Enqueue(std::uint32_t v, std::int64_t key);
  /// Pops the frontier minimum by (key, node id), refilling the level
  /// bitset from the heap when it runs dry. False once nothing is left.
  bool PopMin(std::uint32_t* v);

  std::size_t num_nodes_ = 0;
  std::vector<PendingArc> pending_;

  // CSR arc store in SoA form, built by BuildCsr(): node v's residual arcs
  // are positions [off_[v], off_[v+1]). rev_[i] is the position of arc
  // i's partner, so the tail of arc i is to_[rev_[i]]. arc_pos_ maps an
  // ArcId to the position of its forward arc; the reverse arc's residual
  // capacity is exactly the flow routed on it.
  std::vector<std::uint32_t> off_;
  std::vector<std::uint32_t> to_;
  std::vector<std::uint32_t> rev_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> cost_;
  std::vector<std::uint32_t> arc_pos_;

  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<std::uint32_t> prev_arc_;  // CSR position of the tree arc

  // Dijkstra frontier, reused across runs. Pops in exactly the order of a
  // lazy std::priority_queue<pair<int64, node>, ..., std::greater<>>:
  // ascending key, then ascending node id among equal keys. Nodes whose
  // tentative key equals the current minimum (level_key_) sit in a dense
  // bitset, popped lowest id first (level_cursor_ is a word index no
  // larger than the lowest set bit's); every other tentative node has an
  // entry in a lazy binary heap. An entry is live while its key still
  // equals dist_ of its node; heap_live_ counts the live ones.
  std::vector<std::uint64_t> level_bits_;
  std::size_t level_cursor_ = 0;
  std::size_t level_size_ = 0;
  std::int64_t level_key_ = 0;
  std::vector<std::pair<std::int64_t, std::uint32_t>> heap_;
  std::size_t heap_live_ = 0;

  // Bellman–Ford (SPFA) FIFO for InitPotentials: a flat vector drained
  // through a head cursor. A member like the other scratch, so the solve
  // path constructs no container.
  std::vector<std::size_t> bf_queue_;
  bool has_negative_costs_ = false;
  bool solved_ = false;
  DeadlineGate* gate_ = nullptr;
  Tracer* tracer_ = nullptr;
  Stats stats_;
};

}  // namespace mbta

#endif  // MBTA_FLOW_MIN_COST_FLOW_H_
