#ifndef MBTA_SERVICE_MATCH_CACHE_H_
#define MBTA_SERVICE_MATCH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "market/labor_market.h"
#include "service/state.h"

namespace mbta {

/// The part of a market an epoch can touch, in dense indices: every edge
/// with a touched endpoint, plus the edge of each carried pair. Touched
/// entities are arrivals, patched entities, peers freed by a departure
/// and endpoints of a dropped carried pair.
struct MarketReach {
  /// Every entity counts as touched, so the reach is the whole market:
  /// the bulk epoch, where every worker or every task is touched, and
  /// the escape hatch's full re-solve.
  bool everything = false;
  /// Per worker, nonzero when touched.
  std::vector<std::uint8_t> worker_touched;
  /// Per task, nonzero when touched.
  std::vector<std::uint8_t> task_touched;
  /// The touched tasks, ascending.
  std::vector<TaskId> touched_tasks;
  /// The carried pairs, ascending by (worker, task).
  std::vector<std::pair<WorkerId, TaskId>> carried;
};

/// Derived service state that makes an epoch's rebuild cost track its
/// delta: for each live worker, the skill match against every live task
/// whose match clears the edge model's threshold, in state task order.
/// Skills never change after arrival, so an arrival computes matches
/// against the other side only, a departure drops its row (a departed
/// task's column entries are purged lazily), and payment, value and
/// capacity patches compute none. Eligibility's other half (payment
/// covers cost) and the edge attributes are re-derived from the cached
/// match on every assembly, so patches need no bookkeeping.
///
/// Never persisted: it is a pure function of the entity lists, rebuilt
/// from the ServiceState by the first epoch a service runs (live or
/// replayed), and kept in step with ApplyDelta after that.
class MatchCache {
 public:
  explicit MatchCache(const EdgeModelParams& edge_model);

  /// False until the first Rebuild.
  bool valid() const { return valid_; }

  /// Recomputes every row from `state`: |W|·|T| SkillMatch calls.
  void Rebuild(const ServiceState& state);

  /// Mirrors `delta`, which ApplyDelta has just applied to `state`.
  /// `removed_index` is the dense index a departed entity had before the
  /// delta; it is ignored for every other kind. Requires valid().
  void Apply(const ServiceState& state, const Delta& delta,
             std::size_t removed_index);

  /// True when worker `w` and task `t` of `state` (dense indices) form an
  /// eligible edge, the test BuildMarket applies. A binary search of the
  /// worker's row; no SkillMatch call. Requires valid().
  bool IsEdge(const ServiceState& state, std::size_t w, std::size_t t) const;

  /// Assembles the part of `state`'s market that `reach` names: every
  /// worker and task, with the dense ids BuildMarket(state, edge_model)
  /// gives them, and of BuildMarket's edges exactly those in the reach,
  /// in the same relative order (worker-major, ascending task) and with
  /// bit-identical attributes. Touched workers' rows are read whole; an
  /// untouched worker's row is binary-searched for the touched tasks and
  /// its carried tasks only, so the cost tracks the reach, not the
  /// cached pairs, and no SkillMatch call is made. When `candidates` is
  /// non-null it receives the edges with a touched endpoint, ascending —
  /// the repair's refill set. Requires valid().
  LaborMarket Assemble(const ServiceState& state, const MarketReach& reach,
                       std::vector<EdgeId>* candidates = nullptr);

  /// SkillMatch calls made so far.
  std::uint64_t skill_matches() const { return skill_matches_; }

 private:
  /// One worker's matches, ascending by task key (≤ 12 B a pair).
  struct Row {
    std::vector<std::uint32_t> tasks;
    std::vector<double> matches;
  };

  /// Appends the matches of `skills` against the listed tasks to `row`.
  void FillRow(const SkillVector& skills, const ServiceState& state,
               Row* row);
  /// Drops the entries of departed tasks from one row, keeping its keys.
  void DropDeparted(Row* row) const;
  /// Drops every departed task's entries and renumbers the keys to the
  /// dense task indices, `dense` mapping each live key to its index: one
  /// walk over all cached pairs.
  void Purge(const std::vector<std::uint32_t>& dense);

  EdgeModelParams edge_model_;
  bool valid_ = false;
  std::uint64_t skill_matches_ = 0;
  /// Rows, aligned with state.workers.
  std::vector<Row> rows_;
  /// Key of each live task, aligned with state.tasks. Keys grow with
  /// arrival, so state order is key order; Purge renumbers them to the
  /// dense task indices.
  std::vector<std::uint32_t> task_keys_;
  std::uint32_t next_key_ = 0;
};

}  // namespace mbta

#endif  // MBTA_SERVICE_MATCH_CACHE_H_
