#ifndef MBTA_SERVICE_MATCH_CACHE_H_
#define MBTA_SERVICE_MATCH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "market/labor_market.h"
#include "service/state.h"

namespace mbta {

/// Derived service state that makes an epoch's rebuild cost track its
/// delta: for each live worker, the skill match against every live task
/// whose match clears the edge model's threshold, in state task order.
/// Skills never change after arrival, so an arrival computes matches
/// against the other side only, a departure drops its row or column, and
/// payment, value and capacity patches compute none. Eligibility's other
/// half (payment covers cost) and the edge attributes are re-derived from
/// the cached match on every assembly, so patches need no bookkeeping.
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

  /// Assembles the market of `state`: the same edges in the same order,
  /// with bit-identical attributes, as BuildMarket(state, edge_model), in
  /// O(|W| + |T| + cached pairs) and with no SkillMatch call. Each
  /// worker's edges come out in ascending task order. Also purges the
  /// columns of departed tasks. Requires valid().
  LaborMarket Assemble(const ServiceState& state);

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

  EdgeModelParams edge_model_;
  bool valid_ = false;
  std::uint64_t skill_matches_ = 0;
  /// Rows, aligned with state.workers.
  std::vector<Row> rows_;
  /// Key of each live task, aligned with state.tasks. Keys grow with
  /// arrival, so state order is key order; Assemble renumbers them to
  /// the dense task indices.
  std::vector<std::uint32_t> task_keys_;
  std::uint32_t next_key_ = 0;
};

}  // namespace mbta

#endif  // MBTA_SERVICE_MATCH_CACHE_H_
