#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace mbta {

std::span<const Incidence> BipartiteGraph::LeftNeighbors(VertexId l) const {
  MBTA_CHECK(l < NumLeft());
  return {left_incidences_.data() + left_offsets_[l],
          left_offsets_[l + 1] - left_offsets_[l]};
}

std::span<const Incidence> BipartiteGraph::RightNeighbors(VertexId r) const {
  MBTA_CHECK(r < NumRight());
  return {right_incidences_.data() + right_offsets_[r],
          right_offsets_[r + 1] - right_offsets_[r]};
}

EdgeId BipartiteGraph::FindEdge(VertexId l, VertexId r) const {
  MBTA_CHECK(l < NumLeft() && r < NumRight());
  if (LeftDegree(l) <= RightDegree(r)) {
    for (const Incidence& inc : LeftNeighbors(l)) {
      if (inc.vertex == r) return inc.edge;
    }
  } else {
    for (const Incidence& inc : RightNeighbors(r)) {
      if (inc.vertex == l) return inc.edge;
    }
  }
  return kInvalidEdge;
}

BipartiteGraphBuilder::BipartiteGraphBuilder(std::size_t num_left,
                                             std::size_t num_right)
    : num_left_(num_left), num_right_(num_right) {}

EdgeId BipartiteGraphBuilder::AddEdge(VertexId left, VertexId right) {
  MBTA_CHECK(left < num_left_);
  MBTA_CHECK(right < num_right_);
  const EdgeId id = static_cast<EdgeId>(lefts_.size());
  lefts_.push_back(left);
  rights_.push_back(right);
  return id;
}

BipartiteGraph BipartiteGraphBuilder::Build() {
  // Reject duplicates: sort packed (left, right) keys and look for an
  // adjacent repeat — O(E log E), no hash container involved.
  {
    std::vector<std::uint64_t> keys(lefts_.size());
    for (std::size_t e = 0; e < lefts_.size(); ++e) {
      keys[e] = (static_cast<std::uint64_t>(lefts_[e]) << 32) | rights_[e];
    }
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    MBTA_CHECK_MSG(dup == keys.end(), "duplicate edge (%u, %u)",
                   static_cast<VertexId>(*dup >> 32),
                   static_cast<VertexId>(*dup & 0xffffffffu));
  }

  BipartiteGraph g;
  g.edge_left_ = lefts_;
  g.edge_right_ = rights_;

  // Counting sort into CSR, left side.
  g.left_offsets_.assign(num_left_ + 1, 0);
  for (VertexId l : lefts_) ++g.left_offsets_[l + 1];
  for (std::size_t i = 1; i <= num_left_; ++i) {
    g.left_offsets_[i] += g.left_offsets_[i - 1];
  }
  g.left_incidences_.resize(lefts_.size());
  {
    std::vector<std::size_t> cursor(g.left_offsets_.begin(),
                                    g.left_offsets_.end() - 1);
    for (std::size_t e = 0; e < lefts_.size(); ++e) {
      g.left_incidences_[cursor[lefts_[e]]++] = {rights_[e],
                                                 static_cast<EdgeId>(e)};
    }
  }

  // Right side.
  g.right_offsets_.assign(num_right_ + 1, 0);
  for (VertexId r : rights_) ++g.right_offsets_[r + 1];
  for (std::size_t i = 1; i <= num_right_; ++i) {
    g.right_offsets_[i] += g.right_offsets_[i - 1];
  }
  g.right_incidences_.resize(rights_.size());
  {
    std::vector<std::size_t> cursor(g.right_offsets_.begin(),
                                    g.right_offsets_.end() - 1);
    for (std::size_t e = 0; e < rights_.size(); ++e) {
      g.right_incidences_[cursor[rights_[e]]++] = {lefts_[e],
                                                   static_cast<EdgeId>(e)};
    }
  }

  lefts_.clear();
  rights_.clear();
  return g;
}

}  // namespace mbta
