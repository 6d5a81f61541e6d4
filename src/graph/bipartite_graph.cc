#include "graph/bipartite_graph.h"

#include <cstdint>
#include <utility>
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

BipartiteGraphBuilder::BipartiteGraphBuilder(std::size_t num_left,
                                             std::size_t num_right,
                                             std::vector<VertexId> lefts,
                                             std::vector<VertexId> rights)
    : num_left_(num_left),
      num_right_(num_right),
      lefts_(std::move(lefts)),
      rights_(std::move(rights)) {
  MBTA_CHECK(lefts_.size() == rights_.size());
  for (std::size_t e = 0; e < lefts_.size(); ++e) {
    MBTA_CHECK(lefts_[e] < num_left_);
    MBTA_CHECK(rights_[e] < num_right_);
  }
}

EdgeId BipartiteGraphBuilder::AddEdge(VertexId left, VertexId right) {
  MBTA_CHECK(left < num_left_);
  MBTA_CHECK(right < num_right_);
  const EdgeId id = static_cast<EdgeId>(lefts_.size());
  lefts_.push_back(left);
  rights_.push_back(right);
  return id;
}

BipartiteGraph BipartiteGraphBuilder::Build() {
  BipartiteGraph g;
  g.edge_left_ = std::move(lefts_);
  g.edge_right_ = std::move(rights_);
  const std::vector<VertexId>& lefts = g.edge_left_;
  const std::vector<VertexId>& rights = g.edge_right_;

  // Counting sort into CSR, left side.
  g.left_offsets_.assign(num_left_ + 1, 0);
  for (VertexId l : lefts) ++g.left_offsets_[l + 1];
  for (std::size_t i = 1; i <= num_left_; ++i) {
    g.left_offsets_[i] += g.left_offsets_[i - 1];
  }
  g.left_incidences_.resize(lefts.size());
  {
    std::vector<std::size_t> cursor(g.left_offsets_.begin(),
                                    g.left_offsets_.end() - 1);
    for (std::size_t e = 0; e < lefts.size(); ++e) {
      g.left_incidences_[cursor[lefts[e]]++] = {rights[e],
                                                static_cast<EdgeId>(e)};
    }
  }

  // Reject duplicates: within each left row, stamp every right endpoint
  // with the row; a right vertex already stamped by this row repeats a
  // pair. O(V + E), no sort and no hash container involved.
  {
    std::vector<std::size_t> stamp(num_right_, num_left_);
    for (std::size_t l = 0; l < num_left_; ++l) {
      for (std::size_t i = g.left_offsets_[l]; i < g.left_offsets_[l + 1];
           ++i) {
        const VertexId r = g.left_incidences_[i].vertex;
        MBTA_CHECK_MSG(stamp[r] != l, "duplicate edge (%u, %u)",
                       static_cast<VertexId>(l), r);
        stamp[r] = l;
      }
    }
  }

  // Right side.
  g.right_offsets_.assign(num_right_ + 1, 0);
  for (VertexId r : rights) ++g.right_offsets_[r + 1];
  for (std::size_t i = 1; i <= num_right_; ++i) {
    g.right_offsets_[i] += g.right_offsets_[i - 1];
  }
  g.right_incidences_.resize(rights.size());
  {
    std::vector<std::size_t> cursor(g.right_offsets_.begin(),
                                    g.right_offsets_.end() - 1);
    for (std::size_t e = 0; e < rights.size(); ++e) {
      g.right_incidences_[cursor[rights[e]]++] = {lefts[e],
                                                  static_cast<EdgeId>(e)};
    }
  }

  lefts_.clear();
  rights_.clear();
  return g;
}

}  // namespace mbta
