#ifndef MBTA_GRAPH_BIPARTITE_GRAPH_H_
#define MBTA_GRAPH_BIPARTITE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mbta {

/// Identifier types. Left vertices are workers and right vertices are tasks
/// throughout this repository, but the graph layer is agnostic.
using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// One incidence record in an adjacency list: the opposite endpoint plus
/// the global edge id (used to index per-edge attribute arrays kept by
/// higher layers).
struct Incidence {
  VertexId vertex;
  EdgeId edge;
};

/// An immutable bipartite graph in compressed-sparse-row form, indexed from
/// both sides. Edge ids are dense in [0, NumEdges()) and follow insertion
/// order, so callers can keep per-edge attributes in plain vectors.
///
/// Build with BipartiteGraphBuilder; the finished graph is cheap to move
/// and safe to share read-only across threads.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  std::size_t NumLeft() const { return left_offsets_.empty() ? 0 : left_offsets_.size() - 1; }
  std::size_t NumRight() const { return right_offsets_.empty() ? 0 : right_offsets_.size() - 1; }
  std::size_t NumEdges() const { return edge_left_.size(); }

  /// Incidences of left vertex l (each holds the right endpoint).
  std::span<const Incidence> LeftNeighbors(VertexId l) const;
  /// Incidences of right vertex r (each holds the left endpoint).
  std::span<const Incidence> RightNeighbors(VertexId r) const;

  std::size_t LeftDegree(VertexId l) const { return LeftNeighbors(l).size(); }
  std::size_t RightDegree(VertexId r) const { return RightNeighbors(r).size(); }

  VertexId EdgeLeft(EdgeId e) const { return edge_left_[e]; }
  VertexId EdgeRight(EdgeId e) const { return edge_right_[e]; }

  /// Looks up the edge between l and r; kInvalidEdge if absent.
  /// O(min degree) scan — fine for the sparse markets used here.
  EdgeId FindEdge(VertexId l, VertexId r) const;

 private:
  friend class BipartiteGraphBuilder;

  std::vector<std::size_t> left_offsets_;   // size NumLeft()+1
  std::vector<Incidence> left_incidences_;  // size NumEdges()
  std::vector<std::size_t> right_offsets_;  // size NumRight()+1
  std::vector<Incidence> right_incidences_;
  std::vector<VertexId> edge_left_;   // indexed by EdgeId
  std::vector<VertexId> edge_right_;
};

/// Accumulates edges, then produces the CSR graph. Duplicate edges are
/// rejected at Build() time (the labor-market model has at most one
/// eligibility edge per worker/task pair).
class BipartiteGraphBuilder {
 public:
  BipartiteGraphBuilder(std::size_t num_left, std::size_t num_right);
  /// Adopts already-collected endpoint columns: edge e joins lefts[e] and
  /// rights[e]. Endpoints are range-checked as AddEdge checks them.
  BipartiteGraphBuilder(std::size_t num_left, std::size_t num_right,
                        std::vector<VertexId> lefts,
                        std::vector<VertexId> rights);

  /// Adds an edge and returns its id (insertion-ordered, dense).
  EdgeId AddEdge(VertexId left, VertexId right);

  std::size_t NumEdges() const { return lefts_.size(); }

  /// Finalizes into a CSR graph in O(V + E). The builder is left empty
  /// afterwards.
  BipartiteGraph Build();

 private:
  std::size_t num_left_;
  std::size_t num_right_;
  std::vector<VertexId> lefts_;
  std::vector<VertexId> rights_;
};

}  // namespace mbta

#endif  // MBTA_GRAPH_BIPARTITE_GRAPH_H_
