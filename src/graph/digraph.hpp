// Directed graph with non-negative edge capacities — the abstract object the
// PPUF instantiates in silicon (Section 2 of the paper) and the input to the
// max-flow solvers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ppuf::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// One directed edge with capacity (the paper's c(v_i, v_j) >= 0).
struct Edge {
  VertexId from = 0;
  VertexId to = 0;
  double capacity = 0.0;
};

/// Directed graph in edge-list form with CSR-style adjacency indexes over
/// outgoing and incoming edges.  Edges are immutable once the index is
/// built; capacities stay mutable (type-B challenges re-weight edges without
/// re-building).
class Digraph {
 public:
  explicit Digraph(std::size_t vertex_count = 0);

  std::size_t vertex_count() const { return vertex_count_; }
  std::size_t edge_count() const { return edges_.size(); }

  /// Adds a directed edge; invalidates the adjacency index until the next
  /// finalize().  Throws if an endpoint is out of range or capacity < 0.
  EdgeId add_edge(VertexId from, VertexId to, double capacity);

  /// Builds the adjacency indexes.  Must be called after the last add_edge
  /// and before out_edges() / in_edges() queries.  Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  /// Re-weight one edge (used when a challenge changes block capacities).
  void set_capacity(EdgeId e, double capacity);

  /// Re-weight every edge in one pass: capacity(e) = capacity_of(e).  The
  /// hot-path form of set_capacity() for callers that reuse one graph across
  /// many instances of the same topology; the caller guarantees finite,
  /// non-negative capacities (the solvers still reject anything else).
  template <typename CapacityOf>
  void reweight(CapacityOf&& capacity_of) {
    for (EdgeId e = 0; e < edges_.size(); ++e)
      edges_[e].capacity = capacity_of(e);
  }

  /// Ids of edges leaving v; requires finalize().
  std::span<const EdgeId> out_edges(VertexId v) const;

  /// Out-degree of v; requires finalize().
  std::size_t out_degree(VertexId v) const { return out_edges(v).size(); }

  /// Ids of edges entering v; requires finalize().
  std::span<const EdgeId> in_edges(VertexId v) const;

  /// True if every ordered pair (i, j), i != j, has an edge.
  bool is_complete() const;

  /// Sum of capacities of edges leaving v.
  double out_capacity(VertexId v) const;

 private:
  std::size_t vertex_count_ = 0;
  std::vector<Edge> edges_;
  // CSR adjacency: out_index_[v]..out_index_[v+1] into out_edge_ids_, and
  // the same over incoming edges.
  std::vector<std::size_t> out_index_;
  std::vector<EdgeId> out_edge_ids_;
  std::vector<std::size_t> in_index_;
  std::vector<EdgeId> in_edge_ids_;
  bool finalized_ = false;
};

/// A max-flow problem instance: graph + distinguished source and sink
/// (the paper's type-A challenge selects these two vertices).
struct FlowProblem {
  const Digraph* graph = nullptr;
  VertexId source = 0;
  VertexId sink = 0;
};

}  // namespace ppuf::graph
