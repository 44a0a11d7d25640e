#include "graph/digraph.hpp"

#include <stdexcept>

namespace ppuf::graph {

Digraph::Digraph(std::size_t vertex_count) : vertex_count_(vertex_count) {}

EdgeId Digraph::add_edge(VertexId from, VertexId to, double capacity) {
  if (from >= vertex_count_ || to >= vertex_count_)
    throw std::out_of_range("Digraph::add_edge: vertex out of range");
  if (capacity < 0.0)
    throw std::invalid_argument("Digraph::add_edge: negative capacity");
  finalized_ = false;
  edges_.push_back(Edge{from, to, capacity});
  return static_cast<EdgeId>(edges_.size() - 1);
}

namespace {

/// Counting-sort CSR index of `edges` keyed by one endpoint; ids within a
/// vertex's range stay in ascending edge-id order.
template <typename EndpointOf>
void build_index(const std::vector<Edge>& edges, std::size_t vertex_count,
                 EndpointOf&& endpoint_of, std::vector<std::size_t>* index,
                 std::vector<EdgeId>* ids) {
  index->assign(vertex_count + 1, 0);
  for (const Edge& e : edges) ++(*index)[endpoint_of(e) + 1];
  for (std::size_t v = 0; v < vertex_count; ++v)
    (*index)[v + 1] += (*index)[v];
  ids->resize(edges.size());
  std::vector<std::size_t> cursor(index->begin(), index->end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e)
    (*ids)[cursor[endpoint_of(edges[e])]++] = e;
}

}  // namespace

void Digraph::finalize() {
  if (finalized_) return;
  build_index(edges_, vertex_count_, [](const Edge& e) { return e.from; },
              &out_index_, &out_edge_ids_);
  build_index(edges_, vertex_count_, [](const Edge& e) { return e.to; },
              &in_index_, &in_edge_ids_);
  finalized_ = true;
}

void Digraph::set_capacity(EdgeId e, double capacity) {
  if (e >= edges_.size())
    throw std::out_of_range("Digraph::set_capacity: bad edge id");
  if (capacity < 0.0)
    throw std::invalid_argument("Digraph::set_capacity: negative capacity");
  edges_[e].capacity = capacity;
}

std::span<const EdgeId> Digraph::out_edges(VertexId v) const {
  if (!finalized_)
    throw std::logic_error("Digraph::out_edges: call finalize() first");
  if (v >= vertex_count_)
    throw std::out_of_range("Digraph::out_edges: vertex out of range");
  return {out_edge_ids_.data() + out_index_[v],
          out_index_[v + 1] - out_index_[v]};
}

std::span<const EdgeId> Digraph::in_edges(VertexId v) const {
  if (!finalized_)
    throw std::logic_error("Digraph::in_edges: call finalize() first");
  if (v >= vertex_count_)
    throw std::out_of_range("Digraph::in_edges: vertex out of range");
  return {in_edge_ids_.data() + in_index_[v], in_index_[v + 1] - in_index_[v]};
}

bool Digraph::is_complete() const {
  if (vertex_count_ < 2) return false;
  if (edges_.size() != vertex_count_ * (vertex_count_ - 1)) return false;
  std::vector<bool> seen(vertex_count_ * vertex_count_, false);
  for (const Edge& e : edges_) {
    if (e.from == e.to) return false;
    const std::size_t key = e.from * vertex_count_ + e.to;
    if (seen[key]) return false;  // parallel edge
    seen[key] = true;
  }
  return true;
}

double Digraph::out_capacity(VertexId v) const {
  double s = 0.0;
  for (EdgeId e : out_edges(v)) s += edges_[e].capacity;
  return s;
}

}  // namespace ppuf::graph
