#include "maxflow/residual.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ppuf::maxflow {

ResidualNetwork::ResidualNetwork(const graph::Digraph& g) {
  if (!g.finalized())
    throw std::logic_error("ResidualNetwork: graph not finalized");
  adj_.resize(g.vertex_count());
  double max_cap = 0.0;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::Edge& edge = g.edge(e);
    // A NaN capacity would silently poison every residual comparison (all
    // comparisons false) and can loop solvers forever; reject malformed
    // instances up front with a typed error every solver shares.
    if (!std::isfinite(edge.capacity) || edge.capacity < 0.0) {
      throw std::invalid_argument(
          "ResidualNetwork: capacity of edge " + std::to_string(e) +
          " is not finite and non-negative (" +
          std::to_string(edge.capacity) + ")");
    }
    max_cap = std::max(max_cap, edge.capacity);
    auto& fwd_list = adj_[edge.from];
    auto& bwd_list = adj_[edge.to];
    Arc fwd;
    fwd.to = edge.to;
    fwd.rev = static_cast<std::uint32_t>(bwd_list.size());
    fwd.residual = edge.capacity;
    fwd.orig = e;
    fwd.forward = true;
    Arc bwd;
    bwd.to = edge.from;
    bwd.rev = static_cast<std::uint32_t>(fwd_list.size());
    bwd.residual = 0.0;
    bwd.forward = false;
    fwd_list.push_back(fwd);
    bwd_list.push_back(bwd);
  }
  // Purely relative, never floored: PPUF capacities are ~1e-7 A, where an
  // absolute 1e-12 would be ~1e-5 of an edge, and residuals or excess
  // below it would be dropped, leaving the solvers ~1e-7 (relative) short
  // of the maximum.
  eps_ = max_cap * kRelativeEps;
}

void ResidualNetwork::push(graph::VertexId v, std::uint32_t arc_index,
                           double amount) {
  Arc& a = adj_[v][arc_index];
  if (amount > a.residual + eps_)
    throw std::logic_error("ResidualNetwork::push: over-push");
  a.residual -= amount;
  adj_[a.to][a.rev].residual += amount;
}

std::vector<double> ResidualNetwork::edge_flows(
    const graph::Digraph& g) const {
  std::vector<double> flow(g.edge_count(), 0.0);
  for (const auto& list : adj_) {
    for (const Arc& a : list) {
      if (!a.forward) continue;
      const double f = g.edge(a.orig).capacity - a.residual;
      flow[a.orig] = std::max(0.0, f);
    }
  }
  return flow;
}

}  // namespace ppuf::maxflow
