#include "maxflow/verify.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace ppuf::maxflow {

namespace {

/// Residual adjacency oracle over (g, flow) without materialising the
/// residual graph: forward arcs with slack plus backward arcs with flow.
graph::NeighborFn residual_neighbors(const graph::Digraph& g,
                                     std::span<const double> flow,
                                     double tolerance) {
  return [&g, flow, tolerance](graph::VertexId v,
                               std::vector<graph::VertexId>& out) {
    for (graph::EdgeId e : g.out_edges(v)) {
      if (g.edge(e).capacity - flow[e] > tolerance) out.push_back(g.edge(e).to);
    }
    for (graph::EdgeId e : g.in_edges(v)) {
      if (flow[e] > tolerance) out.push_back(g.edge(e).from);
    }
  };
}

}  // namespace

VerifyResult verify_flow(const graph::Digraph& g, graph::VertexId source,
                         graph::VertexId sink, std::span<const double> flow,
                         double tolerance, unsigned thread_count) {
  if (flow.size() != g.edge_count())
    throw std::invalid_argument("verify_flow: flow size mismatch");
  if (source >= g.vertex_count() || sink >= g.vertex_count() ||
      source == sink)
    throw std::invalid_argument("verify_flow: bad source/sink");

  VerifyResult result;

  // Capacity constraints: 0 <= f(e) <= c(e).
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (flow[e] < -tolerance || flow[e] > g.edge(e).capacity + tolerance) {
      std::ostringstream os;
      os << "capacity violated on edge " << e << ": f=" << flow[e]
         << " c=" << g.edge(e).capacity;
      result.reason = os.str();
      return result;
    }
  }

  // Conservation at every internal vertex.
  std::vector<double> net(g.vertex_count(), 0.0);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    net[g.edge(e).from] -= flow[e];
    net[g.edge(e).to] += flow[e];
  }
  // Tolerance scales with degree: each incident edge — incoming AND
  // outgoing — contributes its own measurement error, so the slack must
  // cover the full incident count or a high-in-degree vertex with
  // legitimate per-edge error gets falsely rejected.
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (v == source || v == sink) continue;
    const double slack =
        tolerance * static_cast<double>(
                        g.in_edges(v).size() + g.out_degree(v));
    if (std::abs(net[v]) > slack) {
      std::ostringstream os;
      os << "conservation violated at vertex " << v << ": net=" << net[v];
      result.reason = os.str();
      return result;
    }
  }
  result.feasible = true;
  result.value = -net[source];

  // Optimality: the sink must be unreachable in the residual graph.
  const auto neighbors = residual_neighbors(g, flow, tolerance);
  const auto dist =
      thread_count <= 1
          ? graph::bfs_distances(g.vertex_count(), source, neighbors)
          : graph::bfs_distances_parallel(g.vertex_count(), source, neighbors,
                                          thread_count);
  if (dist[sink] != graph::kUnreachable) {
    result.reason = "augmenting path remains (flow not maximum)";
    return result;
  }
  result.optimal = true;
  return result;
}

std::vector<bool> residual_reachable(const graph::Digraph& g,
                                     graph::VertexId source,
                                     std::span<const double> flow,
                                     double tolerance,
                                     unsigned thread_count) {
  if (flow.size() != g.edge_count())
    throw std::invalid_argument("residual_reachable: flow size mismatch");
  const auto neighbors = residual_neighbors(g, flow, tolerance);
  const auto dist =
      thread_count <= 1
          ? graph::bfs_distances(g.vertex_count(), source, neighbors)
          : graph::bfs_distances_parallel(g.vertex_count(), source, neighbors,
                                          thread_count);
  std::vector<bool> side(g.vertex_count(), false);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    side[v] = dist[v] != graph::kUnreachable;
  return side;
}

double cut_capacity(const graph::Digraph& g, const std::vector<bool>& side) {
  if (side.size() != g.vertex_count())
    throw std::invalid_argument("cut_capacity: side size mismatch");
  double total = 0.0;
  for (const graph::Edge& e : g.edges()) {
    if (side[e.from] && !side[e.to]) total += e.capacity;
  }
  return total;
}

}  // namespace ppuf::maxflow
