#include "maxflow/verify.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace ppuf::maxflow {

namespace {

/// Per-thread scratch of the verifier: per-vertex net flow, BFS queue and
/// visited marks.  Grown on first use at a size and reused after, so a
/// warmed thread verifies without touching the heap.
struct Scratch {
  std::vector<double> net;
  std::vector<graph::VertexId> queue;
  std::vector<std::uint8_t> seen;
};

thread_local Scratch t_scratch;

/// True if (g, flow) has a residual arc u→v: a forward arc on an edge with
/// slack, or a backward arc on an edge carrying flow.  Every optimality
/// decision below goes through these two predicates, so the star test and
/// the BFS agree arc for arc (NaN included: no arc).
bool forward_arc(const graph::Edge& e, double f, double tolerance) {
  return e.capacity - f > tolerance;
}
bool backward_arc(double f, double tolerance) { return f > tolerance; }

/// No residual arc leaves `v` (every out-edge saturated, every in-edge
/// empty): a BFS from `v` visits only `v`.
bool closed_out(const graph::Digraph& g, graph::VertexId v,
                std::span<const double> flow, double tolerance) {
  for (const graph::EdgeId e : g.out_edges(v))
    if (forward_arc(g.edge(e), flow[e], tolerance)) return false;
  for (const graph::EdgeId e : g.in_edges(v))
    if (backward_arc(flow[e], tolerance)) return false;
  return true;
}

/// No residual arc enters `v` (every in-edge saturated, every out-edge
/// empty): no BFS from another vertex can reach `v`.
bool closed_in(const graph::Digraph& g, graph::VertexId v,
               std::span<const double> flow, double tolerance) {
  for (const graph::EdgeId e : g.in_edges(v))
    if (forward_arc(g.edge(e), flow[e], tolerance)) return false;
  for (const graph::EdgeId e : g.out_edges(v))
    if (backward_arc(flow[e], tolerance)) return false;
  return true;
}

/// Serial residual BFS from `source` over the CSR indexes, marking
/// t_scratch.seen.  Returns true as soon as `target` is reached (pass
/// kInvalidVertex to visit the whole reachable set).
bool residual_bfs(const graph::Digraph& g, graph::VertexId source,
                  graph::VertexId target, std::span<const double> flow,
                  double tolerance) {
  Scratch& s = t_scratch;
  s.seen.assign(g.vertex_count(), 0);
  s.queue.resize(g.vertex_count());
  std::size_t head = 0, tail = 0;
  s.seen[source] = 1;
  s.queue[tail++] = source;
  const auto visit = [&](graph::VertexId w) {
    if (s.seen[w] != 0) return false;
    s.seen[w] = 1;
    s.queue[tail++] = w;
    return w == target;
  };
  while (head < tail) {
    const graph::VertexId v = s.queue[head++];
    for (const graph::EdgeId e : g.out_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      if (forward_arc(edge, flow[e], tolerance) && visit(edge.to))
        return true;
    }
    for (const graph::EdgeId e : g.in_edges(v)) {
      if (backward_arc(flow[e], tolerance) && visit(g.edge(e).from))
        return true;
    }
  }
  return false;
}

/// Residual adjacency oracle for the frontier-parallel BFS.
graph::NeighborFn residual_neighbors(const graph::Digraph& g,
                                     std::span<const double> flow,
                                     double tolerance) {
  return [&g, flow, tolerance](graph::VertexId v,
                               std::vector<graph::VertexId>& out) {
    for (graph::EdgeId e : g.out_edges(v)) {
      if (forward_arc(g.edge(e), flow[e], tolerance))
        out.push_back(g.edge(e).to);
    }
    for (graph::EdgeId e : g.in_edges(v)) {
      if (backward_arc(flow[e], tolerance)) out.push_back(g.edge(e).from);
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

  // One pass in edge-id order: capacity 0 <= f(e) <= c(e), and the net
  // flow of every vertex.  The tail vertex's net stays in `acc` while
  // consecutive edges share it (the crossbar's edges are grouped by tail),
  // which breaks the load-after-store chain through net[from] without
  // changing the order of operations on any vertex, so every net, and the
  // value, is bitwise what the two-pass form computed.
  const std::span<const graph::Edge> edges = g.edges();
  std::vector<double>& net = t_scratch.net;
  net.assign(g.vertex_count(), 0.0);
  graph::VertexId from = edges.empty() ? 0 : edges.front().from;
  double acc = 0.0;  // net[from]
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    const graph::Edge& edge = edges[e];
    const double f = flow[e];
    if (f < -tolerance || f > edge.capacity + tolerance) {
      std::ostringstream os;
      os << "capacity violated on edge " << e << ": f=" << f
         << " c=" << edge.capacity;
      result.reason = os.str();
      return result;
    }
    if (edge.from != from) {
      net[from] = acc;
      from = edge.from;
      acc = net[from];
    }
    acc -= f;
    if (edge.to == from) {
      acc += f;
    } else {
      net[edge.to] += f;
    }
  }
  if (!edges.empty()) net[from] = acc;

  // Conservation at every internal vertex.  Tolerance scales with degree:
  // each incident edge — incoming AND outgoing — contributes its own
  // measurement error, so the slack must cover the full incident count or
  // a high-in-degree vertex with legitimate per-edge error gets falsely
  // rejected.
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

  // Optimality: the sink must be unreachable in the residual graph.  When
  // no residual arc leaves the source, or none enters the sink, the BFS
  // could not reach the sink, so that per-arc test settles it exactly.
  // Only a miss runs the BFS.
  if (closed_out(g, source, flow, tolerance) ||
      closed_in(g, sink, flow, tolerance)) {
    result.star_closed = true;
  } else {
    const bool reached =
        thread_count <= 1
            ? residual_bfs(g, source, sink, flow, tolerance)
            : graph::bfs_distances_parallel(
                  g.vertex_count(), source,
                  residual_neighbors(g, flow, tolerance),
                  thread_count)[sink] != graph::kUnreachable;
    if (reached) {
      result.reason = "augmenting path remains (flow not maximum)";
      return result;
    }
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
  if (source >= g.vertex_count())
    throw std::out_of_range("residual_reachable: source out of range");
  std::vector<bool> side(g.vertex_count(), false);
  if (thread_count <= 1) {
    residual_bfs(g, source, graph::kInvalidVertex, flow, tolerance);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      side[v] = t_scratch.seen[v] != 0;
    return side;
  }
  const auto dist = graph::bfs_distances_parallel(
      g.vertex_count(), source, residual_neighbors(g, flow, tolerance),
      thread_count);
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
