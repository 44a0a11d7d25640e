#include "maxflow/star_certificate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ppuf::maxflow {

namespace {

constexpr graph::EdgeId kNoEdge = static_cast<graph::EdgeId>(-1);

/// The graph seen from the saturated star's side: as is when the source
/// star is the smaller cut, transposed when the sink's is.  In the
/// transposed view out-edges are the real in-edges and heads are the real
/// tails, so one routing routine serves both cases and the flow it writes
/// is a flow of the real graph.
struct View {
  const graph::Digraph& g;
  bool transposed;

  std::span<const graph::EdgeId> outs(graph::VertexId v) const {
    return transposed ? g.in_edges(v) : g.out_edges(v);
  }
  std::span<const graph::EdgeId> ins(graph::VertexId v) const {
    return transposed ? g.out_edges(v) : g.in_edges(v);
  }
  graph::VertexId head(graph::EdgeId e) const {
    return transposed ? g.edge(e).from : g.edge(e).to;
  }
  graph::VertexId tail(graph::EdgeId e) const {
    return transposed ? g.edge(e).to : g.edge(e).from;
  }
};

/// Total capacity of a terminal's star edges (self-loops excluded); NaN when
/// one of them is not a finite non-negative capacity.
double star_capacity(const graph::Digraph& g,
                     std::span<const graph::EdgeId> star) {
  double total = 0.0;
  for (const graph::EdgeId e : star) {
    const graph::Edge& edge = g.edge(e);
    if (edge.from == edge.to) continue;
    if (!(edge.capacity >= 0.0)) return std::nan("");
    total += edge.capacity;
  }
  return total;
}

/// Greedy routing from `root` (whose star is saturated) to `far`.
class Router {
 public:
  Router(const View& view, graph::VertexId root, graph::VertexId far,
         std::vector<double>& flow)
      : view_(view),
        root_(root),
        far_(far),
        flow_(flow),
        excess_(view.g.vertex_count(), 0.0),
        spare_(view.g.vertex_count(), 0.0),
        far_edge_(view.g.vertex_count(), kNoEdge) {}

  bool run() {
    // 1. Saturate the star: every intermediate head receives its edge.
    for (const graph::EdgeId e : view_.outs(root_)) {
      const graph::VertexId h = view_.head(e);
      if (h == root_) continue;
      flow_[e] = cap(e);
      if (h != far_) excess_[h] += cap(e);
    }
    // 2. Straight across: each node forwards what it can on its own edge
    //    to the far terminal; what that edge cannot take is its deficit,
    //    what it leaves unused is spare for other nodes' deficits.
    for (const graph::EdgeId e : view_.ins(far_)) {
      const graph::VertexId v = view_.tail(e);
      if (v == root_ || v == far_) continue;
      if (far_edge_[v] != kNoEdge) return false;  // parallel terminal edges
      far_edge_[v] = e;
      const double d = std::min(excess_[v], cap(e));
      flow_[e] = d;
      excess_[v] -= d;
      spare_[v] = cap(e) - d;
    }
    // 3. Close every deficit through nodes with spare.
    for (graph::VertexId v = 0; v < excess_.size(); ++v)
      if (excess_[v] > 0.0 && !drain(v)) return false;
    return true;
  }

  std::uint64_t work() const { return work_; }

 private:
  double cap(graph::EdgeId e) const { return view_.g.edge(e).capacity; }
  double residual(graph::EdgeId e) const { return cap(e) - flow_[e]; }
  bool relay(graph::VertexId u) const { return u != root_ && u != far_; }

  /// Send `d` from a node into spare node `w`'s far edge.
  void absorb(graph::VertexId w, double d) {
    flow_[far_edge_[w]] += d;
    spare_[w] -= d;
  }

  /// Route v's deficit over v->w->far, then v->u->w->far.  Every step moves
  /// min(deficit, residuals, spare), so the deficit closes to exactly 0.
  bool drain(graph::VertexId v) {
    double& x = excess_[v];
    for (const graph::EdgeId e : view_.outs(v)) {
      const graph::VertexId w = view_.head(e);
      ++work_;
      if (w == v || !relay(w) || spare_[w] <= 0.0) continue;
      const double d = std::min({x, residual(e), spare_[w]});
      if (!(d > 0.0)) continue;
      flow_[e] += d;
      absorb(w, d);
      x -= d;
      if (x == 0.0) return true;
    }
    for (const graph::EdgeId e1 : view_.outs(v)) {
      const graph::VertexId u = view_.head(e1);
      if (u == v || !relay(u)) continue;
      double r1 = residual(e1);
      for (const graph::EdgeId e2 : view_.outs(u)) {
        if (!(r1 > 0.0)) break;
        const graph::VertexId w = view_.head(e2);
        ++work_;
        if (w == u || w == v || !relay(w) || spare_[w] <= 0.0) continue;
        const double d = std::min({x, r1, residual(e2), spare_[w]});
        if (!(d > 0.0)) continue;
        flow_[e1] += d;
        flow_[e2] += d;
        absorb(w, d);
        r1 -= d;
        x -= d;
        if (x == 0.0) return true;
      }
    }
    return false;
  }

  const View& view_;
  graph::VertexId root_;
  graph::VertexId far_;
  std::vector<double>& flow_;
  std::vector<double> excess_;  ///< star inflow not yet routed, per node
  std::vector<double> spare_;   ///< unused far-edge capacity, per node
  std::vector<graph::EdgeId> far_edge_;  ///< each node's edge to `far_`
  std::uint64_t work_ = 0;
};

}  // namespace

bool star_certificate(const graph::FlowProblem& problem, FlowResult* out) {
  const graph::Digraph& g = *problem.graph;
  if (problem.source == problem.sink)
    throw std::invalid_argument("star_certificate: source == sink");
  const double out_cap = star_capacity(g, g.out_edges(problem.source));
  const double in_cap = star_capacity(g, g.in_edges(problem.sink));
  if (!std::isfinite(out_cap) || !std::isfinite(in_cap)) return false;

  const View view{g, in_cap < out_cap};
  out->edge_flow.assign(g.edge_count(), 0.0);
  Router router(view, view.transposed ? problem.sink : problem.source,
                view.transposed ? problem.source : problem.sink,
                out->edge_flow);
  const bool closed = router.run();
  out->value = view.transposed ? in_cap : out_cap;
  out->work = router.work() + 2 * g.vertex_count();
  out->status = util::Status::ok();
  return closed;
}

}  // namespace ppuf::maxflow
