// Flow verification — the cheap side of the paper's asymmetry (Section 2):
// checking a claimed max-flow needs only feasibility checks plus one BFS in
// the residual graph (O(n^2), parallelizable to O(n^2/p)), while computing
// the flow from scratch costs at least O(n^2) even approximately.
//
// verify_flow is certificate-first, and allocation-free on a warmed thread
// except for a rejection's reason string: one pass in edge-id order checks capacities and accumulates every
// vertex's net flow; then, when no residual arc leaves the source or none
// enters the sink (the terminal star is closed arc by arc), the sink is
// unreachable by construction and the BFS is skipped.  Only a miss runs
// the BFS.  Scratch (net flows, BFS queue and marks) is per thread.
#pragma once

#include <span>
#include <string>

#include "graph/digraph.hpp"

namespace ppuf::maxflow {

/// Outcome of verifying a claimed flow.
struct VerifyResult {
  bool feasible = false;  ///< capacity + conservation constraints hold
  bool optimal = false;   ///< feasible and no augmenting path remains
  double value = 0.0;     ///< net flow out of the source
  /// Optimality was settled by the closed terminal star, with no BFS (the
  /// verdict is the BFS's by construction; this only records the path).
  bool star_closed = false;
  std::string reason;     ///< first violated constraint, empty when optimal
};

/// Verify a claimed flow function (one value per EdgeId of `g`).
/// `tolerance` is the absolute slack allowed on each constraint; pass the
/// measurement accuracy when verifying currents read from a PPUF.
VerifyResult verify_flow(const graph::Digraph& g, graph::VertexId source,
                         graph::VertexId sink, std::span<const double> flow,
                         double tolerance, unsigned thread_count = 1);

/// Vertices reachable from `source` in the residual graph of (g, flow);
/// the source side of a minimum cut when the flow is maximum.
std::vector<bool> residual_reachable(const graph::Digraph& g,
                                     graph::VertexId source,
                                     std::span<const double> flow,
                                     double tolerance,
                                     unsigned thread_count = 1);

/// Capacity of the cut whose source side is `side` (sum of capacities of
/// edges leaving the side).  With `side = residual_reachable(...)` of a
/// maximum flow this equals the flow value (max-flow/min-cut).
double cut_capacity(const graph::Digraph& g, const std::vector<bool>& side);

}  // namespace ppuf::maxflow
