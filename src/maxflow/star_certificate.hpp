// Certified star-cut maximum flow: the cheap exact path for PREDICT.
//
// The terminal star cut (every edge leaving the source, or every edge
// entering the sink) bounds any flow by min(out-cap(s), in-cap(t)).  On the
// complete graphs a PPUF realises that bound is almost always attained, and
// a flow of exactly that value can usually be built greedily in O(n^2)
// instead of a full solve: saturate the smaller star, send each
// intermediate node's share straight across to the other terminal, then
// route what is left over 2- and 3-hop paths into nodes with spare terminal
// capacity.  A feasible flow whose value equals a cut's capacity is maximum
// (weak duality), so a closed certificate is exact, not an approximation.
// When the greedy routing cannot close, the caller solves instead.
//
// This is the paper's verification asymmetry (Section 2) turned into a
// solver shortcut, and it is public: an impostor holding the model gets the
// same witness, which the residual-graph verifier accepts.
#pragma once

#include "maxflow/solver.hpp"

namespace ppuf::maxflow {

/// Try to certify that the max-flow value of `problem` equals its star
/// value.  Returns true when the greedy routing closes every deficit; `out`
/// then holds the value, a feasible flow of that value (edge_flow, indexed
/// by EdgeId), the edge inspections spent (work) and an ok status.  Returns
/// false when it does not close or the graph has parallel terminal edges
/// (`out` is then unspecified) — the caller must run a solver.  The storage
/// of `out->edge_flow` is reused across calls.  The graph must be
/// finalized, source != sink, capacities finite and non-negative.
bool star_certificate(const graph::FlowProblem& problem, FlowResult* out);

}  // namespace ppuf::maxflow
