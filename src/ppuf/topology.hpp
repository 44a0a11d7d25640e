// Shared crossbar topology: the immutable half of every max-flow instance a
// public model builds.
//
// All devices of one geometry (n, l) solve and verify on the same complete
// graph; only the capacities differ, per device and per challenge.  One
// CrossbarTopology per geometry holds that graph finalized with zero
// capacities (edge list, out- and in-edge CSR indexes) plus the
// edge -> grid-cell map that picks each edge's input bit.  Models share it
// through shared_ptr, so hydrating a device of a known geometry builds no
// graph, and a hot path re-weights a copy instead of rebuilding.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "ppuf/challenge.hpp"

namespace ppuf {

class CrossbarTopology {
 public:
  /// The process-wide topology of `layout`'s geometry, built on first use
  /// and kept for the life of the process, so a model decoded for
  /// validation and dropped never pays for a rebuild.  One per geometry
  /// seen, ~28 n^2 bytes each; a process sees a handful.  Thread-safe.
  static std::shared_ptr<const CrossbarTopology> of(
      const CrossbarLayout& layout);

  explicit CrossbarTopology(const CrossbarLayout& layout);

  const CrossbarLayout& layout() const { return layout_; }

  /// The complete graph on n vertices, finalized, every capacity zero.
  /// Edge ids are CrossbarLayout::edge_id order.
  const graph::Digraph& graph() const { return graph_; }

  /// Grid cell (index into Challenge::bits) controlling each edge.
  std::span<const std::uint32_t> edge_cells() const { return edge_cells_; }

 private:
  CrossbarLayout layout_;
  graph::Digraph graph_;
  std::vector<std::uint32_t> edge_cells_;
};

}  // namespace ppuf
