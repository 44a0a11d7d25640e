#include "ppuf/topology.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "graph/complete.hpp"

namespace ppuf {

CrossbarTopology::CrossbarTopology(const CrossbarLayout& layout)
    : layout_(layout),
      graph_(graph::make_complete(layout.node_count(),
                                  [](graph::VertexId, graph::VertexId) {
                                    return 0.0;
                                  })) {
  edge_cells_.reserve(graph_.edge_count());
  for (const graph::Edge& e : graph_.edges())
    edge_cells_.push_back(
        static_cast<std::uint32_t>(layout_.cell_of_edge(e.from, e.to)));
}

std::shared_ptr<const CrossbarTopology> CrossbarTopology::of(
    const CrossbarLayout& layout) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::shared_ptr<const CrossbarTopology>>
      shared;
  const std::pair key{layout.node_count(), layout.grid_size()};
  std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<const CrossbarTopology>& slot = shared[key];
  if (slot == nullptr) slot = std::make_shared<const CrossbarTopology>(layout);
  return slot;
}

}  // namespace ppuf
