// Enrollment-path pins: the bytes a max-flow enrollment publishes.
//
// Enrollment is MaxFlowBackend::fabricate -> MaxFlowPpuf ->
// SimulationModel(MaxFlowPpuf&): characterise every block of both
// crossbars and publish its saturation current.  Any speed-up of that
// path must leave the published model blob byte-for-byte unchanged, so
// this suite pins
//
//   * golden digests  - CRC-32C of fabricated blobs at fixed seeds and
//                       geometries, recorded from the full-curve
//                       extraction;
//   * capacity prefix - the capacity-only extraction (0 V -> 1.4 V sweep
//                       prefix, no curves kept) against capacities read
//                       from fully characterised curves, every entry
//                       compared with memcmp;
//   * concurrency     - eight threads fabricating two geometries,
//                       interleaved, through ONE shared SymbolicCache
//                       (and so one MNA structure and symbolic analysis)
//                       publish the single-thread digests (a TSan target).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "circuit/mna.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "util/crc32.hpp"

namespace ppuf {
namespace {

struct GoldenBlob {
  std::size_t nodes;
  std::size_t grid;
  std::uint64_t seed;
  std::uint32_t crc32c;
};

// Recorded from the full 24-point characterisation (every block's whole
// I-V curve built, isat read off the curve at 1.4 V).
constexpr GoldenBlob kGolden[] = {
    {8, 4, 1, 0x0cdd88c0u},
    {8, 4, 2026, 0x6eaf9bd3u},
    {24, 4, 7, 0x11fb9f1eu},
    {24, 4, 2027, 0x35f930aau},
    {64, 8, 90125, 0x024f2feau},
};

std::vector<std::uint8_t> fabricate_blob(
    std::size_t nodes, std::size_t grid, std::uint64_t seed,
    const std::shared_ptr<circuit::SymbolicCache>& cache = nullptr) {
  const backend::PufBackend* mf =
      backend::find_backend(backend::BackendKind::kMaxFlow);
  EXPECT_NE(mf, nullptr);
  backend::FabricateRequest req;
  req.node_count = nodes;
  req.grid_size = grid;
  req.seed = seed;
  std::vector<std::uint8_t> blob;
  const util::Status st = mf->fabricate(req, cache, &blob);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return blob;
}

std::uint32_t digest(const std::vector<std::uint8_t>& blob) {
  return util::crc32c(blob.data(), blob.size());
}

TEST(EnrollmentGolden, FabricatedBlobDigestsMatchRecorded) {
  for (const GoldenBlob& g : kGolden) {
    const std::uint32_t got = digest(fabricate_blob(g.nodes, g.grid, g.seed));
    EXPECT_EQ(got, g.crc32c)
        << "n=" << g.nodes << " l=" << g.grid << " seed=" << g.seed
        << " digest 0x" << std::hex << got;
  }
}

/// All 4 n (n-1) published capacities of a model, edge-major.
std::vector<double> capacities(const SimulationModel& m) {
  std::vector<double> out;
  for (graph::EdgeId e = 0; e < m.layout().edge_count(); ++e)
    for (int net = 0; net < 2; ++net)
      for (int bit = 0; bit < 2; ++bit) out.push_back(m.capacity(net, e, bit));
  return out;
}

TEST(CapacityPrefix, MatchesFullCurveCapacitiesBitForBit) {
  const struct {
    std::size_t nodes, grid;
    std::uint64_t seed;
  } cases[] = {{8, 4, 11}, {24, 4, 12}, {64, 8, 13}};
  for (const auto& c : cases) {
    PpufParams params;
    params.node_count = c.nodes;
    params.grid_size = c.grid;
    // Capacity-only extraction: the network has no curves yet.
    MaxFlowPpuf fresh(params, c.seed);
    const SimulationModel prefix(fresh);
    // Full-curve extraction: the same chip, characterised first, so the
    // model reads isat off the 24-point curves.
    MaxFlowPpuf full_chip(params, c.seed);
    full_chip.prepare(circuit::Environment::nominal());
    const SimulationModel full(full_chip);

    const std::vector<double> a = capacities(prefix);
    const std::vector<double> b = capacities(full);
    ASSERT_EQ(a.size(), 4 * c.nodes * (c.nodes - 1));
    ASSERT_EQ(a.size(), b.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << "n=" << c.nodes << " seed=" << c.seed;
    EXPECT_EQ(prefix.comparator_offset(), full.comparator_offset());
  }
}

TEST(EnrollmentConcurrency, SharedSymbolicCacheEightThreadsMatchGolden) {
  // Two geometries with single-thread digests in kGolden.
  const GoldenBlob& small = kGolden[0];
  const GoldenBlob& large = kGolden[2];
  auto cache = std::make_shared<circuit::SymbolicCache>();
  constexpr int kThreads = 8;
  std::vector<std::uint32_t> got(2 * kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Even threads start with the small geometry, odd ones with the
      // large, so both are in flight at once.
      const GoldenBlob* order[2] = {&small, &large};
      if (t % 2 != 0) std::swap(order[0], order[1]);
      for (int k = 0; k < 2; ++k) {
        const GoldenBlob& g = *order[k];
        got[2 * t + (&g == &small ? 0 : 1)] =
            digest(fabricate_blob(g.nodes, g.grid, g.seed, cache));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[2 * t], small.crc32c) << "thread " << t;
    EXPECT_EQ(got[2 * t + 1], large.crc32c) << "thread " << t;
  }
  EXPECT_EQ(cache->size(), 1u);  // every block shares one topology
}

}  // namespace
}  // namespace ppuf
