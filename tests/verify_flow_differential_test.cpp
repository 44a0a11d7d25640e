// The certificate-first, allocation-free flow verifier against the
// two-pass verifier it replaced.
//
// maxflow::verify_flow checks capacities and conservation in one pass,
// settles optimality from the closed terminal star when it can and runs the
// residual BFS only on a miss.  Its contract is that none of that shows: on
// every input the verdict, the reason string and the bits of the value are
// what the reference below (the previous implementation, kept here and
// only here) computes.  The inputs are n = 64 chip-proved reports and their
// bit-flipped twins, certified and push-relabel witnesses on complete and
// sparse random graphs, and hand-built adversarial flows.
//
// The second suite replaces the global operator new with a counting one
// and holds the hot paths to their allocation budget: a warmed thread
// verifies an accepted n = 64 chip report with no heap allocation, and a
// VERIFY request frame is built in exactly one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/complete.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/star_certificate.hpp"
#include "maxflow/verify.hpp"
#include "net/wire.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/rng.hpp"

// Counting global operator new: per thread, so a test can assert on the
// allocations of its own thread while others run.  Delegates to malloc.
// The deletes stay out of line so the compiler never pairs an inlined
// free() with the operator new it saw, which it would warn about.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ppuf {
namespace {

using maxflow::VerifyResult;

// --- reference: the two-pass verifier with a std::function BFS -----------

graph::NeighborFn reference_neighbors(const graph::Digraph& g,
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

VerifyResult reference_verify_flow(const graph::Digraph& g,
                                   graph::VertexId source,
                                   graph::VertexId sink,
                                   std::span<const double> flow,
                                   double tolerance,
                                   unsigned thread_count = 1) {
  VerifyResult result;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (flow[e] < -tolerance || flow[e] > g.edge(e).capacity + tolerance) {
      std::ostringstream os;
      os << "capacity violated on edge " << e << ": f=" << flow[e]
         << " c=" << g.edge(e).capacity;
      result.reason = os.str();
      return result;
    }
  }
  std::vector<double> net(g.vertex_count(), 0.0);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    net[g.edge(e).from] -= flow[e];
    net[g.edge(e).to] += flow[e];
  }
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
  const auto neighbors = reference_neighbors(g, flow, tolerance);
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

std::vector<bool> reference_reachable(const graph::Digraph& g,
                                      graph::VertexId source,
                                      std::span<const double> flow,
                                      double tolerance) {
  const auto dist = graph::bfs_distances(
      g.vertex_count(), source, reference_neighbors(g, flow, tolerance));
  std::vector<bool> side(g.vertex_count(), false);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    side[v] = dist[v] != graph::kUnreachable;
  return side;
}

/// Verdict, reason and value bits of the kernel equal the reference's.
/// Returns the kernel's result for further checks.
VerifyResult expect_same(const graph::Digraph& g, graph::VertexId s,
                         graph::VertexId t, std::span<const double> flow,
                         double tolerance, const std::string& what,
                         unsigned thread_count = 1) {
  const VerifyResult got =
      maxflow::verify_flow(g, s, t, flow, tolerance, thread_count);
  const VerifyResult want =
      reference_verify_flow(g, s, t, flow, tolerance, thread_count);
  EXPECT_EQ(got.feasible, want.feasible) << what;
  EXPECT_EQ(got.optimal, want.optimal) << what;
  EXPECT_EQ(got.reason, want.reason) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << what << ": value " << got.value << " vs " << want.value;
  if (got.star_closed) {
    EXPECT_TRUE(got.optimal) << what;
  }
  return got;
}

double max_capacity(const graph::Digraph& g) {
  double m = 0.0;
  for (const graph::Edge& e : g.edges()) m = std::max(m, e.capacity);
  return m;
}

maxflow::FlowResult push_relabel(const graph::Digraph& g, graph::VertexId s,
                                 graph::VertexId t) {
  return maxflow::make_solver(maxflow::Algorithm::kPushRelabel)
      ->solve({&g, s, t});
}

// --- the n = 64 chip fixture ------------------------------------------------

/// One fabricated n = 64 grid-8 device, its public model, and reports its
/// chip proved for a handful of challenges (built once per process: the
/// model extraction and the circuit solves take a few seconds).
struct ChipFixture {
  static constexpr std::size_t kReports = 6;
  std::unique_ptr<MaxFlowPpuf> chip;
  std::unique_ptr<SimulationModel> model;
  std::vector<Challenge> challenges;
  std::vector<protocol::ProverReport> reports;
  double tolerance = 0.0;

  static const ChipFixture& get() {
    static const ChipFixture fixture = [] {
      ChipFixture f;
      PpufParams params;
      params.node_count = 64;
      params.grid_size = 8;
      f.chip = std::make_unique<MaxFlowPpuf>(params, 2026);
      f.model = std::make_unique<SimulationModel>(*f.chip);
      // The serving tolerance: 10% of the mean published capacity.
      f.tolerance = 0.1 * f.model->mean_capacity();
      util::Rng rng(64);
      for (std::size_t i = 0; i < kReports; ++i) {
        f.challenges.push_back(random_challenge(f.model->layout(), rng));
        f.reports.push_back(
            protocol::prove_with_ppuf(*f.chip, f.challenges.back(), 1e-6));
      }
      return f;
    }();
    return fixture;
  }

  const std::vector<double>& flow(std::size_t i, int net) const {
    return net == 0 ? reports[i].edge_flow_a : reports[i].edge_flow_b;
  }
};

TEST(VerifyFlowDifferential, ChipReportsAndBitFlippedTwins) {
  const ChipFixture& fx = ChipFixture::get();
  const protocol::Verifier verifier(*fx.model, 1.0, fx.tolerance);
  std::size_t closed = 0, networks = 0, accepted = 0;
  for (std::size_t i = 0; i < ChipFixture::kReports; ++i) {
    const Challenge& c = fx.challenges[i];
    for (int net = 0; net < 2; ++net) {
      const graph::Digraph g = fx.model->build_graph(net, c);
      const VerifyResult v =
          expect_same(g, c.source, c.sink, fx.flow(i, net), fx.tolerance,
                      "chip report " + std::to_string(i));
      ++networks;
      if (v.star_closed) ++closed;
    }
    // The twin differs only in the response bit: the flow verdicts are the
    // honest report's, and the verifier rejects it on the bit alone.
    protocol::ProverReport twin = fx.reports[i];
    twin.bit ^= 1;
    const protocol::AuthenticationResult honest =
        verifier.verify(c, fx.reports[i]);
    const protocol::AuthenticationResult forged = verifier.verify(c, twin);
    EXPECT_EQ(forged.flows_valid, honest.flows_valid);
    EXPECT_FALSE(forged.accepted && honest.accepted);
    if (honest.accepted) {
      ++accepted;
      EXPECT_EQ(forged.detail, "response bit inconsistent with claimed flows");
    }
  }
  std::cout << "[ chip    ] star closed " << closed << "/" << networks
            << " networks; honest accepted " << accepted << "/"
            << ChipFixture::kReports << "\n";
  // The fast path is what makes VERIFY cheap; it must fire on most chip
  // flows, which sit within the tolerance of a saturated terminal star.
  EXPECT_GT(2 * closed, networks);
  EXPECT_GT(accepted, 0u);
}

TEST(VerifyFlowDifferential, WitnessesOnRandomCompleteAndSparseGraphs) {
  util::Rng rng(16);
  std::size_t closed = 0, misses = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 8 + 8 * static_cast<std::size_t>(trial % 8);
    const bool sparse = trial % 2 == 1;
    const graph::Digraph g = sparse ? graph::make_random(n, 0.3, rng)
                                    : graph::make_complete_uniform(n, rng);
    const auto s = static_cast<graph::VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto t = static_cast<graph::VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (t >= s) ++t;
    const double tol = 1e-9 * max_capacity(g);
    const std::string what = std::string(sparse ? "sparse" : "complete") +
                             " n=" + std::to_string(n);

    const maxflow::FlowResult solved = push_relabel(g, s, t);
    for (const unsigned threads : {1u, 3u}) {
      const VerifyResult v = expect_same(g, s, t, solved.edge_flow, tol,
                                         what + " push-relabel", threads);
      EXPECT_TRUE(v.optimal) << what;
      v.star_closed ? ++closed : ++misses;
    }
    maxflow::FlowResult certified;
    if (maxflow::star_certificate({&g, s, t}, &certified)) {
      const VerifyResult v = expect_same(g, s, t, certified.edge_flow, tol,
                                         what + " certified");
      EXPECT_TRUE(v.optimal && v.star_closed) << what;
    }
    // Half the push-relabel flow: feasible, not maximum, so the BFS runs.
    std::vector<double> half = solved.edge_flow;
    for (double& f : half) f *= 0.5;
    for (const unsigned threads : {1u, 3u}) {
      const VerifyResult v =
          expect_same(g, s, t, half, tol, what + " half flow", threads);
      if (v.feasible && !v.star_closed) ++misses;
    }

    EXPECT_EQ(maxflow::residual_reachable(g, s, solved.edge_flow, tol),
              reference_reachable(g, s, solved.edge_flow, tol))
        << what;
    EXPECT_EQ(maxflow::residual_reachable(g, s, half, tol),
              reference_reachable(g, s, half, tol))
        << what;
  }
  // Both optimality paths ran.
  EXPECT_GT(closed, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(VerifyFlowDifferential, SaturatedSourceStarWithInteriorViolation) {
  // The source's edges are the narrowest, so its star is the minimum cut
  // and the certificate saturates it.
  const std::size_t n = 24;
  util::Rng rng(3);
  const graph::Digraph g =
      graph::make_complete(n, [&](graph::VertexId from, graph::VertexId) {
        return from == 0 ? 0.5 : rng.uniform(1.0, 2.0);
      });
  maxflow::FlowResult certified;
  ASSERT_TRUE(maxflow::star_certificate({&g, 0, 1}, &certified));
  const double tol = 1e-9 * max_capacity(g);
  ASSERT_TRUE(expect_same(g, 0, 1, certified.edge_flow, tol, "certified")
                  .star_closed);
  // An interior edge (5 -> 9) gains flow: the stars stay as they were, and
  // vertices 5 and 9 now violate conservation.
  std::vector<double> flow = certified.edge_flow;
  const graph::EdgeId e = graph::complete_edge_id(n, 5, 9);
  flow[e] += flow[e] + 0.25 <= g.edge(e).capacity ? 0.25 : -0.25;
  const VerifyResult v = expect_same(g, 0, 1, flow, tol, "interior violation");
  EXPECT_FALSE(v.feasible);
  EXPECT_EQ(v.reason.rfind("conservation violated at vertex 5", 0), 0u)
      << v.reason;
}

TEST(VerifyFlowDifferential, ClosedSinkStarWithOpenSourceStar) {
  // Edges into the sink are tiny, so the sink star is the minimum cut: a
  // maximum flow saturates it and leaves slack on the source star.
  const std::size_t n = 16;
  const graph::VertexId s = 0, t = n - 1;
  const graph::Digraph g =
      graph::make_complete(n, [&](graph::VertexId from, graph::VertexId to) {
        return to == t ? 0.01 : 1.0 + 0.01 * static_cast<double>(from);
      });
  const maxflow::FlowResult solved = push_relabel(g, s, t);
  const double tol = 1e-9 * max_capacity(g);
  const VerifyResult v = expect_same(g, s, t, solved.edge_flow, tol,
                                     "closed sink star");
  EXPECT_TRUE(v.optimal);
  EXPECT_TRUE(v.star_closed);
}

TEST(VerifyFlowDifferential, NeitherStarClosed) {
  // s -> {a, b} wide, {a, b} -> c narrow, c -> t wide: the minimum cut is
  // interior, so a maximum flow closes neither terminal star and only the
  // BFS proves the sink unreachable.
  graph::Digraph g(5);
  const graph::VertexId s = 0, a = 1, b = 2, c = 3, t = 4;
  g.add_edge(s, a, 10.0);
  g.add_edge(s, b, 10.0);
  g.add_edge(a, c, 1.0);
  g.add_edge(b, c, 1.0);
  g.add_edge(c, t, 10.0);
  g.add_edge(t, a, 3.0);  // an out-edge of t carrying no flow
  g.finalize();
  const std::vector<double> max_flow{1.0, 1.0, 1.0, 1.0, 2.0, 0.0};
  const VerifyResult unreachable =
      expect_same(g, s, t, max_flow, 1e-12, "interior cut, maximum");
  EXPECT_TRUE(unreachable.optimal);
  EXPECT_FALSE(unreachable.star_closed);

  const std::vector<double> short_flow{0.5, 1.0, 0.5, 1.0, 1.5, 0.0};
  const VerifyResult reachable =
      expect_same(g, s, t, short_flow, 1e-12, "interior cut, short");
  EXPECT_TRUE(reachable.feasible);
  EXPECT_FALSE(reachable.optimal);
  EXPECT_EQ(reachable.reason, "augmenting path remains (flow not maximum)");

  // The same flows through the frontier-parallel BFS.
  expect_same(g, s, t, max_flow, 1e-12, "interior cut, maximum", 2);
  expect_same(g, s, t, short_flow, 1e-12, "interior cut, short", 2);
  EXPECT_EQ(maxflow::residual_reachable(g, s, short_flow, 1e-12, 2),
            reference_reachable(g, s, short_flow, 1e-12));
}

TEST(VerifyFlowDifferential, NegativeFlowsInsideTolerance) {
  util::Rng rng(11);
  const graph::Digraph g = graph::make_complete_uniform(20, rng);
  const maxflow::FlowResult solved = push_relabel(g, 2, 7);
  const double tol = 1e-3;
  std::vector<double> flow = solved.edge_flow;
  // Every empty edge reads slightly negative, as a noisy ammeter would.
  for (double& f : flow)
    if (f == 0.0) f = -0.5 * tol;
  expect_same(g, 2, 7, flow, tol, "negative inside tol");
  flow[graph::complete_edge_id(20, 3, 4)] = -2.0 * tol;
  const VerifyResult v = expect_same(g, 2, 7, flow, tol, "negative past tol");
  EXPECT_FALSE(v.feasible);
}

TEST(VerifyFlowDifferential, OverCapacityOnFirstAndLastEdge) {
  util::Rng rng(5);
  const graph::Digraph g = graph::make_complete_uniform(12, rng);
  const maxflow::FlowResult solved = push_relabel(g, 0, 11);
  const double tol = 1e-6;
  for (const graph::EdgeId e :
       {graph::EdgeId{0}, static_cast<graph::EdgeId>(g.edge_count() - 1)}) {
    std::vector<double> flow = solved.edge_flow;
    flow[e] = g.edge(e).capacity + 2.0 * tol;
    const VerifyResult v =
        expect_same(g, 0, 11, flow, tol, "over capacity " + std::to_string(e));
    EXPECT_EQ(v.reason.rfind("capacity violated on edge " + std::to_string(e),
                             0),
              0u)
        << v.reason;
  }
  // A non-finite flow passes no comparison, in either implementation.
  std::vector<double> flow = solved.edge_flow;
  flow[5] = std::numeric_limits<double>::quiet_NaN();
  expect_same(g, 0, 11, flow, tol, "NaN flow");
}

TEST(VerifyFlowDifferential, ParallelEdgesSelfLoopsAndUngroupedEdgeOrder) {
  // Parallel s -> a edges, self-loops at the source, an interior vertex
  // and the sink, and edges whose tails alternate (not grouped by tail).
  graph::Digraph g(4);
  const graph::VertexId s = 0, a = 1, b = 2, t = 3;
  g.add_edge(s, a, 1.0);
  g.add_edge(a, t, 2.5);
  g.add_edge(s, a, 2.0);
  g.add_edge(a, a, 5.0);
  g.add_edge(s, s, 1.0);
  g.add_edge(s, b, 1.0);
  g.add_edge(b, t, 1.0);
  g.add_edge(t, t, 1.0);
  g.add_edge(b, a, 0.5);
  g.finalize();
  const std::vector<double> flow{1.0, 2.5, 1.5, 3.0, 0.7, 1.0,
                                 0.5, 0.2, 0.5};
  for (const double tol : {0.0, 1e-9, 0.6}) {
    expect_same(g, s, t, flow, tol, "parallel/self-loop tol=" +
                                        std::to_string(tol));
    expect_same(g, t, s, flow, tol, "reversed terminals");
    EXPECT_EQ(maxflow::residual_reachable(g, s, flow, tol),
              reference_reachable(g, s, flow, tol));
  }

  // Random sparse graphs with the edge insertion order shuffled.
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Digraph base = graph::make_random(30, 0.25, rng);
    std::vector<graph::Edge> edges(base.edges().begin(), base.edges().end());
    std::shuffle(edges.begin(), edges.end(), rng);
    graph::Digraph shuffled(30);
    for (const graph::Edge& e : edges)
      shuffled.add_edge(e.from, e.to, e.capacity);
    shuffled.add_edge(4, 4, 1.0);
    shuffled.finalize();
    const maxflow::FlowResult solved = push_relabel(shuffled, 0, 29);
    const double tol = 1e-9 * max_capacity(shuffled);
    expect_same(shuffled, 0, 29, solved.edge_flow, tol, "shuffled");
    std::vector<double> noisy = solved.edge_flow;
    for (double& f : noisy) f += rng.uniform(-1e-3, 1e-3);
    expect_same(shuffled, 0, 29, noisy, 2e-3, "shuffled noisy");
  }
}

// --- allocation budget -------------------------------------------------------

/// Heap allocations `f` makes on this thread.
template <typename F>
std::uint64_t allocations_of(F&& f) {
  const std::uint64_t before = t_allocations;
  f();
  return t_allocations - before;
}

TEST(VerifyFlowAllocation, WarmedThreadVerifiesChipReportWithoutHeap) {
  const ChipFixture& fx = ChipFixture::get();
  const protocol::Verifier verifier(*fx.model, 1.0, fx.tolerance);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < ChipFixture::kReports; ++i) {
    const Challenge& c = fx.challenges[i];
    if (!verifier.verify(c, fx.reports[i]).accepted) continue;  // warms
    ++checked;
    EXPECT_EQ(allocations_of([&] {
                for (int net = 0; net < 2; ++net) {
                  const graph::Digraph& g = fx.model->scratch_graph(net, c);
                  EXPECT_TRUE(maxflow::verify_flow(g, c.source, c.sink,
                                                   fx.flow(i, net),
                                                   fx.tolerance)
                                  .optimal);
                }
              }),
              0u)
        << "verify_flow, report " << i;
    EXPECT_EQ(allocations_of([&] {
                EXPECT_TRUE(verifier.verify(c, fx.reports[i]).accepted);
              }),
              0u)
        << "Verifier::verify, report " << i;
  }
  EXPECT_GT(checked, 0u);

  // The BFS path is allocation-free too once warmed.
  graph::Digraph g(5);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 10.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 10.0);
  g.finalize();
  const std::vector<double> flow{1.0, 1.0, 1.0, 1.0, 2.0};
  ASSERT_FALSE(maxflow::verify_flow(g, 0, 4, flow, 1e-12).star_closed);
  EXPECT_EQ(allocations_of([&] {
              EXPECT_TRUE(maxflow::verify_flow(g, 0, 4, flow, 1e-12).optimal);
            }),
            0u);
}

TEST(VerifyFlowAllocation, VerifyRequestFrameIsOneAllocation) {
  const ChipFixture& fx = ChipFixture::get();
  const Challenge& c = fx.challenges.front();
  const protocol::ProverReport& report = fx.reports.front();
  std::vector<std::uint8_t> frame;
  EXPECT_EQ(allocations_of([&] {
              frame = net::encode_frame(
                  net::MessageType::kVerifyRequest, 7, 3, 250,
                  [&](net::Writer& w) {
                    net::encode_verify_request(w, c, report);
                  });
            }),
            1u);
  EXPECT_EQ(frame.capacity(), frame.size());
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(allocations_of(
                [&] { payload = net::encode_verify_request(c, report); }),
            1u);
  EXPECT_EQ(frame.size(), net::kHeaderSize + payload.size());
  std::vector<std::uint8_t> framed;
  EXPECT_EQ(allocations_of([&] {
              framed = net::encode_frame(net::MessageType::kVerifyRequest, 7,
                                         3, 250, payload);
            }),
            1u);
  EXPECT_EQ(framed, frame);
}

TEST(VerifyFlowAllocation, EightThreadsOnDifferentGeometries) {
  // Geometries of different sizes and shapes, each with a maximum flow
  // and a short one; thread k starts at geometry k and walks them all, so
  // every thread resizes its scratch across sizes.  After one warm lap a
  // thread verifies with no heap allocation, and every verdict matches
  // the reference computed here on the main thread.
  struct Case {
    graph::Digraph g;
    graph::VertexId s = 0, t = 1;
    std::vector<double> flow;
    double tol = 0.0;
    VerifyResult want;
  };
  std::vector<Case> cases;
  util::Rng rng(8);
  for (const std::size_t n : {12, 20, 33, 48, 64, 80, 24, 40}) {
    const bool sparse = n % 3 == 0;
    Case c;
    c.g = sparse ? graph::make_random(n, 0.35, rng)
                 : graph::make_complete_uniform(n, rng);
    c.t = static_cast<graph::VertexId>(n - 1);
    c.tol = 1e-9 * max_capacity(c.g);
    c.flow = push_relabel(c.g, c.s, c.t).edge_flow;
    Case half = c;
    for (double& f : half.flow) f *= 0.5;
    cases.push_back(std::move(c));
    cases.push_back(std::move(half));
  }
  for (Case& c : cases)
    c.want = reference_verify_flow(c.g, c.s, c.t, c.flow, c.tol);

  const ChipFixture& fx = ChipFixture::get();
  const protocol::Verifier verifier(*fx.model, 1.0, fx.tolerance);
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> hot_allocations{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const std::size_t report = static_cast<std::size_t>(k) %
                                 ChipFixture::kReports;
      const Challenge& challenge = fx.challenges[report];
      const bool want_accept =
          verifier.verify(challenge, fx.reports[report]).accepted;
      auto lap = [&] {
        for (std::size_t j = 0; j < cases.size(); ++j) {
          const Case& c = cases[(j + 2 * static_cast<std::size_t>(k)) %
                                cases.size()];
          const VerifyResult got =
              maxflow::verify_flow(c.g, c.s, c.t, c.flow, c.tol);
          if (got.feasible != c.want.feasible ||
              got.optimal != c.want.optimal || got.reason != c.want.reason ||
              std::bit_cast<std::uint64_t>(got.value) !=
                  std::bit_cast<std::uint64_t>(c.want.value))
            mismatches.fetch_add(1);
        }
        if (verifier.verify(challenge, fx.reports[report]).accepted !=
            want_accept)
          mismatches.fetch_add(1);
      };
      // Warm lap: grows this thread's scratch to the largest geometry.
      // Counted laps then verify the maximum flows only: a rejection's
      // reason is a fresh string, which may allocate.
      lap();
      for (int round = 0; round < 3; ++round) {
        const std::uint64_t before = t_allocations;
        for (std::size_t j = 0; j < cases.size(); ++j) {
          const Case& c = cases[(j + 2 * static_cast<std::size_t>(k)) %
                                cases.size()];
          if (!c.want.optimal) continue;
          if (!maxflow::verify_flow(c.g, c.s, c.t, c.flow, c.tol).optimal)
            mismatches.fetch_add(1);
        }
        if (want_accept &&
            !verifier.verify(challenge, fx.reports[report]).accepted)
          mismatches.fetch_add(1);
        hot_allocations.fetch_add(t_allocations - before);
        lap();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(hot_allocations.load(), 0u);
}

}  // namespace
}  // namespace ppuf
