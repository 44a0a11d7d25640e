// Certified star-cut PREDICT and the shared crossbar topology.
//
// maxflow::star_certificate claims an exact max-flow value without a solve:
// a feasible flow whose value equals the terminal star cut is maximum.
// These tests hold it to that on fabricated PPUF instances (every closed
// certificate must pass the residual-graph verifier and match Dinic), force
// the miss path on a graph whose minimum cut is not a star, and check that
// PREDICT's budget and counter semantics survive the fast path.  The last
// suite hammers the per-geometry topology and the per-thread scratch graphs
// from eight threads at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "graph/complete.hpp"
#include "maxflow/solver.hpp"
#include "maxflow/star_certificate.hpp"
#include "maxflow/verify.hpp"
#include "obs/metrics.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/rng.hpp"

namespace ppuf {
namespace {

SimulationModel fabricate(std::size_t n, std::size_t l, std::uint64_t seed) {
  PpufParams params;
  params.node_count = n;
  params.grid_size = l;
  MaxFlowPpuf instance(params, seed);
  return SimulationModel(instance);
}

double max_capacity(const graph::Digraph& g) {
  double m = 0.0;
  for (const graph::Edge& e : g.edges()) m = std::max(m, e.capacity);
  return m;
}

/// Metrics on and zeroed for one test, off again afterwards.
class MetricsScope {
 public:
  MetricsScope() {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  ~MetricsScope() {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::MetricsRegistry::global().reset();
  }
  std::uint64_t certified() const {
    return obs::MetricsRegistry::global().counter_value(
        "ppuf.predict.certified");
  }
  std::uint64_t fallback() const {
    return obs::MetricsRegistry::global().counter_value(
        "ppuf.predict.fallback");
  }
};

TEST(StarCertificate, ClosedCertificatesAreVerifiedMaximaOnPpufGraphs) {
  struct Geometry {
    std::size_t n, l;
  };
  constexpr std::size_t kChallenges = 200;
  const auto dinic = maxflow::make_solver(maxflow::Algorithm::kDinic);
  std::size_t all_hits = 0, all_solves = 0;
  for (const Geometry geo : {Geometry{8, 4}, Geometry{16, 4}, Geometry{24, 6},
                             Geometry{32, 8}, Geometry{64, 8},
                             Geometry{100, 10}}) {
    const SimulationModel model = fabricate(geo.n, geo.l, 11);
    util::Rng rng(1000 + geo.n);
    std::size_t hits = 0;
    maxflow::FlowResult cert;
    for (std::size_t i = 0; i < kChallenges; ++i) {
      const Challenge c = random_challenge(model.layout(), rng);
      for (int net = 0; net < 2; ++net) {
        const graph::Digraph g = model.build_graph(net, c);
        const graph::FlowProblem problem{&g, c.source, c.sink};
        if (!maxflow::star_certificate(problem, &cert)) continue;
        ++hits;
        const double exact = dinic->solve(problem).value;
        const maxflow::VerifyResult v = maxflow::verify_flow(
            g, c.source, c.sink, cert.edge_flow, 1e-12 * max_capacity(g));
        ASSERT_TRUE(v.optimal) << "n=" << geo.n << " challenge " << i
                               << " net " << net << ": " << v.reason;
        EXPECT_NEAR(cert.value, exact, 1e-12 * exact)
            << "n=" << geo.n << " challenge " << i << " net " << net;
      }
    }
    std::cout << "[ hit rate ] n=" << geo.n << " grid " << geo.l << ": "
              << hits << "/" << 2 * kChallenges << " certified\n";
    all_hits += hits;
    all_solves += 2 * kChallenges;
  }
  // Correctness does not depend on the hit rate, but PREDICT's speed does:
  // a greedy that stops closing shows up here before it shows up as load.
  EXPECT_GE(static_cast<double>(all_hits),
            0.95 * static_cast<double>(all_solves));
}

/// Complete graph on 6 vertices whose minimum 0 -> 5 cut separates
/// {0, 1, 2} from {3, 4, 5}: the terminal stars are wide (10 per edge),
/// every edge across the middle is narrow (0.01).
double layered_capacity(graph::VertexId from, graph::VertexId to) {
  const bool from_source_side = from <= 2;
  const bool to_source_side = to <= 2;
  return from_source_side == to_source_side ? 10.0 : 0.01;
}

TEST(StarCertificate, NonStarMinimumCutMissesAndFallsBack) {
  const graph::Digraph g = graph::make_complete(6, layered_capacity);
  const graph::FlowProblem problem{&g, 0, 5};
  maxflow::FlowResult cert;
  EXPECT_FALSE(maxflow::star_certificate(problem, &cert));
  const double exact =
      maxflow::make_solver(maxflow::Algorithm::kDinic)->solve(problem).value;
  EXPECT_NEAR(exact, 9 * 0.01, 1e-15);

  // The same graph as a published model (one grid cell, both bits equal):
  // PREDICT misses on both networks and serves the fallback solve.
  const CrossbarLayout layout(6, 1);
  std::array<std::vector<std::array<double, 2>>, 2> caps;
  for (auto& net : caps)
    for (const graph::Edge& e : g.edges())
      net.push_back({e.capacity, e.capacity});
  const SimulationModel model =
      SimulationModel::restore(layout, std::move(caps), 0.0);
  const Challenge c{0, 5, {0}};
  MetricsScope metrics;
  const SimulationModel::Prediction p = model.predict(c);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.flow_a, exact, 1e-12 * exact);
  EXPECT_NEAR(p.flow_b, exact, 1e-12 * exact);
  EXPECT_EQ(metrics.certified(), 0u);
  EXPECT_EQ(metrics.fallback(), 2u);
}

TEST(StarCertificate, StoppedControlAnswersTypedWithoutACertificate) {
  const SimulationModel model = fabricate(8, 4, 11);
  util::Rng rng(5);
  const Challenge c = random_challenge(model.layout(), rng);
  MetricsScope metrics;

  util::SolveControl expired;
  expired.deadline = util::Deadline::after_seconds(0.0);
  EXPECT_EQ(model.predict(c, maxflow::Algorithm::kPushRelabel, expired)
                .status.code(),
            util::StatusCode::kDeadlineExceeded);

  util::CancelToken token;
  token.request_cancel();
  util::SolveControl cancelled;
  cancelled.cancel = &token;
  EXPECT_EQ(model.predict(c, maxflow::Algorithm::kPushRelabel, cancelled)
                .status.code(),
            util::StatusCode::kCancelled);

  SimulationModel::PredictBatchOptions options;
  options.deadlines = {util::Deadline::after_seconds(0.0)};
  EXPECT_EQ(model.predict_batch({c}, options)[0].status.code(),
            util::StatusCode::kDeadlineExceeded);

  EXPECT_EQ(metrics.certified(), 0u);
  EXPECT_EQ(metrics.fallback(), 0u);
}

TEST(StarCertificate, PredictServesExactValuesAndCountsEveryNetwork) {
  const SimulationModel model = fabricate(24, 6, 2026);
  util::Rng rng(17);
  std::vector<Challenge> batch;
  for (int i = 0; i < 60; ++i)
    batch.push_back(random_challenge(model.layout(), rng));
  MetricsScope metrics;
  SimulationModel::PredictBatchOptions options;
  const auto predictions = model.predict_batch(batch, options);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(predictions[i].ok());
    const double a =
        model.predicted_flow(0, batch[i], maxflow::Algorithm::kDinic);
    const double b =
        model.predicted_flow(1, batch[i], maxflow::Algorithm::kDinic);
    EXPECT_NEAR(predictions[i].flow_a, a, 1e-12 * a) << i;
    EXPECT_NEAR(predictions[i].flow_b, b, 1e-12 * b) << i;
    EXPECT_EQ(predictions[i].bit,
              (a - b + model.comparator_offset()) > 0.0 ? 1 : 0)
        << i;
    // predict() and predict_batch() are the same function of the input.
    const SimulationModel::Prediction one = model.predict(batch[i]);
    EXPECT_EQ(one.bit, predictions[i].bit);
    EXPECT_EQ(one.flow_a, predictions[i].flow_a);
    EXPECT_EQ(one.flow_b, predictions[i].flow_b);
  }
  EXPECT_EQ(metrics.certified() + metrics.fallback(), 4 * batch.size());
  EXPECT_GT(metrics.certified(), metrics.fallback());
}

TEST(SharedTopology, ModelsOfOneGeometryShareOneGraph) {
  const CrossbarLayout layout(16, 4);
  const auto a = CrossbarTopology::of(layout);
  const auto b = CrossbarTopology::of(layout);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, CrossbarTopology::of(CrossbarLayout(16, 2)));
  EXPECT_TRUE(a->graph().is_complete());
  ASSERT_EQ(a->edge_cells().size(), layout.edge_count());
  for (const graph::Edge& e : a->graph().edges()) {
    const graph::EdgeId id = layout.edge_id(e.from, e.to);
    EXPECT_EQ(a->edge_cells()[id], layout.cell_of_edge(e.from, e.to));
  }

  // The scratch instance and a built copy are the same graph.
  const SimulationModel model = fabricate(16, 4, 3);
  util::Rng rng(9);
  const Challenge c = random_challenge(model.layout(), rng);
  const graph::Digraph built = model.build_graph(1, c);
  const graph::Digraph& scratch = model.scratch_graph(1, c);
  ASSERT_EQ(built.edge_count(), scratch.edge_count());
  for (graph::EdgeId e = 0; e < built.edge_count(); ++e) {
    EXPECT_EQ(built.edge(e).capacity, scratch.edge(e).capacity);
    EXPECT_EQ(built.edge(e).capacity,
              model.capacity(1, e,
                             c.bits[layout.cell_of_edge(built.edge(e).from,
                                                        built.edge(e).to)]));
  }
}

TEST(SharedTopologyConcurrency, EightThreadsMaterialiseAndServeOneGeometry) {
  const backend::PufBackend* mf =
      backend::find_backend(backend::BackendKind::kMaxFlow);
  ASSERT_NE(mf, nullptr);
  // Two geometries: every thread serves both, so each thread's scratch
  // graph switches topology between calls.
  std::vector<std::uint8_t> blobs[2];
  ASSERT_TRUE(mf->fabricate({16, 4, 77}, nullptr, &blobs[0]).is_ok());
  ASSERT_TRUE(mf->fabricate({12, 3, 78}, nullptr, &blobs[1]).is_ok());

  struct Workload {
    std::vector<Challenge> challenges;
    std::vector<protocol::ProverReport> reports;
    std::vector<SimulationModel::Prediction> predictions;
    std::vector<protocol::AuthenticationResult> verdicts;
  };
  const backend::MaterializeOptions options;
  Workload reference[2];
  for (int g = 0; g < 2; ++g) {
    std::unique_ptr<backend::Device> device;
    ASSERT_TRUE(mf->materialize(blobs[g], options, &device).is_ok());
    util::Rng rng(40 + g);
    Workload& w = reference[g];
    for (int i = 0; i < 24; ++i) {
      w.challenges.push_back(device->issue_challenge(rng));
      w.reports.push_back(protocol::prove_by_simulation(
          *device->sim_model(), w.challenges.back()));
      if (i % 4 == 0) w.reports.back().bit ^= 1;  // forged
    }
    w.predictions = device->predict_batch(w.challenges, {});
    w.verdicts = device->verify_batch(w.challenges, w.reports, {});
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int g = 0; g < 2; ++g) {
          // Each thread hydrates its own devices, so topologies are looked
          // up, shared and released concurrently.
          std::unique_ptr<backend::Device> device;
          if (!mf->materialize(blobs[g], options, &device).is_ok()) {
            ++mismatches[t];
            continue;
          }
          const Workload& w = reference[g];
          const auto p = device->predict_batch(w.challenges, {});
          const auto v = device->verify_batch(w.challenges, w.reports, {});
          for (std::size_t i = 0; i < w.challenges.size(); ++i) {
            if (p[i].bit != w.predictions[i].bit ||
                p[i].flow_a != w.predictions[i].flow_a ||
                p[i].flow_b != w.predictions[i].flow_b ||
                v[i].accepted != w.verdicts[i].accepted ||
                v[i].detail != w.verdicts[i].detail)
              ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  // The reference verdicts are meaningful: honest reports pass, forged
  // bits fail.
  for (const Workload& w : reference)
    for (std::size_t i = 0; i < w.verdicts.size(); ++i)
      EXPECT_EQ(w.verdicts[i].accepted, i % 4 != 0) << i;
}

}  // namespace
}  // namespace ppuf
