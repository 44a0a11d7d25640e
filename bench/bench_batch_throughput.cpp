// Batch prediction throughput on the concurrent evaluation engine.
//
// The verifier side of the paper's asymmetry only matters at scale if the
// reproduction can actually serve volume: this bench measures items/sec of
// SimulationModel::predict_batch over a 200-item batch of n=32 instances
// at 1, 2, 4 and hardware-concurrency worker threads, then the response
// cache's effect on a 100% repeated-challenge batch (the feedback-chain /
// repeat-customer pattern).  Results also land in a JSON file (argv[1],
// default BENCH_batch.json) so CI can archive the trend.
//
// A sparse-vs-dense leg gates the MNA linear core: one n=8 crossbar
// challenge is flattened transistor-by-transistor into a single MNA system
// (~850 unknowns) and the full cold DC solve is timed through the sparse
// core (slot-replayed assembly + Gilbert-Peierls LU with min-degree
// ordering) and through the dense LU oracle.  The acceptance gate is a
// >= 5x sparse speedup with matching source currents; the measured ratio
// lands in the JSON as "sparse_vs_dense_speedup".
//
// A PREDICT leg at paper scale (n = 64) times the serving path —
// certificate-first predict_batch, one thread — against the full-solve
// path it replaced (two push-relabel solves per item), checks that both
// give the same flows, and records the star-cut certificate hit ratio
// from the ppuf.predict.certified / .fallback counters.
//
// A VERIFY leg at n = 64 times maxflow::verify_flow per network on
// chip-proved reports and on certified witnesses, next to an in-bench copy
// of the two-pass verifier it replaced, and fails unless both give the same
// verdicts, reasons and value bits.  It records the share of networks the
// closed terminal star settles without a BFS, and the cost of encoding one
// VERIFY request frame.  Recorded as "verify_n64" in the JSON.
//
// A final leg measures the cost of the obs metrics layer itself: the same
// single-thread uncached batch with the registry enabled versus disabled
// (median of 3 runs each).  The budget is < 3% throughput change; the
// measured number is recorded in the JSON and a warning (not a failure —
// the delta is noise-bound on loaded CI hosts) is printed when exceeded.
// The enabled-registry run's full snapshot is written to argv[2] (default
// metrics_snapshot.json) so CI archives what the counters actually saw.
//
// An enrollment leg profiles the path that actually runs Newton: enrolls/s
// through a registry (fabricate + WAL append) at n=24 and n=64, then one
// n=64 fabrication split into layers by calling each layer's public
// function over the same blocks and sweep points enrollment uses: netlist
// build (build_block), the DC solves (DcSolver::solve), and inside them
// Newton assembly (detail::assemble) and the LU refactor + solve
// (SparseLu), timed once per converged sweep point and scaled by the
// Newton iteration count; then the isat read and the WAL append
// (DeviceRegistry::apply_wal_bytes).  It also counts recovery-ladder rungs
// per enrollment by grid point.  Recorded as "enroll" in the JSON.
//
// Scaling expectation: items are independent max-flow solves, so on a
// p-core host items/sec should grow near-linearly until p saturates (the
// 4-thread column is the acceptance gate: >= 3x the 1-thread column on a
// 4+ core machine).  On fewer cores the ratio degrades to the core count,
// which the JSON records via "hardware_concurrency".
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <filesystem>

#include "attack/harness.hpp"
#include "backend/backend.hpp"
#include "bench_common.hpp"
#include "circuit/dc.hpp"
#include "circuit/mna.hpp"
#include "graph/bfs.hpp"
#include "maxflow/verify.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/device_netlist.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "puf/arbiter.hpp"
#include "registry/device_registry.hpp"
#include "registry/record.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ppuf;

constexpr std::size_t kNodes = 32;
constexpr std::size_t kGrid = 8;
constexpr std::size_t kPredictNodes = 64;
constexpr std::uint64_t kFabricationSeed = 2026;
constexpr std::uint64_t kChallengeSeed = 7;

/// Per-backend results for the heterogeneous-fleet leg.
struct BackendLeg {
  double enrolls_per_sec = 0.0;
  double predicts_per_sec = 0.0;
  double attack_error_small = 1.0;  ///< best-of-suite error, small N
  double attack_error_large = 1.0;  ///< best-of-suite error, large N
};

/// Enrollment leg: throughput plus a per-layer split of one fabrication.
struct EnrollLeg {
  std::map<std::size_t, double> enrolls_per_sec;  ///< by node count
  double fabricate_ms = 0.0;      ///< MaxFlowBackend::fabricate, whole
  double netlist_ms = 0.0;        ///< build_block, every block
  double newton_ms = 0.0;         ///< DcSolver::solve, every sweep point
  double newton_iterations = 0.0;
  double assemble_ms = 0.0;       ///< per-call cost x Newton iterations
  double lu_ms = 0.0;             ///< refactorize + solve, same scaling
  double isat_ms = 0.0;           ///< running max over the swept prefix
  double wal_append_ms = 0.0;     ///< one durable record append (median)
  /// Solves that needed a recovery rung, by sweep voltage.
  std::map<double, std::size_t> rungs_by_point;
};

/// VERIFY leg: per-network verify_flow cost and star-closure share on two
/// kinds of witness, plus the request encode.
struct VerifyLeg {
  double chip_us = 0.0;                 ///< verify_flow, chip-proved flows
  double certified_us = 0.0;            ///< verify_flow, certified flows
  double reference_chip_us = 0.0;       ///< two-pass reference, chip flows
  double reference_certified_us = 0.0;  ///< two-pass reference, certified
  double chip_star_closed = 0.0;        ///< share settled without a BFS
  double certified_star_closed = 0.0;
  double encode_request_us = 0.0;       ///< one VERIFY request frame
  std::size_t mismatches = 0;           ///< verdicts differing from reference
};

/// The two-pass verifier verify_flow replaced (capacity pass, conservation
/// pass, then a std::function-driven BFS), kept as the leg's reference.
maxflow::VerifyResult reference_verify_flow(const graph::Digraph& g,
                                            graph::VertexId source,
                                            graph::VertexId sink,
                                            std::span<const double> flow,
                                            double tolerance) {
  maxflow::VerifyResult result;
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
        tolerance *
        static_cast<double>(g.in_edges(v).size() + g.out_degree(v));
    if (std::abs(net[v]) > slack) {
      std::ostringstream os;
      os << "conservation violated at vertex " << v << ": net=" << net[v];
      result.reason = os.str();
      return result;
    }
  }
  result.feasible = true;
  result.value = -net[source];
  const auto dist = graph::bfs_distances(
      g.vertex_count(), source,
      [&](graph::VertexId v, std::vector<graph::VertexId>& out) {
        for (graph::EdgeId e : g.out_edges(v))
          if (g.edge(e).capacity - flow[e] > tolerance)
            out.push_back(g.edge(e).to);
        for (graph::EdgeId e : g.in_edges(v))
          if (flow[e] > tolerance) out.push_back(g.edge(e).from);
      });
  if (dist[sink] != graph::kUnreachable) {
    result.reason = "augmenting path remains (flow not maximum)";
    return result;
  }
  result.optimal = true;
  return result;
}

VerifyLeg measure_verify(MaxFlowPpuf& chip, const SimulationModel& model,
                         const std::vector<Challenge>& batch) {
  struct Network {
    graph::Digraph g;
    graph::VertexId s = 0, t = 0;
    const std::vector<double>* flow = nullptr;
  };
  const double tolerance = 0.1 * model.mean_capacity();  // serving default
  const std::size_t chip_reports = std::min(batch.size(), bench::scaled(8, 2));
  std::vector<protocol::ProverReport> chip_proved, certified;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i < chip_reports)
      chip_proved.push_back(protocol::prove_with_ppuf(chip, batch[i], 1e-6));
    certified.push_back(protocol::prove_by_certificate(model, batch[i]));
  }
  auto networks_of = [&](const std::vector<protocol::ProverReport>& reports) {
    std::vector<Network> out;
    for (std::size_t i = 0; i < reports.size(); ++i)
      for (int net = 0; net < 2; ++net)
        out.push_back({model.build_graph(net, batch[i]), batch[i].source,
                       batch[i].sink,
                       net == 0 ? &reports[i].edge_flow_a
                                : &reports[i].edge_flow_b});
    return out;
  };

  VerifyLeg leg;
  auto measure = [&](const std::vector<Network>& networks, double* us,
                     double* reference_us, double* closed_share) {
    std::size_t closed = 0;
    for (const Network& n : networks) {
      const maxflow::VerifyResult got =
          maxflow::verify_flow(n.g, n.s, n.t, *n.flow, tolerance);
      const maxflow::VerifyResult want =
          reference_verify_flow(n.g, n.s, n.t, *n.flow, tolerance);
      if (got.feasible != want.feasible || got.optimal != want.optimal ||
          got.reason != want.reason ||
          std::bit_cast<std::uint64_t>(got.value) !=
              std::bit_cast<std::uint64_t>(want.value))
        ++leg.mismatches;
      if (got.star_closed) ++closed;
    }
    const double count = static_cast<double>(networks.size());
    *closed_share = static_cast<double>(closed) / count;
    const auto kernel = [&] {
      for (const Network& n : networks)
        maxflow::verify_flow(n.g, n.s, n.t, *n.flow, tolerance);
    };
    const auto reference = [&] {
      for (const Network& n : networks)
        reference_verify_flow(n.g, n.s, n.t, *n.flow, tolerance);
    };
    *us = 1e6 / count * bench::time_seconds_median(kernel, 5);
    *reference_us = 1e6 / count * bench::time_seconds_median(reference, 5);
  };
  measure(networks_of(chip_proved), &leg.chip_us, &leg.reference_chip_us,
          &leg.chip_star_closed);
  measure(networks_of(certified), &leg.certified_us,
          &leg.reference_certified_us, &leg.certified_star_closed);

  const std::size_t frames = 50 * chip_proved.size();
  const auto encode = [&] {
    for (std::size_t k = 0; k < frames; ++k) {
      const std::size_t i = k % chip_proved.size();
      net::encode_frame(net::MessageType::kVerifyRequest, k, 1, 0,
                        [&](net::Writer& w) {
                          net::encode_verify_request(w, batch[i],
                                                     chip_proved[i]);
                        });
    }
  };
  leg.encode_request_us = 1e6 / static_cast<double>(frames) *
                          bench::time_seconds_median(encode, 3);
  return leg;
}

template <typename F>
double time_ms(F&& f) {
  return bench::time_seconds(std::forward<F>(f)) * 1e3;
}

/// Enrolls/s through a fresh registry: fabricate + WAL append per device.
double enroll_rate(std::size_t nodes, std::size_t grid, std::size_t count) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_enroll_rate";
  std::filesystem::remove_all(dir);
  registry::DeviceRegistry reg;
  if (!reg.open(dir.string()).is_ok()) std::abort();
  const double seconds = bench::time_seconds([&] {
    for (std::size_t i = 0; i < count; ++i) {
      registry::EnrollRequest req;
      req.node_count = nodes;
      req.grid_size = grid;
      req.seed = 9100 + i;
      req.label = "bench";
      std::uint64_t id = 0;
      if (!reg.enroll(req, &id).is_ok()) std::abort();
    }
  });
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return static_cast<double>(count) / seconds;
}

EnrollLeg measure_enrollment() {
  EnrollLeg leg;
  leg.enrolls_per_sec[24] = enroll_rate(24, 4, bench::scaled(4, 2));
  leg.enrolls_per_sec[kPredictNodes] =
      enroll_rate(kPredictNodes, 8, bench::scaled(2, 1));

  backend::FabricateRequest fab;
  fab.node_count = kPredictNodes;
  fab.grid_size = 8;
  fab.seed = kFabricationSeed;
  std::vector<std::uint8_t> blob;
  const backend::PufBackend* mf =
      backend::find_backend(backend::BackendKind::kMaxFlow);
  leg.fabricate_ms = time_ms([&] {
    if (!mf->fabricate(fab, nullptr, &blob).is_ok()) std::abort();
  });

  // Replay the capacity-only extraction of the same device layer by
  // layer: each block's sweep from 0 V up to the capacity reference knot.
  PpufParams params;
  params.node_count = kPredictNodes;
  params.grid_size = 8;
  MaxFlowPpuf puf(params, kFabricationSeed);
  const circuit::Environment env = circuit::Environment::nominal();
  const std::vector<double> grid = characterization_grid(params);
  const std::size_t zero = static_cast<std::size_t>(
      std::find(grid.begin(), grid.end(), 0.0) - grid.begin());
  const std::size_t knot = static_cast<std::size_t>(
      std::find(grid.begin(), grid.end(), kCapacityReferenceVoltage) -
      grid.begin());
  circuit::DcOptions opts;
  opts.temperature_c = env.temperature_c;
  opts.symbolic_cache = std::make_shared<circuit::SymbolicCache>();
  std::shared_ptr<const circuit::MnaStructure> structure;
  numeric::SparseMatrix jac;
  numeric::SparseLu lu;
  std::vector<numeric::Vector> xs;  // converged unknowns per sweep point
  numeric::Vector f;
  double assemble_ms = 0.0, assemble_lu_ms = 0.0;
  std::size_t solves = 0;
  double isat_sink = 0.0;
  for (const CrossbarNetwork* net : {&puf.network_a(), &puf.network_b()}) {
    for (graph::EdgeId e = 0; e < puf.layout().edge_count(); ++e) {
      for (int bit = 0; bit < 2; ++bit) {
        SweepCircuit sc;
        leg.netlist_ms += time_ms([&] {
          sc = build_block(params, net->block_variation(e), bit, env);
        });
        const circuit::Netlist& nl = sc.netlist;
        if (structure == nullptr) {
          structure = circuit::build_mna_structure(nl, opts, {});
          jac = structure->pattern;
        }
        const circuit::DcSolver solver(nl, opts);
        std::vector<double> currents;
        xs.clear();
        circuit::OperatingPoint op, prev;
        for (std::size_t i = zero; i <= knot; ++i) {
          sc.netlist.set_voltage(sc.sweep_source, grid[i]);
          leg.newton_ms += time_ms(
              [&] { solver.solve(i == zero ? nullptr : &prev, &op); });
          if (!op.converged) std::abort();
          leg.newton_iterations += op.iterations;
          if (op.diagnostics.strategy != circuit::RecoveryStage::kDirect)
            ++leg.rungs_by_point[grid[i]];
          currents.push_back(op.source_current(sc.sweep_source));
          numeric::Vector& x = xs.emplace_back(
              op.node_voltage.begin() + 1, op.node_voltage.end());
          x.insert(x.end(), op.vsource_current.begin(),
                   op.vsource_current.end());
          std::swap(prev, op);
        }
        solves += xs.size();

        // One Newton iteration's assembly, then assembly + LU refactor and
        // solve, at each converged point of the block (timed per block so
        // the clock's own cost stays out of the ~1 us calls).
        auto assemble_at = [&](const numeric::Vector& x) {
          f.assign(x.size(), 0.0);
          jac.zero_values();
          circuit::SlotReplaySink sink(&jac, structure->slots);
          circuit::detail::assemble(nl, opts, x, f, &sink, {});
        };
        assemble_ms += time_ms([&] {
          for (const numeric::Vector& x : xs) assemble_at(x);
        });
        assemble_lu_ms += time_ms([&] {
          for (const numeric::Vector& x : xs) {
            assemble_at(x);
            if (!lu.refactorize(jac).is_ok() && !lu.factorize(jac).is_ok())
              std::abort();
            if (!lu.solve_in_place(f).is_ok()) std::abort();
          }
        });
        leg.isat_ms += time_ms([&] {
          double isat = currents.front();
          for (const double c : currents) isat = std::max(c, isat);
          isat_sink += isat;
        });
      }
    }
  }
  if (!(isat_sink > 0.0)) std::abort();
  // Every Newton iteration assembles; all but the converging one of each
  // solve also refactor and solve.
  const double n_solves = static_cast<double>(solves);
  leg.assemble_ms = assemble_ms / n_solves * leg.newton_iterations;
  leg.lu_ms = (assemble_lu_ms - assemble_ms) / n_solves *
              (leg.newton_iterations - n_solves);

  // The durable commit of the fabricated blob, as a registry applies it.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_enroll_wal";
  std::filesystem::remove_all(dir);
  registry::DeviceRegistry reg;
  registry::DeviceRegistry::Options ropts;
  ropts.auto_compact_records = 0;
  if (!reg.open(dir.string(), ropts).is_ok()) std::abort();
  constexpr int kAppends = 5;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < kAppends; ++i) {
    registry::WalRecord rec;
    rec.entry.id = static_cast<std::uint64_t>(i + 1);
    rec.entry.nodes = kPredictNodes;
    rec.entry.grid = 8;
    rec.entry.label = "bench";
    rec.entry.model_bytes = blob;
    frames.push_back(registry::frame_record(rec));
  }
  std::size_t next = 0;
  leg.wal_append_ms = 1e3 * bench::time_seconds_median(
                                [&] {
                                  const auto& bytes = frames[next++];
                                  std::size_t used = 0;
                                  if (!reg.apply_wal_bytes(bytes.data(),
                                                           bytes.size(), &used)
                                           .is_ok())
                                    std::abort();
                                },
                                kAppends);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_batch.json";
  const std::string metrics_path =
      argc > 2 ? argv[2] : "metrics_snapshot.json";
  const std::size_t items = bench::scaled(200, 50);

  std::cout << "fabricating n=" << kNodes << " instance and extracting the "
            << "public model...\n";
  PpufParams params;
  params.node_count = kNodes;
  params.grid_size = kGrid;
  MaxFlowPpuf puf(params, kFabricationSeed);
  SimulationModel model(puf);

  util::Rng rng(kChallengeSeed);
  std::vector<Challenge> batch;
  batch.reserve(items);
  for (std::size_t i = 0; i < items; ++i)
    batch.push_back(random_challenge(model.layout(), rng));

  const unsigned hw = util::ThreadPool::default_thread_count();
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  util::Table table({"threads", "items/s", "seconds", "speedup"});
  std::map<unsigned, double> items_per_sec;
  double baseline = 0.0;
  std::vector<SimulationModel::Prediction> reference;
  for (const unsigned threads : thread_counts) {
    util::ThreadPool pool(threads);
    SimulationModel::PredictBatchOptions options;
    options.pool = &pool;
    std::vector<SimulationModel::Prediction> predictions;
    const double seconds = bench::time_seconds(
        [&] { predictions = model.predict_batch(batch, options); });
    const double ips = static_cast<double>(items) / seconds;
    items_per_sec[threads] = ips;
    if (threads == 1) {
      baseline = ips;
      reference = predictions;
    } else {
      // Worker count must never change the answers.
      for (std::size_t i = 0; i < items; ++i) {
        if (predictions[i].bit != reference[i].bit ||
            predictions[i].flow_a != reference[i].flow_a ||
            predictions[i].flow_b != reference[i].flow_b) {
          std::cerr << "FATAL: thread count changed item " << i << "\n";
          return 1;
        }
      }
    }
    table.add_row({std::to_string(threads), util::Table::num(ips, 4),
                   util::Table::num(seconds, 3),
                   util::Table::num(ips / baseline, 3)});
  }
  table.print(std::cout);

  // Cache leg: warm the cache with one pass, then a batch that is 100%
  // repeated challenges.  Every item should hit; the acceptance gate is
  // >= 99% hit rate reported for the repeated batch alone.
  ResponseCache cache(64 * 1024 * 1024);
  SimulationModel::PredictBatchOptions cached;
  cached.cache = &cache;
  cached.thread_count = 1;
  (void)model.predict_batch(batch, cached);  // warm: all misses
  const ResponseCacheStats warm = cache.stats();
  double cached_seconds = 0.0;
  cached_seconds = bench::time_seconds(
      [&] { (void)model.predict_batch(batch, cached); });
  const ResponseCacheStats after = cache.stats();
  const std::uint64_t repeat_hits = after.hits - warm.hits;
  const std::uint64_t repeat_misses = after.misses - warm.misses;
  const double repeat_hit_rate =
      static_cast<double>(repeat_hits) /
      static_cast<double>(repeat_hits + repeat_misses);
  const double cached_ips = static_cast<double>(items) / cached_seconds;
  std::cout << "repeated-challenge batch: " << repeat_hits << "/"
            << (repeat_hits + repeat_misses) << " cache hits ("
            << repeat_hit_rate * 100.0 << "%), "
            << util::Table::num(cached_ips, 4) << " items/s ("
            << util::Table::num(cached_ips / baseline, 3)
            << "x the uncached single thread)\n";

  bench::paper_note(
      "execution-simulation gap, verifier side: answering repeated CRPs "
      "must be cheap; the cache makes repeats O(lookup) and the pool "
      "spreads fresh solves across p workers (O(n^2/p) per check).");

  // PREDICT leg at n = 64: the certificate-first serving path vs the full
  // push-relabel solves it replaced, on the same batch.
  std::cout << "\nPREDICT at n=" << kPredictNodes
            << ": certificate-first vs full solve...\n";
  PpufParams p64_params;
  p64_params.node_count = kPredictNodes;
  p64_params.grid_size = 8;
  MaxFlowPpuf p64_puf(p64_params, kFabricationSeed);
  const SimulationModel p64(p64_puf);
  util::Rng p64_rng(kChallengeSeed);
  std::vector<Challenge> p64_batch;
  for (std::size_t i = 0; i < items; ++i)
    p64_batch.push_back(random_challenge(p64.layout(), p64_rng));
  SimulationModel::PredictBatchOptions p64_options;
  std::vector<SimulationModel::Prediction> p64_predictions;
  const double p64_seconds = bench::time_seconds_median(
      [&] { p64_predictions = p64.predict_batch(p64_batch, p64_options); },
      3);
  std::vector<std::array<double, 2>> solved(items);
  const double solve_seconds = bench::time_seconds([&] {
    for (std::size_t i = 0; i < items; ++i)
      for (int net = 0; net < 2; ++net)
        solved[i][net] = p64.predicted_flow(net, p64_batch[i]);
  });
  for (std::size_t i = 0; i < items; ++i) {
    const double got[2] = {p64_predictions[i].flow_a,
                           p64_predictions[i].flow_b};
    for (int net = 0; net < 2; ++net) {
      if (std::abs(got[net] - solved[i][net]) > 1e-12 * solved[i][net]) {
        std::cerr << "FAIL: PREDICT item " << i << " network " << net
                  << " served " << got[net] << ", full solve gives "
                  << solved[i][net] << "\n";
        return 1;
      }
    }
  }
  double certificate_hit_ratio = 0.0;
  {
    obs::MetricsRegistry& counting = obs::MetricsRegistry::global();
    counting.set_enabled(true);
    counting.reset();
    (void)p64.predict_batch(p64_batch, p64_options);
    const double certified = static_cast<double>(
        counting.counter_value("ppuf.predict.certified"));
    const double fallback = static_cast<double>(
        counting.counter_value("ppuf.predict.fallback"));
    certificate_hit_ratio = certified / (certified + fallback);
    counting.reset();
    counting.set_enabled(false);
  }
  const double p64_ips = static_cast<double>(items) / p64_seconds;
  const double solve_ips = static_cast<double>(items) / solve_seconds;
  std::cout << "predict_batch " << util::Table::num(p64_ips, 4)
            << " items/s vs full solve " << util::Table::num(solve_ips, 4)
            << " items/s (" << util::Table::num(p64_ips / solve_ips, 3)
            << "x); certificate hit ratio "
            << util::Table::num(certificate_hit_ratio, 4) << "\n";

  // VERIFY leg at n = 64, on the PREDICT leg's device and challenges.
  std::cout << "\nVERIFY at n=" << kPredictNodes
            << ": verify_flow on chip-proved and certified witnesses...\n";
  const VerifyLeg verify = measure_verify(p64_puf, p64, p64_batch);
  util::Table verify_table(
      {"witness", "verify_flow us/net", "two-pass ref us/net", "star closed"});
  verify_table.add_row({"chip-proved", util::Table::num(verify.chip_us, 4),
                        util::Table::num(verify.reference_chip_us, 4),
                        util::Table::num(verify.chip_star_closed, 4)});
  verify_table.add_row({"certified", util::Table::num(verify.certified_us, 4),
                        util::Table::num(verify.reference_certified_us, 4),
                        util::Table::num(verify.certified_star_closed, 4)});
  verify_table.print(std::cout);
  std::cout << "VERIFY request frame encode: "
            << util::Table::num(verify.encode_request_us, 4) << " us\n";
  if (verify.mismatches != 0) {
    std::cerr << "FAIL: verify_flow differs from the two-pass reference on "
              << verify.mismatches << " networks\n";
    return 1;
  }

  // Sparse-vs-dense linear-core leg: a paper-scale flattened device.  The
  // production path solves compact models, so this leg builds the circuit
  // the compact models abstract — all 56 blocks of an n=8 challenge,
  // transistor by transistor, in one MNA system — and solves it cold
  // through both linear cores.  No prepare()/characterisation is needed:
  // the flattened netlist only consumes the variation draws.
  std::cout << "\nflattened-device MNA: sparse core vs dense oracle...\n";
  PpufParams dev_params;
  dev_params.node_count = 8;
  dev_params.grid_size = 4;
  MaxFlowPpuf device(dev_params, kFabricationSeed);
  util::Rng dev_rng(kChallengeSeed + 1);
  const Challenge dev_challenge = random_challenge(device.layout(), dev_rng);
  DeviceNetlist flat =
      build_device_netlist(dev_params, device.network_a(), dev_challenge);

  bool flat_failed = false;
  auto solve_flat = [&](bool dense, double* current) {
    circuit::DcOptions o;
    o.use_dense_solver = dense;
    const circuit::DcSolver solver(flat.netlist, o);
    const circuit::OperatingPoint op = solver.solve();
    if (!op.converged) flat_failed = true;
    *current = op.source_current(flat.drive_source);
  };
  double sparse_current = 0.0, dense_current = 0.0;
  const double sparse_seconds = bench::time_seconds_median(
      [&] { solve_flat(false, &sparse_current); }, 3);
  const double dense_seconds =
      bench::time_seconds([&] { solve_flat(true, &dense_current); });
  if (flat_failed) {
    std::cerr << "FAIL: flattened device solve did not converge\n";
    return 1;
  }
  const double core_speedup = dense_seconds / sparse_seconds;
  std::cout << "dim=" << flat.mna_dimension << ": sparse "
            << util::Table::num(sparse_seconds, 4) << " s, dense "
            << util::Table::num(dense_seconds, 4) << " s -> "
            << util::Table::num(core_speedup, 3) << "x (source currents "
            << sparse_current << " / " << dense_current << " A)\n";
  if (std::abs(sparse_current - dense_current) >
      1e-12 + 1e-6 * std::abs(dense_current)) {
    std::cerr << "FAIL: sparse and dense source currents diverged\n";
    return 1;
  }

  // Metrics-overhead leg: identical single-thread uncached batches with
  // the registry off and on.  Run disabled first so the enabled run's
  // counters describe exactly the runs in the snapshot.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_enabled(false);
  SimulationModel::PredictBatchOptions plain;
  plain.thread_count = 1;
  constexpr int kOverheadReps = 3;
  const double disabled_seconds = bench::time_seconds_median(
      [&] { (void)model.predict_batch(batch, plain); }, kOverheadReps);
  reg.set_enabled(true);
  obs::register_standard_metrics(reg);
  const double enabled_seconds = bench::time_seconds_median(
      [&] { (void)model.predict_batch(batch, plain); }, kOverheadReps);
  const double overhead_pct =
      (enabled_seconds / disabled_seconds - 1.0) * 100.0;
  std::cout << "metrics overhead: " << util::Table::num(overhead_pct, 2)
            << "% (" << util::Table::num(disabled_seconds, 4) << " s off, "
            << util::Table::num(enabled_seconds, 4) << " s on, median of "
            << kOverheadReps << ")\n";
  if (overhead_pct > 3.0) {
    std::cerr << "WARN: metrics overhead above the 3% budget "
              << "(noise-bound on loaded hosts; recorded, not enforced)\n";
  }
  cache.publish_metrics(reg);
  reg.write_json(metrics_path);
  reg.set_enabled(false);
  std::cout << "metrics snapshot written to " << metrics_path << "\n";

  // Per-backend fleet leg: enroll + predict throughput and the Fig. 10
  // attack accuracy for both registered backends through the same
  // registry enrollment path a heterogeneous fleet uses.  The numbers
  // tell the paper's story in one table: max-flow enrollment pays the
  // model-extraction cost and the attack stays near coin-flipping, while
  // PDL enrollment is microseconds and the attack clones the device.
  std::cout << "\nper-backend fleet leg (enroll / predict / attack)...\n";
  const std::size_t attack_small = 100;
  const std::size_t attack_large = bench::scaled(400, 200);
  const std::size_t attack_test = 100;
  const std::size_t attack_total = attack_large + attack_test;
  std::map<std::string, BackendLeg> backend_legs;
  util::Table backend_table(
      {"backend", "enrolls/s", "predicts/s",
       "attack err @" + std::to_string(attack_small),
       "attack err @" + std::to_string(attack_large)});
  for (const char* name : {"maxflow", "pdl"}) {
    const backend::PufBackend* impl = backend::find_backend(name);
    BackendLeg leg;
    const bool is_maxflow = std::string(name) == "maxflow";
    // Geometry per family: a small crossbar vs a 64-stage single chain
    // (the classic learnable baseline).
    const std::size_t nodes = is_maxflow ? 10 : 64;
    const std::size_t grid = is_maxflow ? 4 : 1;

    // Enroll throughput through the registry (fabricate + WAL append).
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("bench_backend_" + std::string(name));
    std::filesystem::remove_all(dir);
    registry::DeviceRegistry fleet;
    if (!fleet.open(dir.string()).is_ok()) {
      std::cerr << "FAIL: cannot open bench registry at " << dir << "\n";
      return 1;
    }
    const std::size_t enrolls = is_maxflow ? bench::scaled(4, 2) : 64;
    const double enroll_seconds = bench::time_seconds([&] {
      for (std::size_t i = 0; i < enrolls; ++i) {
        registry::EnrollRequest req;
        req.backend = impl->kind();
        req.node_count = nodes;
        req.grid_size = grid;
        req.seed = 9000 + i;
        req.label = "bench";
        std::uint64_t id = 0;
        if (!fleet.enroll(req, &id).is_ok()) std::abort();
      }
    });
    leg.enrolls_per_sec = static_cast<double>(enrolls) / enroll_seconds;

    // Predict throughput on one materialised device (single thread).
    backend::FabricateRequest fab;
    fab.node_count = nodes;
    fab.grid_size = grid;
    fab.seed = 9000;
    std::vector<std::uint8_t> blob;
    std::unique_ptr<backend::Device> device;
    if (!impl->fabricate(fab, nullptr, &blob).is_ok() ||
        !impl->materialize(blob, {}, &device).is_ok()) {
      std::cerr << "FAIL: " << name << " fabricate/materialize\n";
      return 1;
    }
    util::Rng leg_rng(kChallengeSeed + 11);
    std::vector<Challenge> leg_batch;
    leg_batch.reserve(attack_total);
    for (std::size_t i = 0; i < attack_total; ++i)
      leg_batch.push_back(device->issue_challenge(leg_rng));
    SimulationModel::PredictBatchOptions leg_options;
    leg_options.thread_count = 1;
    std::vector<SimulationModel::Prediction> leg_predictions;
    const double predict_seconds = bench::time_seconds([&] {
      leg_predictions = device->predict_batch(leg_batch, leg_options);
    });
    leg.predicts_per_sec =
        static_cast<double>(leg_batch.size()) / predict_seconds;

    // Attack accuracy vs N: the harness's best-of-suite error on the
    // observed CRPs.  PDL trains on parity features (the representation
    // it shares with the backend); max-flow trains on raw bits, exactly
    // like bench_fig10_model_building.
    attack::Dataset all;
    if (is_maxflow) {
      std::vector<std::vector<std::uint8_t>> bits;
      std::vector<int> responses;
      for (std::size_t i = 0; i < leg_batch.size(); ++i) {
        bits.push_back(std::vector<std::uint8_t>(
            leg_batch[i].bits.begin(), leg_batch[i].bits.end()));
        responses.push_back(leg_predictions[i].bit);
      }
      all = attack::encode_bits(bits, responses);
    } else {
      std::vector<std::vector<double>> feats;
      std::vector<int> responses;
      for (std::size_t i = 0; i < leg_batch.size(); ++i) {
        feats.push_back(
            puf::ArbiterPuf::parity_features(leg_batch[i].bits));
        responses.push_back(leg_predictions[i].bit);
      }
      all = attack::from_features(std::move(feats), std::move(responses));
    }
    const attack::Dataset train = all.slice(0, attack_large);
    const attack::Dataset test = all.slice(attack_large, attack_test);
    const auto curve = attack::attack_learning_curve(
        train, test, {attack_small, attack_large});
    if (curve.size() == 2) {
      leg.attack_error_small = curve[0].best();
      leg.attack_error_large = curve[1].best();
    }
    backend_table.add_row({name, util::Table::num(leg.enrolls_per_sec, 4),
                           util::Table::num(leg.predicts_per_sec, 4),
                           util::Table::num(leg.attack_error_small, 3),
                           util::Table::num(leg.attack_error_large, 3)});
    backend_legs[name] = leg;
    std::error_code cleanup_ec;
    std::filesystem::remove_all(dir, cleanup_ec);
  }
  backend_table.print(std::cout);
  bench::paper_note(
      "Fig. 10 economics per backend: the PDL baseline is cloned to ~100% "
      "with a few hundred CRPs while the max-flow PPUF stays near "
      "coin-flipping at the same budget — public-model security must come "
      "from the simulation gap, not model secrecy.");

  std::cout << "\nenrollment leg (throughput, then one n=" << kPredictNodes
            << " fabrication split by layer)...\n";
  const EnrollLeg enroll = measure_enrollment();
  for (const auto& [nodes, rate] : enroll.enrolls_per_sec)
    std::cout << "n=" << nodes << ": " << util::Table::num(rate, 4)
              << " enrolls/s\n";
  util::Table split({"layer", "ms"});
  split.add_row({"fabricate (whole)", util::Table::num(enroll.fabricate_ms, 4)});
  split.add_row({"netlist build", util::Table::num(enroll.netlist_ms, 4)});
  split.add_row({"DC solves", util::Table::num(enroll.newton_ms, 4)});
  split.add_row({"  Newton assemble (est.)",
                 util::Table::num(enroll.assemble_ms, 4)});
  split.add_row({"  LU refactor+solve (est.)",
                 util::Table::num(enroll.lu_ms, 4)});
  split.add_row({"isat read", util::Table::num(enroll.isat_ms, 4)});
  split.add_row({"WAL append", util::Table::num(enroll.wal_append_ms, 4)});
  split.print(std::cout);
  std::size_t total_rungs = 0;
  for (const auto& [volts, rungs] : enroll.rungs_by_point) {
    std::cout << "recovery rungs at " << volts << " V: " << rungs << "\n";
    total_rungs += rungs;
  }
  std::cout << "Newton iterations " << enroll.newton_iterations
            << ", recovery rungs " << total_rungs << " per enrollment\n";

  std::ofstream json(json_path);
  json << "{\n";
  json << "  \"items\": " << items << ",\n";
  json << "  \"nodes\": " << kNodes << ",\n";
  json << "  \"hardware_concurrency\": " << hw << ",\n";
  json << "  \"items_per_sec\": {";
  bool first = true;
  for (const auto& [threads, ips] : items_per_sec) {
    json << (first ? "" : ", ") << "\"" << threads << "\": " << ips;
    first = false;
  }
  json << "},\n";
  json << "  \"speedup_4_threads\": " << items_per_sec[4] / baseline << ",\n";
  json << "  \"repeated_batch_hit_rate\": " << repeat_hit_rate << ",\n";
  json << "  \"repeated_batch_items_per_sec\": " << cached_ips << ",\n";
  json << "  \"predict_n64\": {\"items_per_sec\": " << p64_ips
       << ", \"full_solve_items_per_sec\": " << solve_ips
       << ", \"certificate_hit_ratio\": " << certificate_hit_ratio
       << "},\n";
  json << "  \"verify_n64\": {\"verify_flow_us_chip\": " << verify.chip_us
       << ", \"verify_flow_us_certified\": " << verify.certified_us
       << ", \"reference_verify_flow_us_chip\": " << verify.reference_chip_us
       << ", \"reference_verify_flow_us_certified\": "
       << verify.reference_certified_us
       << ", \"star_closed_ratio_chip\": " << verify.chip_star_closed
       << ", \"star_closed_ratio_certified\": "
       << verify.certified_star_closed
       << ", \"encode_verify_request_us\": " << verify.encode_request_us
       << "},\n";
  json << "  \"mna_dimension\": " << flat.mna_dimension << ",\n";
  json << "  \"sparse_solve_seconds\": " << sparse_seconds << ",\n";
  json << "  \"dense_solve_seconds\": " << dense_seconds << ",\n";
  json << "  \"sparse_vs_dense_speedup\": " << core_speedup << ",\n";
  json << "  \"metrics_overhead_pct\": " << overhead_pct << ",\n";
  json << "  \"backends\": {";
  first = true;
  for (const auto& [name, leg] : backend_legs) {
    json << (first ? "" : ", ") << "\"" << name << "\": {"
         << "\"enrolls_per_sec\": " << leg.enrolls_per_sec << ", "
         << "\"predicts_per_sec\": " << leg.predicts_per_sec << ", "
         << "\"attack_error_n" << attack_small
         << "\": " << leg.attack_error_small << ", "
         << "\"attack_error_n" << attack_large
         << "\": " << leg.attack_error_large << "}";
    first = false;
  }
  json << "},\n";
  json << "  \"enroll\": {\"enrolls_per_sec\": {";
  first = true;
  for (const auto& [nodes, rate] : enroll.enrolls_per_sec) {
    json << (first ? "" : ", ") << "\"" << nodes << "\": " << rate;
    first = false;
  }
  json << "}, \"split_n" << kPredictNodes << "_ms\": {"
       << "\"fabricate\": " << enroll.fabricate_ms << ", "
       << "\"netlist_build\": " << enroll.netlist_ms << ", "
       << "\"dc_solves\": " << enroll.newton_ms << ", "
       << "\"newton_assemble_est\": " << enroll.assemble_ms << ", "
       << "\"lu_refactor_solve_est\": " << enroll.lu_ms << ", "
       << "\"isat_read\": " << enroll.isat_ms << ", "
       << "\"wal_append\": " << enroll.wal_append_ms << "}, "
       << "\"newton_iterations\": " << enroll.newton_iterations << ", "
       << "\"recovery_rungs_by_grid_point\": {";
  first = true;
  for (const auto& [volts, rungs] : enroll.rungs_by_point) {
    json << (first ? "" : ", ") << "\"" << volts << "\": " << rungs;
    first = false;
  }
  json << "}}\n";
  json << "}\n";
  std::cout << "json written to " << json_path << "\n";

  // Exit status encodes the cache gate (always enforceable); the speedup
  // gate is meaningful only with >= 4 cores, so it is reported, not
  // enforced, on smaller hosts.
  if (repeat_hit_rate < 0.99) {
    std::cerr << "FAIL: repeated-batch hit rate below 99%\n";
    return 1;
  }
  if (hw >= 4 && items_per_sec[4] / baseline < 3.0) {
    std::cerr << "FAIL: 4-thread speedup below 3x on a >= 4 core host\n";
    return 1;
  }
  if (core_speedup < 5.0) {
    std::cerr << "FAIL: sparse linear core below 5x the dense oracle on "
              << "the flattened device (got "
              << util::Table::num(core_speedup, 3) << "x)\n";
    return 1;
  }
  return 0;
}
