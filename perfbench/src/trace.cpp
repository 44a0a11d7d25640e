// The traced run's per-layer attribution.
//
// Nothing inside the program is instrumented for this: each layer is
// timed by calling its public functions from here, on the run's recorded
// inputs, in memory, with a span per call.  Unloaded single-connection
// probes (direct, and through the gateway when there is one) give the
// round trip the replayed stages must add up to; the difference is the
// serving residual (event loop, syscalls, queueing).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "backend/maxflow_backend.hpp"
#include "fleet/ring.hpp"
#include "maxflow/verify.hpp"
#include "obs/metrics.hpp"
#include "registry/hydration_cache.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace net = ppuf::net;
using ppuf::util::Status;

namespace {

constexpr std::size_t kReplayPerType = 300;  ///< recorded ops replayed per type
constexpr std::size_t kTopUp = 32;           ///< calibration ops when fewer
constexpr std::size_t kProbes = 40;          ///< unloaded probes per op type
constexpr std::size_t kChainLength = 4;      ///< server default k

std::string fmt(double v, int precision = 1) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// Request and reply payloads of one op, in wire order (codec replay).
using Payloads =
    std::vector<std::pair<net::MessageType, std::vector<std::uint8_t>>>;

/// Stage times of one replayed op, microseconds.
struct Stages {
  double encode = 0, decode = 0, hydrate = 0, backend = 0;
  double build_graph = 0, solve = 0, verify_flow = 0;
  std::size_t bytes = 0;
  double sum() const { return encode + decode + hydrate + backend; }
};

class Replayer {
 public:
  Replayer(Plan& plan, Stack& stack, Tracer& tracer)
      : plan_(plan), tracer_(tracer) {
    ppuf::registry::HydrationCache::Options options;
    options.max_entries = plan.server_options.hydration_cache_entries;
    options.verifier_deadline_seconds =
        plan.server_options.verifier_deadline_seconds;
    options.flow_tolerance_fraction =
        plan.server_options.flow_tolerance_fraction;
    for (auto& reg : stack.registries)
      caches_.push_back(
          std::make_unique<ppuf::registry::HydrationCache>(*reg, options));
    if (plan.shard_names.size() > 1)
      for (const std::string& name : plan.shard_names) ring_.add(name);
  }

  /// Replay one op end to end; `result` supplies the server's reply.
  Stages replay(std::uint64_t op_id, const Op& op, const OpResult& result) {
    Stages st;
    const int root = tracer_.begin(std::string("op.") + op_name(op.type), op_id);
    // Codec: every request and reply frame, encode then decode.
    const std::uint64_t device_id =
        op.device != nullptr ? op.device->id : result.enrolled_id;
    std::vector<std::vector<std::uint8_t>> wire;
    int s = tracer_.begin("net.encode", op_id, root);
    for (const auto& [type, payload] : payloads_of(op, result))
      wire.push_back(net::encode_frame(type, op_id, device_id, 0, payload));
    st.encode = tracer_.end(s);
    for (const auto& w : wire) st.bytes += w.size();
    s = tracer_.begin("net.decode", op_id, root);
    for (std::size_t i = 0; i < wire.size(); ++i) {
      net::Frame f;
      std::size_t consumed = 0;
      net::decode_frame(wire[i].data(), wire[i].size(), &f, &consumed);
      decode_payload(op, i, f);
    }
    st.decode = tracer_.end(s);
    if (op.type == OpType::kEnroll) {  // fabrication is replayed separately
      tracer_.end(root);
      return st;
    }
    // Hydration: one get per frame that resolves the device.
    std::shared_ptr<const ppuf::registry::HydratedDevice> hd;
    auto& cache = cache_for(op.device->id);
    const std::size_t gets = op.type == OpType::kChain ? 2 : 1;
    for (std::size_t g = 0; g < gets; ++g) {
      const auto misses = cache.stats().misses;
      s = tracer_.begin("registry.hydrate", op_id, root);
      if (Status gs = cache.get(op.device->id, &hd); !gs.is_ok())
        throw std::runtime_error("replay hydration: " + gs.to_string());
      const double us = tracer_.end(s);
      st.hydrate += us;
      if (cache.stats().misses > misses) miss_us_.add(us);
    }
    const ppuf::backend::Device& dev = *hd->device;
    switch (op.type) {
      case OpType::kVerify:
        s = tracer_.begin("backend.verify", op_id, root);
        dev.verify(op.verify->challenge, op.verify->report);
        st.backend = tracer_.end(s);
        (op.verify->honest ? verify_honest_us_ : verify_forged_us_)
            [op.device->kind == BackendKind::kMaxFlow].add(st.backend);
        if (const auto* m = dev.sim_model())
          maxflow_stages(op_id, root, *m, op.verify->challenge,
                         &op.verify->report, &st);
        break;
      case OpType::kPredict:
        s = tracer_.begin("backend.predict", op_id, root);
        dev.predict(op.challenge, {});
        st.backend = tracer_.end(s);
        if (const auto* m = dev.sim_model())
          maxflow_stages(op_id, root, *m, op.challenge, nullptr, &st);
        break;
      case OpType::kChain: {
        s = tracer_.begin("backend.issue_challenge", op_id, root);
        ppuf::util::Rng rng(op_id);
        dev.issue_challenge(rng);
        st.backend = tracer_.end(s);
        s = tracer_.begin("backend.verify_chain", op_id, root);
        dev.verify_chain(result.grant.challenge, result.grant.chain_length,
                         result.grant.nonce, result.chain_report,
                         plan_.server_options.spot_checks, rng);
        const double us = tracer_.end(s);
        st.backend += us;
        verify_chain_us_.add(us);
        break;
      }
      case OpType::kEnroll:
        break;
    }
    tracer_.end(root);
    return st;
  }

  Samples miss_us_;
  Samples verify_honest_us_[2], verify_forged_us_[2];  ///< [is_maxflow]
  Samples verify_chain_us_;
  Samples build_graph_us_, solve_us_, verify_flow_us_;
  std::size_t solves_ = 0, star_equal_ = 0;

  double hit_ratio() const {
    std::uint64_t hits = 0, misses = 0;
    for (const auto& c : caches_) {
      hits += c->stats().hits;
      misses += c->stats().misses;
    }
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  }

 private:
  ppuf::registry::HydrationCache& cache_for(std::uint64_t id) {
    if (caches_.size() == 1) return *caches_.front();
    return ring_.route(id) == plan_.shard_names[0] ? *caches_[0] : *caches_[1];
  }

  static Payloads payloads_of(const Op& op, const OpResult& r) {
    Payloads p;
    switch (op.type) {
      case OpType::kVerify:
        p.emplace_back(net::MessageType::kVerifyRequest,
                       net::encode_verify_request(op.verify->challenge,
                                                  op.verify->report));
        p.emplace_back(net::MessageType::kVerifyReply,
                       net::encode_verify_reply(r.verdict));
        break;
      case OpType::kPredict:
        p.emplace_back(net::MessageType::kPredictRequest,
                       net::encode_predict_request(op.challenge));
        p.emplace_back(net::MessageType::kPredictReply,
                       net::encode_predict_reply(r.prediction));
        break;
      case OpType::kChain:
        p.emplace_back(net::MessageType::kChallengeRequest,
                       net::encode_challenge_request());
        p.emplace_back(net::MessageType::kChallengeReply,
                       net::encode_challenge_reply(r.grant));
        p.emplace_back(net::MessageType::kChainedAuthRequest,
                       net::encode_chained_auth_request(
                           net::ChainedAuthRequest{r.grant, r.chain_report}));
        p.emplace_back(net::MessageType::kChainedAuthReply,
                       net::encode_chained_auth_reply(r.chain_verdict));
        break;
      case OpType::kEnroll:
        p.emplace_back(net::MessageType::kEnrollRequest,
                       net::encode_enroll_request(op.enroll));
        p.emplace_back(net::MessageType::kEnrollReply,
                       net::encode_enroll_reply({r.enrolled_id}));
        break;
    }
    return p;
  }

  static void decode_payload(const Op& op, std::size_t i, const net::Frame& f) {
    ppuf::Challenge c;
    ppuf::protocol::ProverReport rep;
    ppuf::protocol::AuthenticationResult ar;
    ppuf::SimulationModel::Prediction pr;
    net::ChallengeGrant g;
    net::ChainedAuthRequest car;
    ppuf::protocol::ChainedVerifyResult cvr;
    switch (op.type) {
      case OpType::kVerify:
        i == 0 ? net::decode_verify_request(f.payload, &c, &rep)
               : net::decode_verify_reply(f.payload, &ar);
        break;
      case OpType::kPredict:
        i == 0 ? net::decode_predict_request(f.payload, &c)
               : net::decode_predict_reply(f.payload, &pr);
        break;
      case OpType::kChain:
        if (i == 0) net::decode_challenge_request(f.payload);
        if (i == 1) net::decode_challenge_reply(f.payload, &g);
        if (i == 2) net::decode_chained_auth_request(f.payload, &car);
        if (i == 3) net::decode_chained_auth_reply(f.payload, &cvr);
        break;
      case OpType::kEnroll: {
        net::EnrollRequestBody req;
        net::EnrollReplyBody reply;
        i == 0 ? net::decode_enroll_request(f.payload, &req)
               : net::decode_enroll_reply(f.payload, &reply);
        break;
      }
    }
  }

  /// The max-flow internals of a predict (two builds + two solves) or a
  /// verify (two builds + two residual checks), replayed as separate calls.
  void maxflow_stages(std::uint64_t op_id, int root,
                      const ppuf::SimulationModel& model,
                      const ppuf::Challenge& c,
                      const ppuf::protocol::ProverReport* report, Stages* st) {
    const auto solver = ppuf::maxflow::make_solver(
        ppuf::maxflow::Algorithm::kPushRelabel);
    for (int net_id = 0; net_id < 2; ++net_id) {
      int s = tracer_.begin("ppuf.build_graph", op_id, root);
      const ppuf::graph::Digraph g = model.build_graph(net_id, c);
      double us = tracer_.end(s);
      st->build_graph += us;
      build_graph_us_.add(us);
      if (report == nullptr) {
        s = tracer_.begin("maxflow.solve", op_id, root);
        const auto flow = solver->solve({&g, c.source, c.sink});
        us = tracer_.end(s);
        st->solve += us;
        solve_us_.add(us);
        double in_sink = 0.0;
        for (const auto& e : g.edges())
          if (e.to == c.sink) in_sink += e.capacity;
        const double star = std::min(g.out_capacity(c.source), in_sink);
        ++solves_;
        if (std::abs(star - flow.value) <= 1e-9 * std::max(star, 1e-300))
          ++star_equal_;
      } else {
        const auto& flow = net_id == 0 ? report->edge_flow_a
                                       : report->edge_flow_b;
        const double tolerance = plan_.server_options.flow_tolerance_fraction *
                                 model.mean_capacity();
        s = tracer_.begin("maxflow.verify_flow", op_id, root);
        ppuf::maxflow::verify_flow(g, c.source, c.sink, flow, tolerance);
        us = tracer_.end(s);
        st->verify_flow += us;
        verify_flow_us_.add(us);
      }
    }
  }

  Plan& plan_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<ppuf::registry::HydrationCache>> caches_;
  ppuf::fleet::HashRing ring_;
};

/// The device probes address for each op type: the first max-flow device
/// for VERIFY/PREDICT; the first PDL device for chains when the fleet
/// serves PDL sessions, else the max-flow device.
Device& probe_device(const Plan& plan, OpType type) {
  if (type == OpType::kChain)
    for (const auto& d : plan.devices)
      if (d->kind == BackendKind::kPdlDelay) return *d;
  return *plan.devices.front();
}

/// A calibration op of `type` for `device` (inputs derived from `seed`).
Op synthetic_op(Device& device, OpType type, std::uint64_t seed) {
  ppuf::util::Rng rng(seed);
  Op op;
  op.type = type;
  op.device = &device;
  const ppuf::Challenge c = device.oracle->issue_challenge(rng);
  if (type == OpType::kPredict) op.challenge = c;
  if (type == OpType::kVerify) {
    VerifyItem item;
    item.challenge = c;
    if (device.kind == BackendKind::kMaxFlow) {
      item.report = ppuf::protocol::prove_by_simulation(
          *device.oracle->sim_model(), c);
      item.expect_accept = device.oracle->verify(c, item.report).accepted;
    } else {
      item = honest_item(device, c);
    }
    if (seed % 4 == 0) item = forged_item(device, item);
    op.verify = std::make_shared<VerifyItem>(std::move(item));
  }
  return op;
}

/// A calibration chain session: a locally issued grant and its proof.
OpResult synthetic_chain(const Device& device, std::uint64_t seed) {
  ppuf::util::Rng rng(seed);
  OpResult r;
  r.grant.challenge = device.oracle->issue_challenge(rng);
  r.grant.chain_length = kChainLength;
  r.grant.nonce = rng();
  r.chain_report = prove_chain(device, r.grant.challenge, kChainLength,
                               r.grant.nonce);
  r.chain_verdict.accepted = true;
  return r;
}

struct ProbeResult {
  Samples direct[3], gateway[3], stage_sum[3];  ///< by OpType
  Samples pipelined_pair;  ///< two PREDICTs in flight on one connection
};

/// Unloaded single-connection probes of each op type, direct to the
/// owning server and, when the stack has a gateway, through it, in
/// alternating order.  Each probe's inputs are replayed in memory right
/// after it, so the stage sum and the round trip see the same cache and
/// host state.
ProbeResult probe(Plan& plan, Stack& stack, Replayer& rp, std::uint64_t seed,
                  std::uint64_t* op_id) {
  ProbeResult pr;
  ppuf::fleet::HashRing ring;
  for (const std::string& name : plan.shard_names) ring.add(name);
  const auto direct_port = [&](std::uint64_t id) {
    if (plan.shard_names.empty()) return stack.servers.front()->port();
    return ring.route(id) == plan.shard_names[0] ? stack.servers[0]->port()
                                                 : stack.servers[1]->port();
  };
  for (int t = 0; t < 3; ++t) {
    const auto type = static_cast<OpType>(t);
    Device& device = probe_device(plan, type);
    net::AuthClient direct("127.0.0.1", direct_port(device.id));
    std::unique_ptr<net::AuthClient> via;
    if (stack.gateway)
      via = std::make_unique<net::AuthClient>("127.0.0.1",
                                              stack.gateway->port());
    for (std::size_t i = 0; i <= kProbes; ++i) {
      const Op op = synthetic_op(device, type,
                                 derive_seed(seed, 100 + t, i) | 1);
      OpResult a, b;
      if (via && i % 2 == 1) execute(*via, op, &b);
      execute(direct, op, &a);
      if (via && i % 2 == 0) execute(*via, op, &b);
      const double sum = rp.replay((*op_id)++, op, a).sum();
      if (i == 0) continue;  // connection and hydration warm-up
      if (a.status.is_ok()) pr.direct[t].add(a.rtt_us);
      if (via && b.status.is_ok()) pr.gateway[t].add(b.rtt_us);
      pr.stage_sum[t].add(sum);
    }
  }
  // Two requests in flight on one connection (AuthClient's pipelined
  // window of 2), direct to the server: the second reply is written while
  // the first may still be unacknowledged, which a connection without
  // TCP_NODELAY holds back until the peer's delayed ACK.
  {
    Device& device = probe_device(plan, OpType::kPredict);
    net::ClientOptions options;
    options.device_id = device.id;
    options.pipeline_depth = 2;
    net::AuthClient client("127.0.0.1", direct_port(device.id), options);
    std::vector<ppuf::SimulationModel::Prediction> out;
    for (std::size_t i = 0; i <= kProbes; ++i) {
      ppuf::util::Rng rng(derive_seed(seed, 110, i));
      const std::vector<ppuf::Challenge> pair = {
          device.oracle->issue_challenge(rng),
          device.oracle->issue_challenge(rng)};
      const auto t0 = Clock::now();
      const Status s = client.predict_pipelined(pair, &out);
      if (i > 0 && s.is_ok()) pr.pipelined_pair.add(micros_since(t0));
    }
  }
  return pr;
}

}  // namespace

void trace_layers(const RunConfig& cfg, Plan& plan, Stack& stack,
                  const std::vector<Executed>& ops,
                  std::map<std::string, Metric>* metrics) {
  auto& obs = ppuf::obs::MetricsRegistry::global();
  auto& m = *metrics;
  // Program-side counters over the traced half.
  const double program_hits =
      static_cast<double>(obs.counter_value("registry.hydration.hits"));
  const double program_misses =
      static_cast<double>(obs.counter_value("registry.hydration.misses"));
  std::uint64_t requests = 0, overloaded = 0;
  for (const auto& s : stack.servers) {
    const auto st = s->stats();
    requests += st.requests + st.overloaded_rejections;
    overloaded += st.overloaded_rejections;
  }
  m["server.overloaded_ratio"] = {
      requests == 0 ? 0.0
                    : static_cast<double>(overloaded) /
                          static_cast<double>(requests),
      "ratio"};
  double unavailable = 0.0;
  if (stack.gateway) {
    const auto gs = stack.gateway->stats();
    unavailable = gs.requests == 0 ? 0.0
                                   : static_cast<double>(gs.unavailable_rejections) /
                                         static_cast<double>(gs.requests);
  }
  m["fleet.unavailable_ratio"] = {unavailable, "ratio"};

  Tracer tracer;
  Replayer rp(plan, stack, tracer);
  std::uint64_t op_id = 1;

  // 1. Unloaded probes while the stack is up.
  const ProbeResult pr = probe(plan, stack, rp, cfg.seed, &op_id);

  // 2. Replay of the traced half's inputs (capped per type), topped up
  //    with calibration ops for layers the workload's traffic skips.
  std::size_t per_type[kOpTypeCount] = {};
  double layer_us[5] = {};  // net, registry, protocol/backend, ppuf, maxflow
  std::size_t replayed = 0, served = 0, maxflow_verifies = 0,
              maxflow_predicts = 0;
  Samples enroll_rtt;
  double bytes = 0.0;
  double loaded_rtt = 0.0, loaded_rest = 0.0;  // recorded round trips
  const auto account = [&](OpType type, const Stages& st, double rtt_us) {
    bytes += static_cast<double>(st.bytes);
    ++replayed;
    if (type == OpType::kEnroll) return;  // its layers: fabricate, commit
    ++served;
    layer_us[0] += st.encode + st.decode;
    layer_us[1] += st.hydrate;
    layer_us[2] += std::max(0.0, st.backend - st.build_graph - st.solve -
                                     st.verify_flow);
    layer_us[3] += st.build_graph;
    layer_us[4] += st.solve + st.verify_flow;
    loaded_rtt += rtt_us;
    loaded_rest += std::max(0.0, rtt_us - st.sum());
  };
  for (const Executed& e : ops) {
    if (!e.result.status.is_ok()) continue;
    if (e.op.type == OpType::kEnroll) enroll_rtt.add(e.result.rtt_us);
    auto& n = per_type[static_cast<int>(e.op.type)];
    if (n >= kReplayPerType) continue;
    ++n;
    if (e.op.device != nullptr &&
        e.op.device->kind == BackendKind::kMaxFlow) {
      maxflow_verifies += e.op.type == OpType::kVerify;
      maxflow_predicts += e.op.type == OpType::kPredict;
    }
    account(e.op.type, rp.replay(op_id++, e.op, e.result), e.result.rtt_us);
  }
  Device& calib = *plan.devices.front();
  for (std::size_t i = maxflow_verifies; i < kTopUp; ++i) {
    const Op op = synthetic_op(calib, OpType::kVerify, derive_seed(cfg.seed, 200, i));
    OpResult r;
    r.verdict = calib.oracle->verify(op.verify->challenge, op.verify->report);
    rp.replay(op_id++, op, r);
  }
  for (std::size_t i = maxflow_predicts; i < kTopUp; ++i) {
    const Op op = synthetic_op(calib, OpType::kPredict, derive_seed(cfg.seed, 201, i));
    OpResult r;
    r.prediction = calib.oracle->predict(op.challenge, {});
    rp.replay(op_id++, op, r);
  }
  for (std::size_t i = per_type[static_cast<int>(OpType::kChain)]; i < 8; ++i) {
    Op op;
    op.type = OpType::kChain;
    op.device = &calib;
    rp.replay(op_id++, op, synthetic_chain(calib, derive_seed(cfg.seed, 202, i)));
  }

  std::cout << "  stage accounting (unloaded, direct to the server):\n";
  const char* residual_name[3] = {"server.residual_verify_us",
                                  "server.residual_predict_us",
                                  "server.residual_chain_us"};
  Samples hop;
  double residual[3] = {};
  for (int t = 0; t < 3; ++t) {
    const Samples& sum = pr.stage_sum[t];
    const double rtt = pr.direct[t].median();
    residual[t] = rtt - sum.median();
    m[residual_name[t]] = {residual[t], "us"};
    std::cout << "    " << op_name(static_cast<OpType>(t)) << " ("
              << ppuf::backend::backend_name(probe_device(plan, static_cast<OpType>(t)).kind)
              << "): replayed stage sum " << fmt(sum.median()) << " us"
              << " + residual " << fmt(residual[t]) << " us = round trip "
              << fmt(rtt) << " us (n=" << pr.direct[t].size() << ")";
    if (stack.gateway) {
      hop.add(pr.gateway[t].median() - rtt);
      std::cout << "; via gateway " << fmt(pr.gateway[t].median()) << " us";
    }
    std::cout << (residual[t] < 0.0 ? "  <-- NEGATIVE RESIDUAL: measurement bug"
                                    : "")
              << "\n";
  }
  // No gateway, no hop: single-server workloads report 0.
  m["fleet.hop_us"] = {stack.gateway ? hop.mean() : 0.0, "us"};
  m["net.pipelined_pair_us"] = {pr.pipelined_pair.median(), "us"};
  std::cout << "    pipelined PREDICT pair on one connection: "
            << pr.pipelined_pair.describe(1.0, "us") << " vs one predict "
            << fmt(pr.direct[static_cast<int>(OpType::kPredict)].median())
            << " us\n";

  // 3. Fabrication and registry write path: one enrollment request of the
  //    run (or a calibration request when the run enrolled nothing).
  ppuf::backend::FabricateRequest fab;
  fab.node_count = kMaxflowNodes;
  fab.grid_size = kMaxflowGrid;
  fab.seed = derive_seed(cfg.seed, 203);
  for (const Executed& e : ops)
    if (e.op.type == OpType::kEnroll) {
      fab.seed = e.op.enroll.fabrication_seed;
      break;
    }
  const auto* maxflow = ppuf::backend::find_backend(BackendKind::kMaxFlow);
  const auto newton0 = obs.counter_value("circuit.dc.newton_iterations");
  const auto rungs0 = obs.counter_value("circuit.dc.recoveries");
  std::vector<std::uint8_t> blob;
  // The registry's fleet-level symbolic cache, as DeviceRegistry::enroll
  // passes it (null until the registry has enrolled something).
  const auto symbolic = stack.registries.front()->enroll_symbolic_cache();
  int s = tracer.begin("backend.fabricate", 0);
  if (Status st = maxflow->fabricate(fab, symbolic, &blob); !st.is_ok())
    throw std::runtime_error("replay fabricate: " + st.to_string());
  m["backend.fabricate_ms"] = {tracer.end(s) / 1e3, "ms"};
  m["circuit.newton_iters_per_enroll"] = {
      static_cast<double>(obs.counter_value("circuit.dc.newton_iterations") -
                          newton0),
      "count"};
  m["circuit.recovery_rungs_per_enroll"] = {
      static_cast<double>(obs.counter_value("circuit.dc.recoveries") - rungs0),
      "count"};
  {
    ppuf::PpufParams params;
    params.node_count = kMaxflowNodes;
    params.grid_size = kMaxflowGrid;
    ppuf::MaxFlowPpuf chip(params, fab.seed);
    s = tracer.begin("ppuf.model_extract", 0);
    const ppuf::SimulationModel model(chip);
    m["ppuf.model_extract_ms"] = {tracer.end(s) / 1e3, "ms"};
  }
  Samples commit_ms;
  {
    const std::string dir = (fs::path(cfg.work_dir) / "commit-replay").string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    ppuf::registry::DeviceRegistry scratch;
    ppuf::registry::DeviceRegistry::Options options;
    options.auto_compact_records = 0;
    if (Status st = scratch.open(dir, options); !st.is_ok())
      throw std::runtime_error("replay registry: " + st.to_string());
    for (std::uint64_t id = 1; id <= 4; ++id) {
      ppuf::registry::WalRecord rec;
      rec.entry.id = id;
      rec.entry.nodes = kMaxflowNodes;
      rec.entry.grid = kMaxflowGrid;
      rec.entry.label = "commit";
      rec.entry.model_bytes = blob;
      const auto bytes_rec = ppuf::registry::frame_record(rec);
      std::size_t consumed = 0;
      s = tracer.begin("registry.enroll_commit", id);
      scratch.apply_wal_bytes(bytes_rec.data(), bytes_rec.size(), &consumed);
      commit_ms.add(tracer.end(s) / 1e3);
    }
    fs::remove_all(dir, ec);
  }
  m["registry.enroll_commit_ms"] = {commit_ms.median(), "ms"};

  Samples mat_mf, mat_pdl;
  std::vector<std::uint8_t> pdl_blob;
  for (const auto& d : plan.devices)
    if (d->kind == BackendKind::kPdlDelay) pdl_blob = *d->blob;
  if (pdl_blob.empty()) {
    Device pdl;
    make_pdl_device(1, derive_seed(cfg.seed, 204), &pdl);
    pdl_blob = *pdl.blob;
  }
  for (int i = 0; i < 16; ++i) {
    std::unique_ptr<ppuf::backend::Device> out;
    s = tracer.begin("backend.materialize_maxflow", 0);
    maxflow->materialize(*plan.devices.front()->blob, {}, &out);
    mat_mf.add(tracer.end(s));
    s = tracer.begin("backend.materialize_pdl", 0);
    ppuf::backend::find_backend(BackendKind::kPdlDelay)
        ->materialize(pdl_blob, {}, &out);
    mat_pdl.add(tracer.end(s));
  }
  m["backend.materialize_maxflow_us"] = {mat_mf.median(), "us"};
  m["backend.materialize_pdl_us"] = {mat_pdl.median(), "us"};

  s = tracer.begin("registry.compact", 0);
  if (Status st = stack.registries.front()->compact(); !st.is_ok())
    std::cout << "  compaction failed: " << st.to_string() << "\n";
  m["registry.compact_ms"] = {tracer.end(s) / 1e3, "ms"};

  // 4. Per-layer metrics from the replay.
  m["maxflow.solve_us"] = {rp.solve_us_.mean(), "us"};
  m["maxflow.verify_flow_us"] = {rp.verify_flow_us_.mean(), "us"};
  m["maxflow.star_cut_share"] = {
      rp.solves_ == 0 ? 0.0
                      : static_cast<double>(rp.star_equal_) /
                            static_cast<double>(rp.solves_),
      "ratio"};
  m["ppuf.build_graph_us"] = {rp.build_graph_us_.mean(), "us"};
  m["protocol.verify_honest_us"] = {rp.verify_honest_us_[1].mean(), "us"};
  m["protocol.verify_forged_us"] = {rp.verify_forged_us_[1].mean(), "us"};
  m["protocol.verify_chain_us"] = {rp.verify_chain_us_.mean(), "us"};
  m["registry.hydrate_miss_us"] = {rp.miss_us_.mean(), "us"};
  m["registry.hydration_hit_ratio"] = {
      program_hits + program_misses > 0.0
          ? program_hits / (program_hits + program_misses)
          : rp.hit_ratio(),
      "ratio"};
  const double n = static_cast<double>(std::max<std::size_t>(1, replayed));
  std::size_t encodes = 0, decodes = 0;
  const double enc = tracer.total_us("net.encode", &encodes);
  const double dec = tracer.total_us("net.decode", &decodes);
  m["net.encode_us"] = {enc / static_cast<double>(std::max<std::size_t>(1, encodes)), "us"};
  m["net.decode_us"] = {dec / static_cast<double>(std::max<std::size_t>(1, decodes)), "us"};
  m["net.bytes_per_op"] = {bytes / n, "bytes"};

  // 5. Where the workload's time goes (replayed recorded ops; serving
  //    residual and gateway hop from the probes, weighted by the mix).
  double serve_us = 0.0, hop_us = 0.0;
  for (int t = 0; t < 3; ++t) {
    const double count = static_cast<double>(per_type[t]);
    serve_us += count * std::max(0.0, residual[t]);
    if (stack.gateway) hop_us += count * std::max(0.0, hop.mean());
  }
  const double total = layer_us[0] + layer_us[1] + layer_us[2] + layer_us[3] +
                       layer_us[4] + serve_us + hop_us;
  if (served > 0 && total > 0.0) {
    const auto pct = [&](double v) { return fmt(100.0 * v / total) + "%"; };
    std::cout << "  replayed stage time by layer over " << served
              << " recorded ops: net " << pct(layer_us[0]) << ", registry "
              << pct(layer_us[1]) << ", protocol/backend " << pct(layer_us[2])
              << ", ppuf " << pct(layer_us[3]) << ", maxflow "
              << pct(layer_us[4]) << ", server residual " << pct(serve_us)
              << ", fleet hop " << pct(hop_us) << "\n";
    std::cout << "    maxflow+ppuf+protocol "
              << pct(layer_us[2] + layer_us[3] + layer_us[4])
              << "; server residual+hop+hydration "
              << pct(serve_us + hop_us + layer_us[1]) << "\n";
    // Under load the rest of each recorded round trip is loop, syscalls,
    // gateway hop and waiting (queueing behind other requests' work).
    const auto of_rtt = [&](double v) {
      return fmt(100.0 * v / std::max(loaded_rtt, 1e-9)) + "%";
    };
    std::cout << "  loaded round trips of those ops: replayed stages "
              << of_rtt(loaded_rtt - loaded_rest) << " (maxflow+ppuf+protocol "
              << of_rtt(layer_us[2] + layer_us[3] + layer_us[4])
              << ", hydration " << of_rtt(layer_us[1]) << ", codec "
              << of_rtt(layer_us[0]) << "), rest " << of_rtt(loaded_rest)
              << "\n";
  }
  if (!enroll_rtt.empty())
    std::cout << "  fabricate " << fmt(m["backend.fabricate_ms"].value)
              << " ms of enroll p50 " << fmt(enroll_rtt.median() / 1e3)
              << " ms ("
              << fmt(100.0 * m["backend.fabricate_ms"].value * 1e3 /
                     enroll_rtt.median())
              << "%, n=" << enroll_rtt.size() << ")\n";

  std::error_code ec;
  fs::create_directories(cfg.trace_dir, ec);
  const std::string path = (fs::path(cfg.trace_dir) /
                            (cfg.workload + "-" + std::to_string(cfg.seed) +
                             ".spans.jsonl"))
                               .string();
  if (tracer.write(path))
    std::cout << "  spans: " << tracer.spans().size() << " written to "
              << path << "\n";
}

}  // namespace perfbench
