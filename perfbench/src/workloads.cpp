// The three workloads and the measured run.
//
//   auth_warm   one registry-mode server (ppuf_tool serve --registry
//               defaults) over four n=64 max-flow devices, all hydrated;
//               closed loop on 4 connections, 70% VERIFY from a pool of
//               chip-proved honest reports and bit-flipped forgeries, 30%
//               PREDICT on fresh challenges.  Solve-bound.
//   fleet_mixed a gateway over two registry shards serving 24 max-flow ids
//               (three fabricated blobs reused) and 24 PDL ids, three
//               times each shard's hydration capacity, Zipf popularity;
//               open loop at a fixed rate on 4 connections: PDL chained
//               sessions, VERIFY and a little PREDICT, a third of them on
//               max-flow devices.  Hop-, loop-, codec- and hydration-bound.
//   enroll_n64  one registry-mode server whose registry holds a 61-record
//               WAL tail, so the third enrollment of the run compacts;
//               closed loop on 1 connection sending n=64 ENROLL frames
//               with fresh seeds.  Fabrication- and WAL-bound.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <unordered_set>

#include "fleet/ring.hpp"
#include "obs/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ppuf::util::Status;

namespace {

// Stream purposes for derive_seed.
enum : std::uint64_t {
  kSeedServer = 1,
  kSeedPool = 2,
  kSeedStream = 3,
  kSeedSchedule = 4,
  kSeedEnroll = 5,
};

// Fixed fabrication seeds: the fleet is the same on every run, only the
// traffic derives from --seed (so blobs can be cached across runs).
constexpr std::uint64_t kAuthFabSeed = 0xa0700000;
constexpr std::uint64_t kFleetFabSeed = 0xf1ee7000;
constexpr std::uint64_t kFleetPdlSeed = 0xf1ee7d00;
constexpr std::uint64_t kEnrollFabSeed = 0xe0701000;

constexpr int kSetupRepeats = 5;

/// Largest share of honest VERIFY requests the verifier may reject before
/// the run is wrong.  Chip-proved n=64 reports are rejected 0-4% of the
/// time (the chip's flows deviate from the public model beyond the
/// verifier's tolerance); a verifier that rejects honest holders more
/// often than this is a defect, not model fidelity.
constexpr double kHonestRejectLimit = 0.10;

// auth_warm
constexpr std::size_t kAuthDevices = 4;
constexpr std::size_t kAuthHonestPerDevice = 24;
constexpr std::size_t kAuthForgedPerDevice = 8;
constexpr double kAuthVerifyShare = 0.7;
constexpr double kAuthSloUs = 8e3;

// fleet_mixed
constexpr std::size_t kFleetBlobs = 3;
constexpr std::size_t kFleetMaxflowIds = 24;
constexpr std::size_t kFleetPdlIds = 24;
constexpr std::size_t kFleetHonestPerBlob = 16;
constexpr std::size_t kFleetForgedPerBlob = 6;
constexpr double kFleetRate = 250.0;  ///< ops per second
constexpr double kFleetChainShare = 0.40;
constexpr double kFleetVerifyShare = 0.50;  ///< the rest is PREDICT
constexpr double kFleetForgedShare = 0.25;
constexpr double kFleetMaxflowShare = 1.0 / 3;  ///< of VERIFY and PREDICT
constexpr double kFleetZipfS = 1.0;
constexpr double kFleetSloUs = 5e3;

// enroll_n64
constexpr std::size_t kEnrollSnapshotIds = 32;
constexpr std::size_t kEnrollWalTail = 61;  ///< 64 - 3: compaction at #3
constexpr double kEnrollSloUs = 4e6;

ppuf::CrossbarLayout maxflow_layout() {
  return ppuf::CrossbarLayout(kMaxflowNodes, kMaxflowGrid);
}

void die(const std::string& what, const Status& s) {
  throw std::runtime_error(what + ": " + s.to_string());
}

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(ppuf::util::Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string registry_dir(const RunConfig& cfg, std::size_t shard) {
  return (fs::path(cfg.work_dir) / (cfg.workload + "-shard" +
                                    std::to_string(shard)))
      .string();
}

/// A device's share of a VERIFY pool: `forged` bit-flipped forgeries of
/// the first honest reports, then `honest` chip-proved reports, numbered
/// from `first_id`.
std::vector<std::shared_ptr<const VerifyItem>> make_pool(
    Device& holder, std::uint64_t seed, std::size_t honest,
    std::size_t forged, std::size_t first_id) {
  ppuf::util::Rng rng(seed);
  std::vector<VerifyItem> proved;
  for (std::size_t k = 0; k < honest; ++k)
    proved.push_back(honest_item(holder, holder.oracle->issue_challenge(rng)));
  std::vector<VerifyItem> items;
  for (std::size_t k = 0; k < forged; ++k)
    items.push_back(forged_item(holder, proved[k]));
  for (VerifyItem& item : proved) items.push_back(std::move(item));
  std::vector<std::shared_ptr<const VerifyItem>> out;
  for (VerifyItem& item : items) {
    item.pool_id = static_cast<int>(first_id + out.size());
    out.push_back(std::make_shared<const VerifyItem>(std::move(item)));
  }
  return out;
}

void finish_fingerprint(Plan& plan) {
  Fingerprint fp;
  for (const auto& item : plan.verify_pool)
    fp.vec(ppuf::net::encode_verify_request(item->challenge, item->report));
  if (plan.open_loop) {
    for (const Op& op : plan.schedule) op.fingerprint(fp);
  } else {
    // A closed loop sends as many ops as the program keeps up with; the
    // fingerprint covers a fixed prefix of every connection's stream.
    for (unsigned c = 0; c < plan.connections; ++c)
      for (std::size_t i = 0; i < 512; ++i) plan.stream(c, i).fingerprint(fp);
  }
  plan.fingerprint = fp.hex();
}

Plan plan_auth_warm(const RunConfig& cfg, const BlobCache& cache) {
  Plan plan;
  std::vector<ppuf::registry::DeviceEntry> entries;
  for (std::size_t i = 0; i < kAuthDevices; ++i) {
    auto blob = std::make_shared<std::vector<std::uint8_t>>();
    if (Status s = cache.maxflow_blob(kAuthFabSeed + i, blob.get()); !s.is_ok())
      die("fabricate", s);
    auto d = std::make_unique<Device>();
    if (Status s = make_device(i + 1, BackendKind::kMaxFlow, kAuthFabSeed + i,
                               std::move(blob), d.get());
        !s.is_ok())
      die("materialize", s);
    entries.push_back(registry_entry(*d, "auth_warm"));
    plan.warm.push_back(d.get());
    plan.devices.push_back(std::move(d));
  }
  plan.registry_dirs.push_back(registry_dir(cfg, 0));
  if (Status s = write_registry(plan.registry_dirs[0], entries, {}); !s.is_ok())
    die("registry fixture", s);

  for (const auto& d : plan.devices) {
    const auto items = make_pool(*d, derive_seed(cfg.seed, kSeedPool, d->id),
                                 kAuthHonestPerDevice, kAuthForgedPerDevice,
                                 plan.verify_pool.size());
    plan.verify_pool.insert(plan.verify_pool.end(), items.begin(), items.end());
  }

  plan.server_options.challenge_seed = derive_seed(cfg.seed, kSeedServer);
  plan.connections = 4;
  plan.slo_us = kAuthSloUs;
  plan.max_ops_per_s = 20000.0;
  // The stream outlives this function's Plan object (it is moved), so it
  // captures the pool and the (heap-stable) devices, not the plan.
  std::vector<const Device*> devices;
  for (const auto& d : plan.devices) devices.push_back(d.get());
  plan.stream = [seed = cfg.seed, pool = plan.verify_pool, devices](
                    unsigned conn, std::size_t index) {
    ppuf::util::Rng rng(derive_seed(seed, kSeedStream + 16 * conn, index));
    Op op;
    if (rng.uniform() < kAuthVerifyShare) {
      op.type = OpType::kVerify;
      op.verify = pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
      // Pool items are per device; address the device that owns it.
      op.device = devices[static_cast<std::size_t>(op.verify->pool_id) /
                          (kAuthHonestPerDevice + kAuthForgedPerDevice)];
    } else {
      op.type = OpType::kPredict;
      op.device = devices[static_cast<std::size_t>(
          rng.uniform_int(0, kAuthDevices - 1))];
      op.challenge = ppuf::random_challenge(maxflow_layout(), rng);
    }
    return op;
  };
  return plan;
}

Plan plan_fleet_mixed(const RunConfig& cfg, const BlobCache& cache) {
  Plan plan;
  plan.shard_names = {"shard-0", "shard-1"};
  ppuf::fleet::HashRing ring;
  for (const std::string& name : plan.shard_names) ring.add(name);

  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> blobs;
  for (std::size_t b = 0; b < kFleetBlobs; ++b) {
    auto blob = std::make_shared<std::vector<std::uint8_t>>();
    if (Status s = cache.maxflow_blob(kFleetFabSeed + b, blob.get()); !s.is_ok())
      die("fabricate", s);
    blobs.push_back(std::move(blob));
  }
  std::vector<std::vector<ppuf::registry::DeviceEntry>> shard_entries(2);
  const auto place = [&](std::unique_ptr<Device> d) {
    const std::string shard = ring.route(d->id);
    const std::size_t s = shard == plan.shard_names[0] ? 0 : 1;
    shard_entries[s].push_back(registry_entry(*d, "fleet"));
    plan.devices.push_back(std::move(d));
  };
  for (std::size_t i = 0; i < kFleetMaxflowIds; ++i) {
    auto d = std::make_unique<Device>();
    const std::size_t b = i % kFleetBlobs;
    if (Status s = make_device(i + 1, BackendKind::kMaxFlow, kFleetFabSeed + b,
                               blobs[b], d.get());
        !s.is_ok())
      die("materialize", s);
    place(std::move(d));
  }
  for (std::size_t i = 0; i < kFleetPdlIds; ++i) {
    auto d = std::make_unique<Device>();
    if (Status s = make_pdl_device(kFleetMaxflowIds + i + 1, kFleetPdlSeed + i,
                                   d.get());
        !s.is_ok())
      die("fabricate pdl", s);
    place(std::move(d));
  }
  for (std::size_t s = 0; s < shard_entries.size(); ++s) {
    plan.registry_dirs.push_back(registry_dir(cfg, s));
    if (Status st = write_registry(plan.registry_dirs[s], shard_entries[s], {});
        !st.is_ok())
      die("registry fixture", st);
  }

  // VERIFY pool per max-flow blob: an honest report of blob b is valid for
  // every id that reuses b.
  std::vector<std::vector<std::shared_ptr<const VerifyItem>>> blob_pool(
      kFleetBlobs);
  for (std::size_t b = 0; b < kFleetBlobs; ++b) {
    // ids 1..3 carry blobs 0..2
    blob_pool[b] = make_pool(*plan.devices[b],
                             derive_seed(cfg.seed, kSeedPool, b),
                             kFleetHonestPerBlob, kFleetForgedPerBlob,
                             plan.verify_pool.size());
    plan.verify_pool.insert(plan.verify_pool.end(), blob_pool[b].begin(),
                            blob_pool[b].end());
  }

  // Fixed popularity ranking within each backend (by id), so every seed
  // sees the same hot set; the seed drives the sampled sequence.
  std::vector<Device*> maxflow_ranked, pdl_ranked;
  for (const auto& d : plan.devices)
    (d->kind == BackendKind::kMaxFlow ? maxflow_ranked : pdl_ranked)
        .push_back(d.get());
  const Zipf zipf_maxflow(maxflow_ranked.size(), kFleetZipfS);
  const Zipf zipf_pdl(pdl_ranked.size(), kFleetZipfS);
  // VERIFY and PREDICT pick the backend first, then a device by Zipf.
  const auto pick = [&](ppuf::util::Rng& r) {
    return r.uniform() < kFleetMaxflowShare ? maxflow_ranked[zipf_maxflow(r)]
                                            : pdl_ranked[zipf_pdl(r)];
  };

  ppuf::util::Rng rng(derive_seed(cfg.seed, kSeedSchedule));
  const auto count = static_cast<std::size_t>(cfg.seconds * kFleetRate);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    op.due_s = static_cast<double>(i) / kFleetRate;
    const double u = rng.uniform();
    if (u < kFleetChainShare) {
      op.type = OpType::kChain;
      op.device = pdl_ranked[zipf_pdl(rng)];
    } else if (u < kFleetChainShare + kFleetVerifyShare) {
      op.type = OpType::kVerify;
      Device& d = *pick(rng);
      op.device = &d;
      if (d.kind == BackendKind::kMaxFlow) {
        const auto& pool = blob_pool[(d.id - 1) % kFleetBlobs];
        op.verify = pool[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
      } else {
        VerifyItem item = honest_item(d, d.oracle->issue_challenge(rng));
        if (rng.uniform() < kFleetForgedShare) item = forged_item(d, item);
        op.verify = std::make_shared<VerifyItem>(std::move(item));
      }
    } else {
      op.type = OpType::kPredict;
      op.device = pick(rng);
      op.challenge = op.device->kind == BackendKind::kMaxFlow
                         ? ppuf::random_challenge(maxflow_layout(), rng)
                         : op.device->oracle->issue_challenge(rng);
    }
    plan.schedule.push_back(std::move(op));
  }
  plan.server_options.challenge_seed = derive_seed(cfg.seed, kSeedServer);
  plan.open_loop = true;
  plan.connections = 4;
  plan.slo_us = kFleetSloUs;
  return plan;
}

Plan plan_enroll_n64(const RunConfig& cfg, const BlobCache& cache) {
  Plan plan;
  auto blob = std::make_shared<std::vector<std::uint8_t>>();
  if (Status s = cache.maxflow_blob(kEnrollFabSeed, blob.get()); !s.is_ok())
    die("fabricate", s);
  auto base = std::make_unique<Device>();
  if (Status s = make_device(1, BackendKind::kMaxFlow, kEnrollFabSeed, blob,
                             base.get());
      !s.is_ok())
    die("materialize", s);
  std::vector<ppuf::registry::DeviceEntry> snapshot, tail;
  for (std::size_t i = 0; i < kEnrollSnapshotIds + kEnrollWalTail; ++i) {
    ppuf::registry::DeviceEntry e = registry_entry(*base, "enroll_n64");
    e.id = i + 1;
    (i < kEnrollSnapshotIds ? snapshot : tail).push_back(std::move(e));
  }
  plan.devices.push_back(std::move(base));
  plan.registry_dirs.push_back(registry_dir(cfg, 0));
  if (Status s = write_registry(plan.registry_dirs[0], snapshot, tail);
      !s.is_ok())
    die("registry fixture", s);

  plan.server_options.challenge_seed = derive_seed(cfg.seed, kSeedServer);
  plan.connections = 1;
  plan.slo_us = kEnrollSloUs;
  plan.max_ops_per_s = 100.0;
  const std::uint64_t seed = cfg.seed;
  plan.stream = [seed](unsigned, std::size_t index) {
    Op op;
    op.type = OpType::kEnroll;
    op.enroll.node_count = kMaxflowNodes;
    op.enroll.grid_size = kMaxflowGrid;
    op.enroll.fabrication_seed = derive_seed(seed, kSeedEnroll, index);
    op.enroll.label = "enroll_n64";
    op.enroll.backend = static_cast<std::uint8_t>(BackendKind::kMaxFlow);
    return op;
  };
  return plan;
}

}  // namespace

Plan build_plan(const RunConfig& cfg) {
  const BlobCache cache(cfg.cache_dir);
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  Plan plan;
  if (cfg.workload == "auth_warm")
    plan = plan_auth_warm(cfg, cache);
  else if (cfg.workload == "fleet_mixed")
    plan = plan_fleet_mixed(cfg, cache);
  else if (cfg.workload == "enroll_n64")
    plan = plan_enroll_n64(cfg, cache);
  else
    throw std::runtime_error("unknown workload " + cfg.workload);
  finish_fingerprint(plan);
  return plan;
}

void Stack::stop() {
  if (gateway) gateway->stop();
  for (auto& s : servers) s->stop();
}

Status start_stack(const Plan& plan, Stack* stack, double* setup_s) {
  const auto t0 = Clock::now();
  for (const std::string& dir : plan.registry_dirs) {
    auto reg = std::make_unique<ppuf::registry::DeviceRegistry>();
    const auto o0 = Clock::now();
    if (Status s = reg->open(dir); !s.is_ok()) return s;
    stack->open_s += seconds_since(o0);
    stack->registries.push_back(std::move(reg));
  }
  for (auto& reg : stack->registries) {
    auto srv =
        std::make_unique<ppuf::server::AuthServer>(*reg, plan.server_options);
    if (Status s = srv->start(); !s.is_ok()) return s;
    stack->servers.push_back(std::move(srv));
  }
  stack->front_port = stack->servers.front()->port();
  if (!plan.shard_names.empty()) {
    stack->gateway = std::make_unique<ppuf::fleet::Gateway>();
    for (std::size_t i = 0; i < plan.shard_names.size(); ++i)
      if (Status s = stack->gateway->add_shard(plan.shard_names[i], "127.0.0.1",
                                               stack->servers[i]->port());
          !s.is_ok())
        return s;
    if (Status s = stack->gateway->start(); !s.is_ok()) return s;
    stack->front_port = stack->gateway->port();
  }
  ppuf::net::AuthClient client("127.0.0.1", stack->front_port);
  if (Status s = client.ping(); !s.is_ok()) return s;
  *setup_s = seconds_since(t0);
  return Status::ok();
}

namespace {

/// Correctness of one executed op: "" when right, else a failure code.
/// VERIFY verdicts are checked against the report's label: a forgery
/// accepted by the server or by the reference verifier is a failure.  An
/// honest report rejected by both is the verifier's false rejection
/// (chip-vs-model flow deviation); run() counts those and fails the run
/// when their share exceeds kHonestRejectLimit.  The served verdict must
/// also equal the reference verdict of the same bytes.
std::string check_op(const Executed& e, std::string* detail) {
  const OpResult& r = e.result;
  if (!r.status.is_ok()) {
    *detail = r.status.to_string();
    return std::string("wire:") +
           ppuf::util::status_code_name(r.status.code());
  }
  switch (e.op.type) {
    case OpType::kVerify: {
      const VerifyItem& v = *e.op.verify;
      const std::string verdicts = "served " +
                                   std::to_string(r.verdict.accepted) +
                                   " reference " +
                                   std::to_string(v.expect_accept) + ": " +
                                   r.verdict.detail;
      if (!v.honest && (r.verdict.accepted || v.expect_accept)) {
        *detail = verdicts;
        return "verify:FORGED_ACCEPTED";
      }
      if (r.verdict.accepted != v.expect_accept) {
        *detail = verdicts;
        return "verify:HONEST_VERDICT_MISMATCH";
      }
      return "";
    }
    case OpType::kPredict: {
      const auto want = e.op.device->oracle->predict(e.op.challenge, {});
      if (!want.ok()) {
        *detail = want.status.to_string();
        return "predict:ORACLE_FAILED";
      }
      if (want.bit != r.prediction.bit) {
        *detail = "bit differs from the oracle";
        return "predict:BIT_MISMATCH";
      }
      if (std::memcmp(&want.flow_a, &r.prediction.flow_a, sizeof(double)) != 0 ||
          std::memcmp(&want.flow_b, &r.prediction.flow_b, sizeof(double)) != 0) {
        std::ostringstream os;
        os << std::setprecision(17) << "flows " << r.prediction.flow_a << "/"
           << r.prediction.flow_b << " vs oracle " << want.flow_a << "/"
           << want.flow_b;
        *detail = os.str();
        return "predict:FLOW_MISMATCH";
      }
      return "";
    }
    case OpType::kChain:
      if (!r.chain_verdict.accepted) {
        *detail = r.chain_verdict.detail;
        return "chain:HONEST_REJECTED";
      }
      return "";
    case OpType::kEnroll:
      return "";  // checked after the registry reopen
  }
  return "";
}

/// Every acked ENROLL must survive a reopen with a byte-identical blob.
/// Returns the positions in `ops` of enrollments that did not.
std::vector<std::size_t> check_enrollments(Stack& stack, const std::string& dir,
                                           const std::vector<Executed>& ops,
                                           const std::vector<std::size_t>& enrolls,
                                           Failures& failures) {
  ppuf::registry::DeviceRegistry& before = *stack.registries.front();
  std::vector<std::vector<std::uint8_t>> served(enrolls.size());
  for (std::size_t i = 0; i < enrolls.size(); ++i) {
    BackendKind kind;
    if (!before.load_entry(ops[enrolls[i]].result.enrolled_id, &kind, &served[i])
             .is_ok())
      served[i].clear();
  }
  stack.registries.front().reset();
  auto after = std::make_unique<ppuf::registry::DeviceRegistry>();
  if (Status s = after->open(dir); !s.is_ok()) {
    failures.add("enroll:REOPEN_FAILED", s.to_string());
    return enrolls;
  }
  std::vector<std::size_t> wrong;
  for (std::size_t i = 0; i < enrolls.size(); ++i) {
    BackendKind kind;
    std::vector<std::uint8_t> blob;
    const std::uint64_t id = ops[enrolls[i]].result.enrolled_id;
    if (Status s = after->load_entry(id, &kind, &blob); !s.is_ok()) {
      failures.add("enroll:LOST_AFTER_REOPEN",
                   "device " + std::to_string(id) + ": " + s.to_string());
      wrong.push_back(enrolls[i]);
    } else if (served[i].empty() || blob != served[i]) {
      failures.add("enroll:BLOB_CHANGED_AFTER_REOPEN",
                   "device " + std::to_string(id));
      wrong.push_back(enrolls[i]);
    }
  }
  stack.registries.front() = std::move(after);
  return wrong;
}

std::string fmt(double v, int precision = 1) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace

int run(const RunConfig& cfg) {
  const HostInfo host = calibrate_host();
  // The whole stack and the generator then share one CPU: the hosts this
  // was built on deliver about one core to four vCPUs, and a thread
  // handoff that must wake an idle vCPU waits on the hypervisor, whose
  // latency swings with the host's other load.  See README.md.
  const int cpu = pin_to_current_cpu();
  std::cout << "host: nproc=" << host.nproc
            << " burn_1t=" << fmt(host.burn_1t_mops) << " Mop/s"
            << " effective_parallelism=" << fmt(host.parallelism, 2)
            << "; run pinned to cpu " << cpu << "\n";

  const auto f0 = Clock::now();
  Plan plan = build_plan(cfg);
  std::cout << "workload " << cfg.workload << " seed " << cfg.seed << ": "
            << plan.devices.size() << " devices, "
            << plan.registry_dirs.size() << " shard(s), "
            << (plan.open_loop ? "open loop " + fmt(plan.schedule.size() /
                                                        std::max(cfg.seconds, 1e-9)) +
                                     " ops/s"
                               : "closed loop")
            << " on " << plan.connections << " connection(s), "
            << plan.server_options.threads << " worker(s) per server; "
            << "fixtures " << fmt(seconds_since(f0), 2) << " s\n";
  std::cout << "inputs fingerprint: " << plan.fingerprint << "\n";

  // Untraced: the whole run.  Traced: an untraced half, then the same
  // inputs again with the program's obs registry on; the second half
  // feeds the replay.
  const double part_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<Op> part;
  for (const Op& op : plan.schedule)
    if (op.due_s < part_s) part.push_back(op);
  LoadResult untraced, traced;
  traced.keep_chains = true;  // the replay needs each session's grant
  for (LoadResult* load : {&untraced, &traced}) {
    if (plan.open_loop)
      load->prepare(1, part.size());
    else
      load->prepare(plan.connections,
                    static_cast<std::size_t>(part_s * plan.max_ops_per_s /
                                             plan.connections) + 64);
  }
  const auto load_for = [&](std::uint16_t port, LoadResult* load) {
    if (plan.open_loop)
      run_open_loop(port, plan.connections, part, 10.0, load);
    else
      run_closed_loop(port, plan.connections, part_s, plan.stream, load);
  };

  // Memory baseline: everything above is fixture or generator storage.
  const double baseline_mb = reset_peak_rss() ? rss_mb() : 0.0;

  // setup_s: median of several full set-ups; the last one serves the run.
  Samples setup;
  std::unique_ptr<Stack> stack;
  double open_s = 0.0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack = std::make_unique<Stack>();
    double t = 0.0;
    if (Status s = start_stack(plan, stack.get(), &t); !s.is_ok())
      die("setup", s);
    setup.add(t);
    open_s = stack->open_s;
    if (k + 1 < kSetupRepeats) stack.reset();
  }
  {
    ppuf::net::AuthClient client("127.0.0.1", stack->front_port);
    ppuf::util::Rng rng(7);
    for (const Device* d : plan.warm) {
      client.set_device_id(d->id);
      ppuf::SimulationModel::Prediction p;
      if (Status s = client.predict(d->oracle->issue_challenge(rng), &p);
          !s.is_ok())
        die("warm-up", s);
    }
  }

  // The measured half: the process's CPU time (less the sampler's) and the
  // host speed are taken over exactly this load.
  HostSpeed speed;
  const double cpu0 = process_cpu_s(), steal0 = cpu_steal_s(cpu);
  speed.start();
  load_for(stack->front_port, &untraced);
  speed.stop();
  const double load_cpu_s = process_cpu_s() - cpu0 - speed.cpu_s();
  const double steal_s = cpu_steal_s(cpu) - steal0;
  const double peak_mb = peak_rss_mb() - baseline_mb;
  const OpLookup lookup = [&](std::uint32_t conn, std::uint32_t index) {
    return plan.open_loop ? part[index] : plan.stream(conn, index);
  };
  std::map<std::string, Metric> metrics;
  std::vector<Executed> traced_ops;
  if (cfg.trace) {
    auto& obs = ppuf::obs::MetricsRegistry::global();
    obs.set_enabled(true);
    ppuf::obs::register_standard_metrics(obs);
    load_for(stack->front_port, &traced);
    traced_ops = expand(traced, lookup);
    trace_layers(cfg, plan, *stack, traced_ops, &metrics);
  }
  for (auto& s : stack->servers) s->request_drain();
  if (stack->gateway) stack->gateway->stop();
  for (auto& s : stack->servers) s->wait();
  std::vector<Executed> untraced_ops = expand(untraced, lookup);

  // Checks, outside the clock.
  // `correct` turns false on any wrong answer, on any refusal a closed
  // loop does not expect, and on a part of the run with no successful op.
  // An open loop may see load shedding (OVERLOADED, SHARD_UNAVAILABLE:
  // both kUnavailable); it is counted in `failed` and as an SLO miss.
  Failures failures;
  bool correct = true;
  std::uint64_t attempted = 0, honest_rejects = 0, honest_sent = 0;
  const auto check_all = [&](std::vector<Executed>& ops, std::vector<bool>* ok) {
    ok->assign(ops.size(), false);
    std::vector<std::size_t> enrolls, rejected;
    std::size_t honest = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Executed& e = ops[i];
      ++attempted;
      std::string detail;
      const std::string code = check_op(e, &detail);
      if (!code.empty()) {
        failures.add(code, detail);
        if (!plan.open_loop ||
            e.result.status.code() != ppuf::util::StatusCode::kUnavailable)
          correct = false;
        continue;
      }
      (*ok)[i] = true;
      if (e.op.type == OpType::kVerify && e.op.verify->honest) {
        ++honest;
        if (!e.result.verdict.accepted) rejected.push_back(i);
      }
      if (e.op.type == OpType::kEnroll) enrolls.push_back(i);
    }
    honest_sent += honest;
    honest_rejects += rejected.size();
    if (static_cast<double>(rejected.size()) >
        kHonestRejectLimit * static_cast<double>(honest)) {
      correct = false;
      for (std::size_t i : rejected) {
        failures.add("verify:HONEST_REJECTED", ops[i].result.verdict.detail);
        (*ok)[i] = false;
      }
    }
    if (!enrolls.empty()) {
      for (std::size_t i : check_enrollments(*stack, plan.registry_dirs.front(),
                                             ops, enrolls, failures)) {
        correct = false;
        (*ok)[i] = false;
      }
    }
    if (std::find(ok->begin(), ok->end(), true) == ok->end()) {
      std::cout << "  no operation of this part succeeded\n";
      correct = false;
    }
  };
  std::vector<bool> ok_untraced, ok_traced;
  check_all(untraced_ops, &ok_untraced);
  if (cfg.trace) check_all(traced_ops, &ok_traced);

  // Report lines.
  Samples all, lag, by_type[kOpTypeCount];
  std::size_t ok_count = 0, slo_ok = 0, verify_sent = 0, verify_repeats = 0;
  std::unordered_set<int> seen_pool;
  for (std::size_t i = 0; i < untraced_ops.size(); ++i) {
    const Executed& e = untraced_ops[i];
    lag.add(e.result.lag_us);
    if (e.op.type == OpType::kVerify && e.op.verify->pool_id >= 0) {
      ++verify_sent;
      if (!seen_pool.insert(e.op.verify->pool_id).second) ++verify_repeats;
    }
    if (!ok_untraced[i]) continue;
    ++ok_count;
    all.add(e.result.rtt_us);
    by_type[static_cast<int>(e.op.type)].add(e.result.rtt_us);
    if (e.result.rtt_us <= plan.slo_us) ++slo_ok;
  }
  for (int t = 0; t < kOpTypeCount; ++t)
    if (!by_type[t].empty())
      std::cout << "  " << op_name(static_cast<OpType>(t)) << " round trip: "
                << by_type[t].describe(1.0, "us") << "\n";
  std::cout << "  all ops: " << all.describe(1.0, "us") << ", " << ok_count
            << " ok of " << untraced_ops.size() << " in "
            << fmt(untraced.elapsed_s, 2) << " s; slo "
            << fmt(plan.slo_us / 1e3) << " ms\n";
  std::cout << "  generator lag: " << lag.describe(1.0, "us") << "\n";
  if (verify_sent > 0)
    std::cout << "  verify pool: " << plan.verify_pool.size() << " reports, "
              << fmt(100.0 * static_cast<double>(verify_repeats) /
                     static_cast<double>(verify_sent))
              << "% of pooled VERIFY requests repeat an earlier report\n";
  if (honest_sent > 0)
    std::cout << "  honest reports the verifier rejected: " << honest_rejects
              << " of " << honest_sent << " answered (limit "
              << fmt(100.0 * kHonestRejectLimit) << "%)\n";
  const double cpu_us_per_op =
      1e6 * load_cpu_s /
      static_cast<double>(std::max<std::size_t>(1, untraced_ops.size()));
  std::cout << "  cpu per op: " << fmt(cpu_us_per_op) << " us ("
            << fmt(load_cpu_s, 2) << " CPU-s); host speed " << fmt(speed.rate())
            << " kernel units/CPU-s over " << speed.bursts()
            << " bursts, factor " << fmt(speed.factor(), 3)
            << " (nominal " << fmt(HostSpeed::kNominalRate) << "); "
            << "the hypervisor took cpu " << cpu << " for "
            << fmt(100.0 * steal_s / untraced.elapsed_s) << "% of the load\n";
  std::cout << "  setup: " << setup.describe(1e6, "us") << ", registry open "
            << fmt(open_s * 1e3, 2) << " ms; peak memory over baseline "
            << fmt(peak_mb) << " MiB (baseline " << fmt(baseline_mb) << ")\n";
  failures.print("  ");

  if (!cfg.trace) {
    // Time metrics of the load are scaled to the nominal host (HostSpeed);
    // setup_s stays wall time.
    const double f = speed.factor();
    metrics["setup_s"] = {setup.median(), "s"};
    metrics["cpu_us_per_op_nominal"] = {cpu_us_per_op * f, "us"};
    metrics["p50_us_nominal"] = {all.median() * f, "us"};
    metrics["slo_ok_ratio"] = {
        static_cast<double>(slo_ok) /
            static_cast<double>(std::max<std::size_t>(1, untraced_ops.size())),
        "ratio"};
    metrics["peak_rss_mb"] = {peak_mb, "MiB"};
  } else {
    metrics["host.speed_factor"] = {speed.factor(), "ratio"};
    metrics["registry.open_s"] = {open_s, "s"};
    metrics["fail_ratio"] = {static_cast<double>(failures.total()) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, attempted)),
                             "ratio"};
    metrics["net.client_retries"] = {
        static_cast<double>(untraced.client_retries + traced.client_retries),
        "count"};
    metrics["gen.lag_p99_us"] = {lag.percentile(0.99), "us"};
    // Tracing overhead: mean round trip with the obs registry on vs off,
    // same inputs.
    Samples off, on;
    for (std::size_t i = 0; i < untraced_ops.size(); ++i)
      if (ok_untraced[i]) off.add(untraced_ops[i].result.rtt_us);
    for (std::size_t i = 0; i < traced_ops.size(); ++i)
      if (ok_traced[i]) on.add(traced_ops[i].result.rtt_us);
    metrics["trace.overhead_pct"] = {
        off.mean() > 0.0 ? 100.0 * (on.mean() / off.mean() - 1.0) : 0.0, "%"};
  }
  stack.reset();
  std::error_code ec;
  for (const std::string& dir : plan.registry_dirs) fs::remove_all(dir, ec);
  print_result(correct, attempted, failures.total(), metrics);
  return 0;
}

}  // namespace perfbench
