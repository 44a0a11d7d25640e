// Workload plans (fixtures + traffic), the serving stack they run
// against, and the two entry points: the measured run and the traced
// replay.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fixtures.hpp"
#include "fleet/gateway.hpp"
#include "loadgen.hpp"
#include "registry/device_registry.hpp"
#include "server/auth_server.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string cache_dir;
  std::string trace_dir;
};

/// Everything a workload needs, built outside the clock.
struct Plan {
  /// Devices of the fleet (stable addresses: ops point at them).
  std::vector<std::unique_ptr<Device>> devices;
  /// Registry directory per shard, and the shard names a gateway routes
  /// by (empty: one server, no gateway).
  std::vector<std::string> registry_dirs;
  std::vector<std::string> shard_names;
  ppuf::server::AuthServerOptions server_options;
  /// Traffic: a closed loop draws from `stream`, an open loop sends
  /// `schedule`.
  bool open_loop = false;
  unsigned connections = 1;
  OpStream stream;
  std::vector<Op> schedule;
  /// Devices to touch once before the clock (warm hydration).
  std::vector<const Device*> warm;
  /// VERIFY pool (for the repeat share and the fingerprint).
  std::vector<std::shared_ptr<const VerifyItem>> verify_pool;
  /// Latency limit of slo_ok_ratio, microseconds.
  double slo_us = 0.0;
  /// Closed loop: ceiling on ops/s that sizes the outcome storage (more
  /// still records, by growing it).
  double max_ops_per_s = 0.0;
  std::string fingerprint;
};

Plan build_plan(const RunConfig& cfg);

/// A started serving stack: registries, servers and an optional gateway.
struct Stack {
  std::vector<std::unique_ptr<ppuf::registry::DeviceRegistry>> registries;
  std::vector<std::unique_ptr<ppuf::server::AuthServer>> servers;
  std::unique_ptr<ppuf::fleet::Gateway> gateway;
  std::uint16_t front_port = 0;
  double open_s = 0.0;  ///< registry open time (all shards)

  ~Stack() { stop(); }
  void stop();
};

/// Open the plan's registries, start servers (and gateway) and wait for
/// the first reply.  `*setup_s` is the elapsed time.
ppuf::util::Status start_stack(const Plan& plan, Stack* stack, double* setup_s);

/// Per-layer metrics of the traced run (replay + probes), added to
/// `metrics`.  `ops` is the traced half of the run; the stack is still up.
void trace_layers(const RunConfig& cfg, Plan& plan, Stack& stack,
                  const std::vector<Executed>& ops,
                  std::map<std::string, Metric>* metrics);

/// The whole run: fixtures, setup, load, checks, metrics, result line.
int run(const RunConfig& cfg);

}  // namespace perfbench
