#include "server/auth_server.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "backend/maxflow_backend.hpp"
#include "net/frame_loop.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "ppuf/response_cache.hpp"
#include "protocol/authentication.hpp"
#include "registry/device_registry.hpp"
#include "registry/hydration_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ppuf::server {

namespace {

using net::encode_error_frame;
using net::Frame;
using net::MessageType;
using net::WireCode;
using util::Status;

WireCode wire_code_for(const Status& s) {
  switch (s.code()) {
    case util::StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case util::StatusCode::kCancelled:
      return WireCode::kCancelled;
    case util::StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case util::StatusCode::kUnavailable:
      return WireCode::kOverloaded;
    case util::StatusCode::kNotFound:
      return WireCode::kUnknownDevice;
    default:
      return WireCode::kInternal;
  }
}

}  // namespace

/// The server's FrameLoop handler: admission, coalescing and the request
/// handlers.  The loop owns every socket (net/frame_loop.hpp).
struct AuthServer::Impl final : net::FrameLoop::Handler {
  /// Single-device mode: one max-flow device, addressed as device 0.
  Impl(const SimulationModel& model, const AuthServerOptions& options,
       std::atomic<bool>& draining)
      : Impl(options, draining) {
    backend::MaterializeOptions mopts;
    mopts.verifier_deadline_seconds = options.verifier_deadline_seconds;
    mopts.flow_tolerance_fraction = options.flow_tolerance_fraction;
    mopts.verify_threads = 1;
    single_device = backend::make_maxflow_device(model, mopts);
  }

  /// Multi-tenant mode: devices resolve through the registry via a
  /// bounded hydration cache.
  Impl(registry::DeviceRegistry& registry,
       const AuthServerOptions& options, std::atomic<bool>& draining)
      : Impl(options, draining) {
    device_registry = &registry;
    registry::HydrationCache::Options cache_options;
    cache_options.max_entries = options.hydration_cache_entries;
    cache_options.verifier_deadline_seconds =
        options.verifier_deadline_seconds;
    cache_options.flow_tolerance_fraction = options.flow_tolerance_fraction;
    cache_options.verify_threads = 1;
    // Wired at materialisation: every hydrated device comes out of the
    // cache already attached to the fleet's warm-response plane, so
    // PREDICT serves registry devices from the shared device-keyed cache
    // without a second lookup layer.
    cache_options.response_cache =
        response_cache ? &*response_cache : nullptr;
    hydration.emplace(registry, cache_options);
  }

  Impl(const AuthServerOptions& options, std::atomic<bool>& draining)
      : options(options),
        draining(draining),
        rng(options.challenge_seed),
        loop("server", options.max_connection_backlog_bytes, draining,
             *this),
        pool(options.threads) {
    if (options.response_cache_bytes > 0)
      response_cache.emplace(options.response_cache_bytes);
  }

  // --- shared state -------------------------------------------------------

  /// Exactly one of these two is set.  The registry pointer is non-const:
  /// ENROLL mutates it and WAL_FETCH exports from it (both registry-mode
  /// only; the registry's own mutex serialises against other callers).
  std::unique_ptr<backend::Device> single_device;
  registry::DeviceRegistry* device_registry = nullptr;
  /// Shared device-keyed CRP cache for PREDICT
  /// (options.response_cache_bytes > 0).  Declared before `hydration`
  /// because hydrated devices carry a pointer into it.
  std::optional<ResponseCache> response_cache;
  std::optional<registry::HydrationCache> hydration;

  AuthServerOptions options;
  std::atomic<bool>& draining;

  /// What a handler works against once the frame's device id resolved:
  /// a borrowed backend::Device, kept alive by `hold` in registry mode
  /// (eviction from the hydration cache must not free a device
  /// mid-request).  Every request path goes through this interface, so a
  /// max-flow crossbar and a PDL chain serve through identical code.
  struct DeviceContext {
    const backend::Device* device = nullptr;
    std::shared_ptr<const registry::HydratedDevice> hold;
  };

  /// kNotFound when the id is unknown or revoked (mapped to a typed
  /// UNKNOWN_DEVICE reply by the caller).
  Status resolve_device(std::uint64_t device_id, DeviceContext* out) {
    if (single_device != nullptr) {
      if (device_id != net::kDefaultDeviceId)
        return Status::not_found("single-device server; use device id 0");
      out->device = single_device.get();
      return Status::ok();
    }
    if (device_id == net::kDefaultDeviceId)
      return Status::not_found(
          "registry-backed server requires an enrolled device id");
    std::shared_ptr<const registry::HydratedDevice> device;
    if (Status s = hydration->get(device_id, &device); !s.is_ok()) return s;
    out->device = device->device.get();
    out->hold = std::move(device);
    return Status::ok();
  }

  /// The typed reply for a frame whose device id did not resolve.  An
  /// unknown/revoked id is an UNKNOWN_DEVICE reply and counted; transient
  /// hydration failures map through wire_code_for like any other status.
  std::vector<std::uint8_t> device_error_reply(const Frame& frame,
                                               const Status& s) {
    if (s.code() == util::StatusCode::kNotFound) {
      unknown_device_rejections.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global()
          .counter("server.unknown_device_rejections")
          .add();
    }
    return encode_error_frame(frame.request_id, frame.device_id,
                              wire_code_for(s), s.message());
  }

  std::mutex rng_mutex;  ///< guards rng (workers issue challenges too)
  util::Rng rng;

  // --- coalescing stage (event-loop thread only) --------------------------

  /// One PREDICT / VERIFY frame of a device batch.  The deadline was
  /// re-anchored at decode, so waiting in the batch burns the request's
  /// own budget.
  struct PendingItem {
    std::uint64_t connection_id = 0;
    Frame frame;
    util::Deadline deadline;
    std::chrono::steady_clock::time_point enqueued_at{};
  };
  /// device id -> open batch.  Only the event loop touches this; a batch
  /// leaves the map wholesale when it is flushed to the pool.  Parked
  /// frames are already admitted, so a drain waits for them.
  std::unordered_map<std::uint64_t, std::vector<PendingItem>> pending;

  // Stats (relaxed atomics; read via AuthServer::stats()).  Connection,
  // framing, slow-peer and drain counts live in the loop.
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> overloaded_rejections{0};
  std::atomic<std::uint64_t> unknown_device_rejections{0};
  std::atomic<std::uint64_t> coalesced_batches{0};
  std::atomic<std::uint64_t> coalesced_items{0};
  std::atomic<std::uint64_t> solo_dispatches{0};
  std::atomic<std::uint64_t> enrolls_served{0};
  std::atomic<std::uint64_t> wal_fetches_served{0};

  /// Declared before the pool: workers post into it.
  net::FrameLoop loop;
  /// Declared last so it is destroyed (joined) FIRST.
  util::ThreadPool pool;

  // --- FrameLoop::Handler (event-loop thread) -----------------------------

  void on_frame(std::uint64_t conn_id, Frame frame) override;
  /// Flush the batches that are due: full batches close in on_frame();
  /// here age (oldest item waited >= coalesce_wait_us) or a drain closes
  /// the rest.  Returns the loop's sleep until the next batch-window
  /// expiry, in ms (clamped to [1, fallback]).
  int on_tick(bool draining_now, int fallback_ms) override;

  /// Per-frame dispatch: one pool task for one frame of any type but
  /// PREDICT / VERIFY, which are always served as a device batch.
  void submit_frame(std::uint64_t connection_id, Frame frame,
                    const util::Deadline& deadline);
  /// One pool task for one device batch (of one item or many).
  void submit_batch(std::uint64_t device_id, std::vector<PendingItem> items);
  /// Flush one device's open batch to the pool.
  void flush_device_batch(std::uint64_t device_id);

  /// Health snapshot carried in every PING reply (safe from any thread:
  /// all inputs are atomics, immutable options, or the registry behind
  /// its own mutex).  Registry mode also reports the device count and
  /// WAL position, so a gateway's health probe doubles as replication-lag
  /// telemetry.
  net::HealthInfo health() const override {
    net::HealthInfo h;
    h.inflight = static_cast<std::uint32_t>(loop.inflight());
    h.max_inflight = static_cast<std::uint32_t>(options.max_inflight);
    h.draining = draining.load(std::memory_order_relaxed) ? 1 : 0;
    h.requests_served = requests.load(std::memory_order_relaxed);
    h.connections_accepted = loop.stats().connections_accepted;
    if (device_registry != nullptr) {
      h.device_count = device_registry->device_count();
      const registry::DeviceRegistry::WalPosition pos =
          device_registry->wal_position();
      h.wal_epoch = pos.epoch;
      h.wal_offset = pos.offset;
    }
    return h;
  }

  // --- request handlers (worker threads) ----------------------------------

  /// The response cache PREDICT should use for `ctx`: the pointer the
  /// device was hydrated with (registry mode), or the server's own cache
  /// (single-device mode); null when disabled.
  ResponseCache* cache_for(const DeviceContext& ctx) {
    if (ctx.hold != nullptr) return ctx.hold->response_cache;
    return response_cache ? &*response_cache : nullptr;
  }

  /// Serve one device batch on a worker, the only PREDICT / VERIFY path:
  /// resolve the device once, run verifies through verify_batch and
  /// predicts through predict_batch (device-keyed cache, per-item
  /// deadlines), then scatter one completion per item back to its
  /// originating connection.
  void run_batch(std::uint64_t device_id, std::vector<PendingItem> items);

  std::vector<std::uint8_t> handle(const Frame& frame,
                                   const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_ping(const Frame& frame,
                                        const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_verify_batch(const Frame& frame);
  std::vector<std::uint8_t> handle_challenge(const Frame& frame);
  std::vector<std::uint8_t> handle_chained_auth(
      const Frame& frame, const util::Deadline& deadline);
  std::vector<std::uint8_t> handle_enroll(const Frame& frame);
  std::vector<std::uint8_t> handle_wal_fetch(const Frame& frame);
};

// --- lifecycle -------------------------------------------------------------

AuthServer::AuthServer(const SimulationModel& model,
                       AuthServerOptions options)
    : model_(&model), options_(options) {}

AuthServer::AuthServer(registry::DeviceRegistry& registry,
                       AuthServerOptions options)
    : registry_(&registry), options_(options) {}

AuthServer::~AuthServer() { stop(); }

util::Status AuthServer::start() {
  if (running_.load(std::memory_order_acquire))
    return Status::invalid_argument("server already started");
  impl_ = model_ != nullptr
              ? std::make_unique<Impl>(*model_, options_, draining_)
              : std::make_unique<Impl>(*registry_, options_, draining_);
  if (Status s =
          impl_->loop.open(options_.port, options_.listen_backlog, &port_);
      !s.is_ok())
    return s;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { impl_->loop.run(); });
  return Status::ok();
}

void AuthServer::request_drain() {
  if (impl_ != nullptr) impl_->loop.request_drain();
}

void AuthServer::wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false, std::memory_order_release);
}

void AuthServer::stop() {
  request_drain();
  wait();
}

AuthServer::Stats AuthServer::stats() const {
  Stats s;
  if (impl_ == nullptr) return s;
  const net::FrameLoop::Stats loop = impl_->loop.stats();
  s.connections_accepted = loop.connections_accepted;
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.overloaded_rejections =
      impl_->overloaded_rejections.load(std::memory_order_relaxed);
  s.shutdown_rejections = loop.shutdown_rejections;
  s.malformed_frames = loop.malformed_frames;
  s.unknown_device_rejections =
      impl_->unknown_device_rejections.load(std::memory_order_relaxed);
  s.coalesced_batches =
      impl_->coalesced_batches.load(std::memory_order_relaxed);
  s.coalesced_items = impl_->coalesced_items.load(std::memory_order_relaxed);
  s.solo_dispatches = impl_->solo_dispatches.load(std::memory_order_relaxed);
  s.slow_peer_disconnects = loop.slow_peer_disconnects;
  s.enrolls_served = impl_->enrolls_served.load(std::memory_order_relaxed);
  s.wal_fetches_served =
      impl_->wal_fetches_served.load(std::memory_order_relaxed);
  return s;
}

// --- admission and coalescing (event-loop thread) --------------------------

void AuthServer::Impl::on_frame(std::uint64_t conn_id, Frame frame) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  // Admission control.  Only the event loop admits, so the check cannot
  // race another admission; workers release slots as they post.
  if (loop.inflight() >= options.max_inflight) {
    overloaded_rejections.fetch_add(1, std::memory_order_relaxed);
    reg.counter("server.overloaded_rejections").add();
    loop.reply(conn_id, encode_error_frame(frame.request_id,
                                           frame.device_id,
                                           WireCode::kOverloaded,
                                           "in-flight limit reached"));
    return;
  }
  loop.admit();
  requests.fetch_add(1, std::memory_order_relaxed);
  reg.counter("server.requests").add();

  // Budget is re-anchored NOW, at decode: queue wait burns budget.
  const util::Deadline deadline = frame.deadline();
  if (frame.type != MessageType::kPredictRequest &&
      frame.type != MessageType::kVerifyRequest) {
    submit_frame(conn_id, std::move(frame), deadline);
    return;
  }
  const std::uint64_t device_id = frame.device_id;
  PendingItem item{conn_id, std::move(frame), deadline, {}};
  // Batch size 1 never waits.  Past that, a frame joins a batch only if
  // its budget can survive the full window; otherwise it goes to the pool
  // solo, where nothing ahead of it can eat the remaining budget.  Either
  // way it is served as a one-item batch by the same run_batch.
  const bool coalescing = options.coalesce_max_batch > 1;
  if (!coalescing ||
      (!deadline.is_unlimited() &&
       deadline.remaining() <
           std::chrono::microseconds(options.coalesce_wait_us))) {
    if (coalescing) {
      solo_dispatches.fetch_add(1, std::memory_order_relaxed);
      reg.counter("server.solo_dispatches").add();
    }
    std::vector<PendingItem> one;
    one.push_back(std::move(item));
    submit_batch(device_id, std::move(one));
    return;
  }
  item.enqueued_at = std::chrono::steady_clock::now();
  std::vector<PendingItem>& batch = pending[device_id];
  batch.push_back(std::move(item));
  if (batch.size() >= options.coalesce_max_batch)
    flush_device_batch(device_id);
}

void AuthServer::Impl::submit_frame(std::uint64_t connection_id, Frame frame,
                                    const util::Deadline& deadline) {
  pool.submit([this, frame = std::move(frame), deadline, connection_id] {
    std::vector<std::uint8_t> reply;
    try {
      reply = handle(frame, deadline);
    } catch (const std::exception& e) {
      reply = encode_error_frame(frame.request_id, frame.device_id,
                                 WireCode::kInternal, e.what());
    } catch (...) {
      reply = encode_error_frame(frame.request_id, frame.device_id,
                                 WireCode::kInternal,
                                 "unknown handler failure");
    }
    loop.post(connection_id, std::move(reply));
  });
}

void AuthServer::Impl::submit_batch(std::uint64_t device_id,
                                    std::vector<PendingItem> items) {
  pool.submit([this, device_id, items = std::move(items)]() mutable {
    run_batch(device_id, std::move(items));
  });
}

void AuthServer::Impl::flush_device_batch(std::uint64_t device_id) {
  const auto it = pending.find(device_id);
  if (it == pending.end() || it->second.empty()) return;
  std::vector<PendingItem> items = std::move(it->second);
  pending.erase(it);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  coalesced_batches.fetch_add(1, std::memory_order_relaxed);
  coalesced_items.fetch_add(items.size(), std::memory_order_relaxed);
  reg.counter("server.coalesced_batches").add();
  reg.counter("server.coalesced_items").add(items.size());
  reg.histogram("server.batch_size")
      .record(static_cast<double>(items.size()));
  const auto waited = std::chrono::steady_clock::now() -
                      items.front().enqueued_at;
  reg.histogram("server.coalesce_wait_us")
      .record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(waited)
              .count()));
  submit_batch(device_id, std::move(items));
}

int AuthServer::Impl::on_tick(bool draining_now, int fallback_ms) {
  if (pending.empty()) return fallback_ms;
  const auto now = std::chrono::steady_clock::now();
  const auto window = std::chrono::microseconds(options.coalesce_wait_us);
  std::vector<std::uint64_t> due;
  for (const auto& [device_id, batch] : pending) {
    if (draining_now ||
        (!batch.empty() && now - batch.front().enqueued_at >= window))
      due.push_back(device_id);
  }
  for (const std::uint64_t device_id : due) flush_device_batch(device_id);

  auto next = std::chrono::steady_clock::duration::max();
  for (const auto& [device_id, batch] : pending) {
    if (batch.empty()) continue;
    next = std::min(next, (batch.front().enqueued_at + window) - now);
  }
  if (next == std::chrono::steady_clock::duration::max()) return fallback_ms;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next).count();
  // Clamp to >= 1: a zero timeout would busy-spin, and a 1 ms over-wait
  // is inside the window tolerance the policy already promises.
  return static_cast<int>(
      std::min<long long>(fallback_ms, std::max<long long>(1, ms)));
}

// --- request handlers (worker threads) -------------------------------------

std::vector<std::uint8_t> AuthServer::Impl::handle(
    const Frame& frame, const util::Deadline& deadline) {
  // Expired in the queue: answer with the typed error instead of doing
  // work nobody is waiting for.
  if (deadline.expired())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kDeadlineExceeded,
                              "budget expired before processing");
  switch (frame.type) {
    case MessageType::kPingRequest:
      return handle_ping(frame, deadline);
    case MessageType::kVerifyBatchRequest:
      return handle_verify_batch(frame);
    case MessageType::kChallengeRequest:
      return handle_challenge(frame);
    case MessageType::kChainedAuthRequest:
      return handle_chained_auth(frame, deadline);
    case MessageType::kEnrollRequest:
      return handle_enroll(frame);
    case MessageType::kWalFetchRequest:
      return handle_wal_fetch(frame);
    default:
      return encode_error_frame(frame.request_id, frame.device_id,
                                WireCode::kUnsupportedType,
                                "unsupported request type");
  }
}

std::vector<std::uint8_t> AuthServer::Impl::handle_ping(
    const Frame& frame, const util::Deadline& deadline) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.ping.request_us");
  std::uint32_t delay_ms = 0;
  if (Status s = net::decode_ping_request(frame.payload, &delay_ms);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  delay_ms = std::min(delay_ms, options.max_ping_delay_ms);
  if (delay_ms > 0) {
    // Sleep in slices so an expiring budget still gets its typed answer
    // roughly on time.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(delay_ms);
    while (std::chrono::steady_clock::now() < until) {
      if (deadline.expired())
        return encode_error_frame(frame.request_id, frame.device_id,
                                  WireCode::kDeadlineExceeded,
                                  "budget expired during ping delay");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // PING is transport-level: it answers for any device id without
  // resolving it (load tests ping before enrolment exists), and the reply
  // carries the server's health report.
  return net::encode_frame(MessageType::kPingReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_ping_reply(health()));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_verify_batch(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.verify_batch.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  std::vector<Challenge> challenges;
  std::vector<protocol::ProverReport> reports;
  if (Status s = net::decode_verify_batch_request(frame.payload,
                                                  &challenges, &reports);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  for (const Challenge& c : challenges)
    if (Status s = ctx.device->validate_challenge(c); !s.is_ok())
      return encode_error_frame(frame.request_id, frame.device_id,
                                WireCode::kInvalidArgument, s.message());
  // Items run inline on this worker: nested pool dispatch would deadlock
  // the pool (DESIGN.md §12).  Like VERIFY, the budget is checked once,
  // before any work (handle()).
  protocol::Verifier::BatchVerifyOptions vopts;
  vopts.thread_count = 1;
  return net::encode_frame(
      MessageType::kVerifyBatchReply, frame.request_id, frame.device_id, 0,
      net::encode_verify_batch_reply(
          ctx.device->verify_batch(challenges, reports, vopts)));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_challenge(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.challenge.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  if (Status s = net::decode_challenge_request(frame.payload); !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  net::ChallengeGrant grant;
  {
    std::lock_guard<std::mutex> lock(rng_mutex);
    grant.challenge = ctx.device->issue_challenge(rng);
    grant.nonce = rng();
  }
  grant.chain_length = options.chain_length;
  grant.deadline_seconds = ctx.device->deadline_seconds();
  return net::encode_frame(MessageType::kChallengeReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_challenge_reply(grant));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_chained_auth(
    const Frame& frame, const util::Deadline& deadline) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.chained_auth.request_us");
  DeviceContext ctx;
  if (Status s = resolve_device(frame.device_id, &ctx); !s.is_ok())
    return device_error_reply(frame, s);
  net::ChainedAuthRequest request;
  if (Status s =
          net::decode_chained_auth_request(frame.payload, &request);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  if (Status s = ctx.device->validate_challenge(request.grant.challenge);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kInvalidArgument, s.message());
  // k is adversary-controlled verification work; bound it.
  if (request.grant.chain_length > options.max_chain_length)
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kInvalidArgument,
                              "chain length exceeds server limit");
  if (deadline.expired())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kDeadlineExceeded,
                              "budget expired before chain verification");
  util::Rng spot_rng;
  {
    std::lock_guard<std::mutex> lock(rng_mutex);
    spot_rng = rng.fork();
  }
  const protocol::ChainedVerifyResult result = ctx.device->verify_chain(
      request.grant.challenge, request.grant.chain_length,
      request.grant.nonce, request.report, options.spot_checks, spot_rng);
  return net::encode_frame(MessageType::kChainedAuthReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_chained_auth_reply(result));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_enroll(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.enroll.request_us");
  if (device_registry == nullptr)
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kInvalidArgument,
                              "enrollment requires a registry-backed server");
  net::EnrollRequestBody body;
  if (Status s = net::decode_enroll_request(frame.payload, &body);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  // The wire passes unknown non-zero backend bytes through (forward
  // compatibility); they die here with a typed error instead.
  const auto kind = static_cast<backend::BackendKind>(body.backend);
  if (backend::find_backend(kind) == nullptr)
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kInvalidArgument,
                              "enroll: unknown backend");
  registry::EnrollRequest request;
  request.node_count = body.node_count;
  request.grid_size = body.grid_size;
  request.seed = body.fabrication_seed;
  request.label = body.label;
  request.backend = kind;
  // The frame header's device id doubles as the requested id (0 = assign
  // next free) so the gateway routes ENROLL like every other frame.
  request.device_id = frame.device_id;
  std::uint64_t assigned = 0;
  if (Status s = device_registry->enroll(request, &assigned); !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              wire_code_for(s), s.message());
  enrolls_served.fetch_add(1, std::memory_order_relaxed);
  net::EnrollReplyBody reply;
  reply.device_id = assigned;
  return net::encode_frame(MessageType::kEnrollReply, frame.request_id,
                           assigned, 0, net::encode_enroll_reply(reply));
}

std::vector<std::uint8_t> AuthServer::Impl::handle_wal_fetch(
    const Frame& frame) {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(),
                         "server.wal_fetch.request_us");
  if (device_registry == nullptr)
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kInvalidArgument,
                              "WAL shipping requires a registry-backed server");
  net::WalFetchRequestBody request;
  if (Status s = net::decode_wal_fetch_request(frame.payload, &request);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              WireCode::kMalformed, s.message());
  // Clamp the pull size: 0 means "server's choice", and nothing may
  // exceed a bound well under kMaxPayload.
  constexpr std::size_t kDefaultSegment = 1u << 20;  // 1 MiB
  constexpr std::size_t kMaxSegment = 4u << 20;      // 4 MiB
  std::size_t max_bytes =
      request.max_bytes == 0 ? kDefaultSegment : request.max_bytes;
  max_bytes = std::min(max_bytes, kMaxSegment);
  net::WalSegmentBody reply;
  bool stale = false;
  if (Status s = device_registry->read_wal_segment(
          request.epoch, request.offset, max_bytes, &reply.bytes, &stale);
      !s.is_ok())
    return encode_error_frame(frame.request_id, frame.device_id,
                              wire_code_for(s), s.message());
  if (stale) {
    // Epoch mismatch or out-of-range offset: the standby's position is
    // meaningless (restart or compaction happened).  Answer with a full
    // bootstrap snapshot and the position it corresponds to.
    reply.bytes.clear();
    registry::DeviceRegistry::WalPosition pos;
    if (Status s = device_registry->export_bootstrap(&reply.bytes, &pos);
        !s.is_ok())
      return encode_error_frame(frame.request_id, frame.device_id,
                                wire_code_for(s), s.message());
    reply.bootstrap = 1;
    reply.epoch = pos.epoch;
    reply.next_offset = pos.offset;
  } else {
    reply.bootstrap = 0;
    reply.epoch = request.epoch;
    reply.next_offset = request.offset + reply.bytes.size();
  }
  wal_fetches_served.fetch_add(1, std::memory_order_relaxed);
  return net::encode_frame(MessageType::kWalSegmentReply, frame.request_id,
                           frame.device_id, 0,
                           net::encode_wal_segment_reply(reply));
}

void AuthServer::Impl::run_batch(std::uint64_t device_id,
                                 std::vector<PendingItem> items) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(reg, "server.batch.request_us");
  // Every item produces exactly one reply, no matter how the batch goes,
  // routed back to its own originating connection.
  std::vector<net::FrameLoop::Completion> done(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    done[i].conn_id = items[i].connection_id;
  auto fail = [&](std::size_t i, WireCode code, const std::string& message) {
    done[i].bytes = encode_error_frame(items[i].frame.request_id,
                                       items[i].frame.device_id, code,
                                       message);
  };
  try {
    // A batch whose every budget expired in the queue or the window never
    // hydrates its device.
    DeviceContext ctx;
    const bool any_live =
        std::any_of(items.begin(), items.end(), [](const PendingItem& it) {
          return !it.deadline.expired();
        });
    const Status resolved =
        any_live ? resolve_device(device_id, &ctx) : Status::ok();
    // Partition: expired, unresolved, undecodable and invalid items answer
    // on their own and drop out; the survivors gather into ONE
    // verify_batch call and ONE predict_batch call, both inline on this
    // worker (DESIGN.md §12).  Reports move; nothing is copied.
    std::vector<std::size_t> vitems, pitems;
    std::vector<Challenge> vc, pc;
    std::vector<protocol::ProverReport> vr;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Frame& frame = items[i].frame;
      if (items[i].deadline.expired()) {
        fail(i, WireCode::kDeadlineExceeded,
             "budget expired before processing");
        continue;
      }
      if (!resolved.is_ok()) {
        done[i].bytes = device_error_reply(frame, resolved);
        continue;
      }
      const bool predict = frame.type == MessageType::kPredictRequest;
      Challenge c;
      protocol::ProverReport r;
      Status s = predict ? net::decode_predict_request(frame.payload, &c)
                         : net::decode_verify_request(frame.payload, &c, &r);
      if (!s.is_ok()) {
        fail(i, WireCode::kMalformed, s.message());
        continue;
      }
      if (s = ctx.device->validate_challenge(c); !s.is_ok()) {
        fail(i, WireCode::kInvalidArgument, s.message());
        continue;
      }
      (predict ? pitems : vitems).push_back(i);
      (predict ? pc : vc).push_back(std::move(c));
      if (!predict) vr.push_back(std::move(r));
    }
    // Verifies first: verify_batch has no per-item deadline plumbing, so
    // they run right after the expiry check above; predict_batch checks
    // every item's own deadline itself.
    if (!vc.empty()) {
      protocol::Verifier::BatchVerifyOptions vopts;
      vopts.thread_count = 1;
      std::vector<protocol::AuthenticationResult> results;
      {
        obs::ScopedTimer t(reg, "server.verify.request_us");
        results = ctx.device->verify_batch(vc, vr, vopts);
      }
      for (std::size_t k = 0; k < vitems.size(); ++k) {
        const Frame& frame = items[vitems[k]].frame;
        done[vitems[k]].bytes = net::encode_frame(
            MessageType::kVerifyReply, frame.request_id, frame.device_id, 0,
            net::encode_verify_reply(results[k]));
      }
    }
    if (!pc.empty()) {
      SimulationModel::PredictBatchOptions popts;
      popts.algorithm = maxflow::Algorithm::kPushRelabel;
      popts.thread_count = 1;  // inline: this IS a pool worker already
      popts.cache = cache_for(ctx);
      popts.cache_device_id = device_id;
      popts.deadlines.reserve(pitems.size());
      for (const std::size_t i : pitems)
        popts.deadlines.push_back(items[i].deadline);
      std::vector<SimulationModel::Prediction> preds;
      {
        obs::ScopedTimer t(reg, "server.predict.request_us");
        preds = ctx.device->predict_batch(pc, popts);
      }
      for (std::size_t k = 0; k < pitems.size(); ++k) {
        const Frame& frame = items[pitems[k]].frame;
        done[pitems[k]].bytes =
            preds[k].ok()
                ? net::encode_frame(MessageType::kPredictReply,
                                    frame.request_id, frame.device_id, 0,
                                    net::encode_predict_reply(preds[k]))
                : encode_error_frame(frame.request_id, frame.device_id,
                                     wire_code_for(preds[k].status),
                                     preds[k].status.to_string());
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < items.size(); ++i)
      if (done[i].bytes.empty()) fail(i, WireCode::kInternal, e.what());
  } catch (...) {
    for (std::size_t i = 0; i < items.size(); ++i)
      if (done[i].bytes.empty())
        fail(i, WireCode::kInternal, "unknown handler failure");
  }
  // Reply-scatter: one lock and one wake for the whole batch.
  loop.post(std::move(done));
}

}  // namespace ppuf::server
