// The event loop behind every framed-protocol listener: AuthServer and the
// fleet Gateway each run one.
//
// ONE thread (the caller's, inside run()) owns every client socket:
// epoll-driven non-blocking accept/recv/send, frame extraction, and the
// replies that need no service logic.  A service plugs in a Handler that
// sees only decoded request frames, addressed by connection id; it answers
// inline on the loop thread with reply(), or admits the frame and hands
// the answer back later from any thread with post().  The loop never
// solves or forwards anything itself.
//
// What the loop owns, so no service carries a copy:
//   - the listener, the epoll fd and the wake fd;
//   - the connection table and connection ids (ids are never reused, so a
//     late post() for a closed connection is dropped, never misdelivered);
//   - TCP_NODELAY on every accepted socket (a pipelined second reply must
//     not wait for the peer's delayed ACK);
//   - framing: an unparseable stream gets a typed MALFORMED reply and is
//     closed once it is flushed; a well-framed reply type sent as a
//     request gets a typed UNSUPPORTED reply;
//   - the completion queue: post() is the answer to one admitted frame and
//     releases its in-flight slot; one write to the wake fd rouses the loop,
//     which scatters replies to their connections;
//   - outq flush with short-write bookkeeping, and the per-connection
//     backlog cap that disconnects a slow reader (counted);
//   - the fd-reuse guard: a connection closed while one epoll batch is
//     processed may have its fd reused by accept() in the same batch, and
//     the stale events queued for the old peer are skipped;
//   - the drain contract: request_drain() closes the listener; PING is
//     answered inline with Handler::health(); every other request gets
//     typed SHUTTING_DOWN; run() returns once nothing is in flight and
//     every reply is flushed;
//   - the util::FaultHooks server seams (accept, recv, send, short send).
//
// Counters `<name>.connections_accepted`, `.connections_closed`,
// `.malformed_frames`, `.slow_peer_disconnects`, `.shutdown_rejections`,
// `.bytes_read` and `.bytes_written`, and gauges `<name>.inflight` and
// `<name>.connections`, go to the global obs registry under the name the
// service passes in ("server", "gateway").
//
// Lifetime: workers post() into the loop, so a service declares its
// FrameLoop BEFORE its worker pool; the pool is destroyed (joined) first
// and no worker can write to a closed wake fd.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "util/status.hpp"

namespace ppuf::net {

class FrameLoop {
 public:
  /// What a service supplies.  Every method runs on the loop thread,
  /// except health(), which must be safe from any thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A request frame on a live connection, while not draining.  Answer
    /// inline with reply(), or admit() it and post() the answer later.
    virtual void on_frame(std::uint64_t conn_id, Frame frame) = 0;
    /// The connection is closed; posts for it will be dropped.
    virtual void on_close(std::uint64_t /*conn_id*/) {}
    /// Once per loop iteration, before the loop sleeps: hand off whatever
    /// is due (everything when `draining`) and return how long the loop
    /// may sleep, in ms, at most `fallback_ms`.  Frames a handler parks
    /// here must already be admitted, so the drain waits for them.
    virtual int on_tick(bool /*draining*/, int fallback_ms) {
      return fallback_ms;
    }
    /// The health report carried in PING replies.
    virtual HealthInfo health() const = 0;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// `name` prefixes the loop's metrics and words the drain refusal
  /// ("<name> is draining").  `max_backlog_bytes` caps each connection's
  /// queued reply bytes (0 = unbounded).  `draining` is the service's
  /// drain flag, which request_drain() raises.
  FrameLoop(std::string name, std::size_t max_backlog_bytes,
            std::atomic<bool>& draining, Handler& handler);
  ~FrameLoop();

  FrameLoop(const FrameLoop&) = delete;
  FrameLoop& operator=(const FrameLoop&) = delete;

  /// Bind and listen on 127.0.0.1:`port` (0 = ephemeral, reported through
  /// `*bound_port`) and create the epoll and wake fds.
  util::Status open(std::uint16_t port, int listen_backlog,
                    std::uint16_t* bound_port);

  /// The loop body; returns once a requested drain has completed, with
  /// every connection closed.  The fds stay open until destruction.
  void run();

  /// Raise the drain flag and wake the loop.  Async-signal-safe; callable
  /// from any thread, before or after open().
  void request_drain();

  // --- used by the Handler ----------------------------------------------

  /// Loop thread: queue `bytes` on the connection and flush what the
  /// socket takes.  A no-op when the connection is gone.
  void reply(std::uint64_t conn_id, std::vector<std::uint8_t> bytes);

  /// Loop thread: count a frame as in flight; its answer comes by post().
  void admit();

  /// Any thread: the answers to admitted frames, one completion per frame.
  /// Releases their in-flight slots and wakes the loop.
  void post(std::vector<Completion> done);
  void post(std::uint64_t conn_id, std::vector<std::uint8_t> bytes);

  /// Admitted frames not yet posted.
  std::size_t inflight() const;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t slow_peer_disconnects = 0;
    std::uint64_t shutdown_rejections = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  const std::unique_ptr<Impl> impl_;
};

}  // namespace ppuf::net
