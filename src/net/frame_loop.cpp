#include "net/frame_loop.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/fault_hooks.hpp"

namespace ppuf::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

constexpr const char* kMetricSuffix[] = {
    ".connections_accepted", ".connections_closed",
    ".malformed_frames",     ".slow_peer_disconnects",
    ".shutdown_rejections",  ".bytes_read",
    ".bytes_written",        ".inflight",
    ".connections",
};

}  // namespace

struct FrameLoop::Impl {
  Impl(std::string name, std::size_t max_backlog_bytes,
       std::atomic<bool>& draining, Handler& handler);

  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_offset = 0;  ///< bytes of outq.front() already sent
    std::size_t outq_bytes = 0;  ///< total queued reply bytes (backlog cap)
    bool close_after_flush = false;
    bool want_write = false;
  };

  /// Minimal RAII fd for epoll/eventfd.
  struct OwnedFd {
    int fd = -1;
    ~OwnedFd() {
      if (fd >= 0) ::close(fd);
    }
  };

  enum Metric {
    kConnectionsAccepted,
    kConnectionsClosed,
    kMalformedFrames,
    kSlowPeerDisconnects,
    kShutdownRejections,
    kBytesRead,
    kBytesWritten,
    kInflightGauge,
    kConnectionsGauge,
    kMetricCount,
  };
  void count(Metric m, std::uint64_t delta = 1) const {
    obs::MetricsRegistry::global().counter(metric_names[m]).add(delta);
  }

  void run();
  void accept_ready();
  void read_ready(int fd);
  void consume_frames(int fd);
  void dispatch(Connection& conn, Frame frame);
  void reply(std::uint64_t conn_id, std::vector<std::uint8_t> bytes);
  /// Give back `n` in-flight slots whose replies are queued; wake the loop.
  void release(std::size_t n);
  void enqueue(Connection& conn, std::vector<std::uint8_t> bytes);
  void flush(Connection& conn);
  void update_epoll(Connection& conn);
  void close_connection(int fd);
  void drain_completions();
  bool drained();
  void wake();

  const std::string name;
  const std::size_t max_backlog_bytes;
  std::atomic<bool>& draining;
  Handler& handler;
  std::array<std::string, kMetricCount> metric_names;

  Socket listener;
  OwnedFd epoll;
  OwnedFd wake_fd;

  std::unordered_map<int, Connection> connections;       // fd -> state
  std::unordered_map<std::uint64_t, int> connection_fd;  // id -> fd
  std::uint64_t next_connection_id = 1;
  /// Fds closed while processing the current epoll_wait batch.  accept()
  /// may reuse such an fd for a NEW connection within the same batch; a
  /// stale queued event (e.g. EPOLLHUP for the old peer) must not be
  /// applied to it.  Events for the new fd cannot be in this batch, so
  /// skipping is always safe.
  std::unordered_set<int> closed_in_batch;

  /// Guards ONLY the vector push/swap, never a socket call: a slow peer
  /// can never stall a worker that is posting.
  std::mutex completion_mutex;
  std::vector<Completion> completions;
  std::atomic<std::size_t> inflight{0};

  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> malformed_frames{0};
  std::atomic<std::uint64_t> slow_peer_disconnects{0};
  std::atomic<std::uint64_t> shutdown_rejections{0};
};

FrameLoop::Impl::Impl(std::string name_in, std::size_t max_backlog_bytes_in,
                      std::atomic<bool>& draining_in, Handler& handler_in)
    : name(std::move(name_in)),
      max_backlog_bytes(max_backlog_bytes_in),
      draining(draining_in),
      handler(handler_in) {
  static_assert(std::size(kMetricSuffix) == kMetricCount);
  for (int m = 0; m < kMetricCount; ++m)
    metric_names[m] = name + kMetricSuffix[m];
}

// --- the public face: every call forwards to Impl ---------------------------

FrameLoop::FrameLoop(std::string name, std::size_t max_backlog_bytes,
                     std::atomic<bool>& draining, Handler& handler)
    : impl_(std::make_unique<Impl>(std::move(name), max_backlog_bytes,
                                   draining, handler)) {}

FrameLoop::~FrameLoop() = default;

util::Status FrameLoop::open(std::uint16_t port, int listen_backlog,
                             std::uint16_t* bound_port) {
  Impl& m = *impl_;
  if (util::Status s =
          listen_tcp(port, listen_backlog, &m.listener, bound_port);
      !s.is_ok())
    return s;
  m.epoll.fd = epoll_create1(EPOLL_CLOEXEC);
  if (m.epoll.fd < 0)
    return util::Status::unavailable(std::string("epoll_create1: ") +
                                     strerror(errno));
  m.wake_fd.fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (m.wake_fd.fd < 0)
    return util::Status::unavailable(std::string("eventfd: ") +
                                     strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = m.listener.fd();
  epoll_ctl(m.epoll.fd, EPOLL_CTL_ADD, m.listener.fd(), &ev);
  ev.data.fd = m.wake_fd.fd;
  epoll_ctl(m.epoll.fd, EPOLL_CTL_ADD, m.wake_fd.fd, &ev);
  return util::Status::ok();
}

void FrameLoop::run() { impl_->run(); }

void FrameLoop::request_drain() {
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->wake();
}

void FrameLoop::reply(std::uint64_t conn_id,
                      std::vector<std::uint8_t> bytes) {
  impl_->reply(conn_id, std::move(bytes));
}

void FrameLoop::admit() {
  impl_->inflight.fetch_add(1, std::memory_order_relaxed);
}

void FrameLoop::post(std::vector<Completion> done) {
  Impl& m = *impl_;
  const std::size_t n = done.size();
  {
    std::lock_guard<std::mutex> lock(m.completion_mutex);
    m.completions.insert(m.completions.end(),
                         std::make_move_iterator(done.begin()),
                         std::make_move_iterator(done.end()));
  }
  m.release(n);
}

void FrameLoop::post(std::uint64_t conn_id, std::vector<std::uint8_t> bytes) {
  Impl& m = *impl_;
  {
    std::lock_guard<std::mutex> lock(m.completion_mutex);
    m.completions.push_back({conn_id, std::move(bytes)});
  }
  m.release(1);
}

std::size_t FrameLoop::inflight() const {
  return impl_->inflight.load(std::memory_order_relaxed);
}

FrameLoop::Stats FrameLoop::stats() const {
  const Impl& m = *impl_;
  Stats s;
  s.connections_accepted =
      m.connections_accepted.load(std::memory_order_relaxed);
  s.malformed_frames = m.malformed_frames.load(std::memory_order_relaxed);
  s.slow_peer_disconnects =
      m.slow_peer_disconnects.load(std::memory_order_relaxed);
  s.shutdown_rejections =
      m.shutdown_rejections.load(std::memory_order_relaxed);
  return s;
}

void FrameLoop::Impl::wake() {
  // eventfd writes are async-signal-safe, so a signal-handling thread may
  // wake the loop.
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_fd.fd, &one, sizeof(one));
}

// --- the loop ---------------------------------------------------------------

void FrameLoop::Impl::run() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  bool listener_open = true;
  std::vector<epoll_event> events(64);
  for (;;) {
    const bool drain_now = draining.load(std::memory_order_relaxed);
    if (drain_now && listener_open) {
      epoll_ctl(epoll.fd, EPOLL_CTL_DEL, listener.fd(), nullptr);
      listener.close();
      listener_open = false;
    }
    // Work the handler holds back (e.g. a coalescing window) goes out
    // before completions are scattered; a drain must not strand any.
    const int timeout_ms = handler.on_tick(drain_now, drain_now ? 50 : 500);
    drain_completions();
    reg.gauge(metric_names[kInflightGauge])
        .set(static_cast<std::int64_t>(
            inflight.load(std::memory_order_relaxed)));
    reg.gauge(metric_names[kConnectionsGauge])
        .set(static_cast<std::int64_t>(connections.size()));
    if (drain_now && drained()) break;

    const int n = epoll_wait(epoll.fd, events.data(),
                             static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sensible left to do
    }
    closed_in_batch.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd.fd) {
        std::uint64_t drainv = 0;
        while (::read(wake_fd.fd, &drainv, sizeof(drainv)) > 0) {
        }
        continue;  // completions are scattered every iteration
      }
      if (listener_open && fd == listener.fd()) {
        accept_ready();
        continue;
      }
      if (closed_in_batch.count(fd) != 0) continue;  // stale: fd reused
      if (connections.find(fd) == connections.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(fd);
        continue;
      }
      if (events[i].events & EPOLLIN) read_ready(fd);
      // read_ready may have closed the connection; re-find before writing.
      const auto it = connections.find(fd);
      if (it != connections.end() && (events[i].events & EPOLLOUT))
        flush(it->second);
    }
  }
  std::vector<int> fds;
  fds.reserve(connections.size());
  for (const auto& [fd, conn] : connections) fds.push_back(fd);
  for (const int fd : fds) close_connection(fd);
}

bool FrameLoop::Impl::drained() {
  if (inflight.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completion_mutex);
    if (!completions.empty()) return false;
  }
  for (const auto& [fd, conn] : connections)
    if (!conn.outq.empty()) return false;
  return true;
}

void FrameLoop::Impl::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listener.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the loop will retry
    }
    if (util::FaultHooks::consume_server_accept_failure()) {
      // Injected accept failure: the peer sees an immediate close, as if
      // the listener ran out of fds or reset under SYN pressure.
      ::close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conn.id = next_connection_id++;
    connection_fd[conn.id] = fd;
    connections.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll.fd, EPOLL_CTL_ADD, fd, &ev);
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
    count(kConnectionsAccepted);
  }
}

void FrameLoop::Impl::read_ready(int fd) {
  const auto it = connections.find(fd);
  if (it == connections.end()) return;
  if (util::FaultHooks::consume_server_recv_failure()) {
    // Injected hard recv error: drop the connection mid-stream.
    close_connection(fd);
    return;
  }
  Connection& conn = it->second;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
      count(kBytesRead, static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed
      close_connection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  consume_frames(fd);
}

void FrameLoop::Impl::consume_frames(int fd) {
  // The Connection must be re-looked-up after every dispatch: a reply
  // flush can hit a send error (peer reset mid-pipeline) and
  // close_connection() destroys the map entry, so any reference held
  // across dispatch dangles.
  auto it = connections.find(fd);
  if (it == connections.end()) return;
  const std::uint64_t conn_id = it->second.id;
  std::size_t offset = 0;
  while (!it->second.close_after_flush) {
    Connection& conn = it->second;
    Frame frame;
    std::size_t consumed = 0;
    const DecodeResult r =
        decode_frame(conn.inbuf.data() + offset, conn.inbuf.size() - offset,
                     &frame, &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kMalformed) {
      // The stream cannot be resynchronised: answer with a typed error
      // (request id unknown, so 0) and close once it is flushed.
      malformed_frames.fetch_add(1, std::memory_order_relaxed);
      count(kMalformedFrames);
      // Flag before enqueueing so the flush closes the socket as soon as
      // the error is written; return without touching `conn` again, as
      // that close may already have destroyed it.
      conn.close_after_flush = true;
      enqueue(conn, encode_error_frame(0, kDefaultDeviceId,
                                       WireCode::kMalformed,
                                       "unparseable frame"));
      return;
    }
    offset += consumed;
    dispatch(conn, std::move(frame));
    it = connections.find(fd);
    if (it == connections.end() || it->second.id != conn_id)
      return;  // closed (and possibly reused) during dispatch
  }
  if (offset > 0)
    it->second.inbuf.erase(
        it->second.inbuf.begin(),
        it->second.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
}

void FrameLoop::Impl::dispatch(Connection& conn, Frame frame) {
  if (!is_request(frame.type)) {
    enqueue(conn, encode_error_frame(frame.request_id, frame.device_id,
                                     WireCode::kUnsupportedType,
                                     std::string("not a request type: ") +
                                         message_type_name(frame.type)));
    return;
  }
  if (draining.load(std::memory_order_relaxed)) {
    if (frame.type == MessageType::kPingRequest) {
      // Readiness must stay observable *during* the drain: a load
      // balancer that cannot ping a draining node just sees it vanish.
      // PING is answered inline (no pool, no admission control, delay
      // ignored) so nothing can stall the drain, and the health payload
      // reports draining=1.
      enqueue(conn, encode_frame(MessageType::kPingReply, frame.request_id,
                                 frame.device_id, 0,
                                 encode_ping_reply(handler.health())));
      return;
    }
    shutdown_rejections.fetch_add(1, std::memory_order_relaxed);
    count(kShutdownRejections);
    enqueue(conn, encode_error_frame(frame.request_id, frame.device_id,
                                     WireCode::kShuttingDown,
                                     name + " is draining"));
    return;
  }
  handler.on_frame(conn.id, std::move(frame));
}

// --- replies ----------------------------------------------------------------

void FrameLoop::Impl::reply(std::uint64_t conn_id,
                            std::vector<std::uint8_t> bytes) {
  const auto it = connection_fd.find(conn_id);
  if (it == connection_fd.end()) return;  // connection died meanwhile
  const auto cit = connections.find(it->second);
  if (cit == connections.end()) return;
  enqueue(cit->second, std::move(bytes));
}

void FrameLoop::Impl::release(std::size_t n) {
  // Released only after the replies are queued, with release ordering:
  // drained() reads inflight (acquire) before the queue, so once it sees
  // the slot free it also sees the reply.
  inflight.fetch_sub(n, std::memory_order_release);
  wake();
}

void FrameLoop::Impl::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex);
    done.swap(completions);
  }
  for (Completion& c : done) reply(c.conn_id, std::move(c.bytes));
}

void FrameLoop::Impl::enqueue(Connection& conn,
                              std::vector<std::uint8_t> bytes) {
  conn.outq_bytes += bytes.size();
  conn.outq.push_back(std::move(bytes));
  flush(conn);
}

void FrameLoop::Impl::flush(Connection& conn) {
  while (!conn.outq.empty()) {
    if (util::FaultHooks::server_send_blocked()) break;  // injected EAGAIN
    if (util::FaultHooks::consume_server_send_failure()) {
      // Injected peer reset (test-only; see util::FaultHooks).
      close_connection(conn.fd);
      return;
    }
    const std::vector<std::uint8_t>& front = conn.outq.front();
    std::size_t left = front.size() - conn.out_offset;
    if (left > 1 && util::FaultHooks::consume_server_send_short()) {
      // Injected short write: the kernel "accepts" only a few bytes, so
      // the partial-write bookkeeping (out_offset, EPOLLOUT re-arm) runs
      // under test instead of only under a saturated socket buffer.
      left = std::min<std::size_t>(left, 8);
    }
    const ssize_t n = ::send(conn.fd, front.data() + conn.out_offset, left,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn.fd);
      return;
    }
    count(kBytesWritten, static_cast<std::uint64_t>(n));
    conn.out_offset += static_cast<std::size_t>(n);
    if (conn.out_offset == front.size()) {
      conn.outq_bytes -= front.size();
      conn.outq.pop_front();
      conn.out_offset = 0;
    }
  }
  if (conn.outq.empty() && conn.close_after_flush) {
    close_connection(conn.fd);
    return;
  }
  // Slow-peer bound: a reader that stopped draining while replies keep
  // arriving is disconnected here rather than growing the out-queue
  // without limit.  Workers are unaffected either way: they post under
  // completion_mutex and never touch a socket.
  if (max_backlog_bytes != 0 && conn.outq_bytes > max_backlog_bytes) {
    slow_peer_disconnects.fetch_add(1, std::memory_order_relaxed);
    count(kSlowPeerDisconnects);
    close_connection(conn.fd);
    return;
  }
  update_epoll(conn);
}

void FrameLoop::Impl::update_epoll(Connection& conn) {
  const bool want_write = !conn.outq.empty();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll.fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void FrameLoop::Impl::close_connection(int fd) {
  const auto it = connections.find(fd);
  if (it == connections.end()) return;
  const std::uint64_t conn_id = it->second.id;
  closed_in_batch.insert(fd);
  connection_fd.erase(conn_id);
  epoll_ctl(epoll.fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections.erase(it);
  count(kConnectionsClosed);
  handler.on_close(conn_id);
}

}  // namespace ppuf::net
