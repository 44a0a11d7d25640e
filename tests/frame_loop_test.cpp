// Direct tests of net::FrameLoop, the event loop under both AuthServer and
// the fleet Gateway, driven with a trivial echo handler over loopback.
//
// The echo handler answers every request frame with the matching reply
// type and the same payload, either inline on the loop thread or, in
// "hold" mode, by admitting the frame and posting the answer later from
// the test thread — the shape of a worker-pool service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "util/fault_hooks.hpp"
#include "util/status.hpp"

namespace ppuf {
namespace {

using net::Frame;
using net::FrameLoop;
using net::MessageType;
using net::WireCode;

MessageType reply_type_for(MessageType request) {
  return static_cast<MessageType>(static_cast<std::uint16_t>(request) + 100);
}

struct EchoHandler final : FrameLoop::Handler {
  FrameLoop* loop = nullptr;
  std::atomic<bool> hold{false};  ///< admit and keep instead of answering
  std::atomic<int> closes{0};
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, Frame>> held;

  void on_frame(std::uint64_t conn_id, Frame frame) override {
    if (hold.load()) {
      loop->admit();
      std::lock_guard<std::mutex> lock(mutex);
      held.emplace_back(conn_id, std::move(frame));
      return;
    }
    loop->reply(conn_id, echo(frame));
  }
  void on_close(std::uint64_t) override { closes.fetch_add(1); }
  net::HealthInfo health() const override {
    net::HealthInfo h;
    h.inflight = static_cast<std::uint32_t>(loop->inflight());
    return h;
  }

  static std::vector<std::uint8_t> echo(const Frame& frame) {
    return net::encode_frame(reply_type_for(frame.type), frame.request_id,
                             frame.device_id, 0, frame.payload);
  }
  std::size_t held_count() {
    std::lock_guard<std::mutex> lock(mutex);
    return held.size();
  }
  /// Post the answers to every held frame, as a worker pool would.
  void release_held() {
    std::vector<std::pair<std::uint64_t, Frame>> done;
    {
      std::lock_guard<std::mutex> lock(mutex);
      done.swap(held);
    }
    for (const auto& [conn_id, frame] : done) loop->post(conn_id, echo(frame));
  }
};

/// A FrameLoop on an ephemeral port, running on its own thread.
struct LoopUnderTest {
  explicit LoopUnderTest(std::size_t max_backlog_bytes = 4 << 20)
      : loop("loop_test", max_backlog_bytes, draining, handler) {
    handler.loop = &loop;
  }
  ~LoopUnderTest() { stop(); }

  util::Status start() {
    if (util::Status s = loop.open(0, 16, &port); !s.is_ok()) return s;
    thread = std::thread([this] { loop.run(); });
    return util::Status::ok();
  }
  void stop() {
    loop.request_drain();
    handler.release_held();  // a drain waits for admitted frames
    if (thread.joinable()) thread.join();
  }

  EchoHandler handler;
  std::atomic<bool> draining{false};
  FrameLoop loop;
  std::thread thread;
  std::uint16_t port = 0;
};

net::Socket connect_to(const LoopUnderTest& t) {
  net::Socket sock;
  EXPECT_TRUE(net::connect_tcp("127.0.0.1", t.port, 2000, &sock).is_ok());
  return sock;
}

void send_bytes(const net::Socket& sock,
                const std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(net::send_all(sock.fd(), bytes.data(), bytes.size(),
                            util::Deadline::after_seconds(5.0))
                  .is_ok());
}

Frame read_reply(const net::Socket& sock) {
  Frame reply;
  EXPECT_TRUE(
      net::read_frame(sock.fd(), &reply, util::Deadline::after_seconds(5.0))
          .is_ok());
  return reply;
}

net::ErrorReply error_of(const Frame& reply) {
  net::ErrorReply err;
  EXPECT_EQ(reply.type, MessageType::kErrorReply);
  EXPECT_TRUE(net::decode_error_reply(reply.payload, &err).is_ok());
  return err;
}

bool peer_closed(const net::Socket& sock) {
  std::uint8_t byte = 0;
  return !net::recv_exact(sock.fd(), &byte, 1,
                          util::Deadline::after_seconds(5.0))
              .is_ok();
}

std::vector<std::uint8_t> predict_frame(std::uint64_t request_id,
                                        std::vector<std::uint8_t> payload) {
  return net::encode_frame(MessageType::kPredictRequest, request_id, 7, 0,
                           payload);
}

TEST(FrameLoop, EchoesRequestsInline) {
  LoopUnderTest t;
  ASSERT_TRUE(t.start().is_ok());
  net::Socket sock = connect_to(t);
  send_bytes(sock, predict_frame(11, {1, 2, 3}));
  const Frame reply = read_reply(sock);
  EXPECT_EQ(reply.type, MessageType::kPredictReply);
  EXPECT_EQ(reply.request_id, 11u);
  EXPECT_EQ(reply.device_id, 7u);
  EXPECT_EQ(reply.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(t.loop.stats().connections_accepted, 1u);
}

TEST(FrameLoop, MalformedStreamGetsTypedErrorThenClose) {
  LoopUnderTest t;
  ASSERT_TRUE(t.start().is_ok());
  net::Socket sock = connect_to(t);
  send_bytes(sock, std::vector<std::uint8_t>(net::kHeaderSize, 0x58));
  const Frame reply = read_reply(sock);
  EXPECT_EQ(reply.request_id, 0u);
  EXPECT_EQ(error_of(reply).code, WireCode::kMalformed);
  EXPECT_TRUE(peer_closed(sock));
  t.stop();
  EXPECT_EQ(t.loop.stats().malformed_frames, 1u);
  EXPECT_EQ(t.handler.closes.load(), 1);
}

TEST(FrameLoop, ReplyTypeSentAsRequestGetsUnsupported) {
  LoopUnderTest t;
  ASSERT_TRUE(t.start().is_ok());
  net::Socket sock = connect_to(t);
  send_bytes(sock, net::encode_frame(MessageType::kPingReply, 3, 0, 0, {}));
  const Frame reply = read_reply(sock);
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_EQ(error_of(reply).code, WireCode::kUnsupportedType);
  // Framing survived, so the connection stays usable.
  send_bytes(sock, predict_frame(4, {9}));
  EXPECT_EQ(read_reply(sock).type, MessageType::kPredictReply);
}

TEST(FrameLoop, SlowReaderIsCutOffAtBacklogCapAndCounted) {
  LoopUnderTest t(/*max_backlog_bytes=*/256);
  ASSERT_TRUE(t.start().is_ok());
  // Every send on the loop reports EAGAIN, as for a peer that stopped
  // reading, so the echo replies pile up in the connection's out-queue.
  util::FaultHooks::instance().server_send_block.store(true);
  net::Socket slow = connect_to(t);
  // One burst: the echo is inline, so the loop may cut the peer off
  // before a later, separate send.
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    const std::vector<std::uint8_t> f =
        predict_frame(id, std::vector<std::uint8_t>(64, 1));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  send_bytes(slow, burst);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::seconds(5);
  while (t.loop.stats().slow_peer_disconnects == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  util::FaultHooks::instance().server_send_block.store(false);
  EXPECT_EQ(t.loop.stats().slow_peer_disconnects, 1u);
  EXPECT_TRUE(peer_closed(slow));

  // The loop itself is fine: another connection is served.
  net::Socket healthy = connect_to(t);
  send_bytes(healthy, predict_frame(99, {}));
  EXPECT_EQ(read_reply(healthy).request_id, 99u);
}

TEST(FrameLoop, DrainAnswersPingRefusesRestAndFlushesLatePosts) {
  LoopUnderTest t;
  ASSERT_TRUE(t.start().is_ok());
  t.handler.hold.store(true);
  net::Socket sock = connect_to(t);
  send_bytes(sock, predict_frame(1, {42}));
  for (int i = 0; i < 500 && t.handler.held_count() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(t.handler.held_count(), 1u);
  EXPECT_EQ(t.loop.inflight(), 1u);

  t.loop.request_drain();
  // PING is answered inline with the handler's health report...
  send_bytes(sock, net::encode_frame(MessageType::kPingRequest, 2, 0, 0,
                                     net::encode_ping_request(0)));
  Frame reply = read_reply(sock);
  ASSERT_EQ(reply.type, MessageType::kPingReply);
  EXPECT_EQ(reply.request_id, 2u);
  net::HealthInfo health;
  ASSERT_TRUE(net::decode_ping_reply(reply.payload, &health).is_ok());
  EXPECT_EQ(health.inflight, 1u);
  // ...everything else is refused typed.
  send_bytes(sock, predict_frame(3, {}));
  reply = read_reply(sock);
  EXPECT_EQ(reply.request_id, 3u);
  const net::ErrorReply err = error_of(reply);
  EXPECT_EQ(err.code, WireCode::kShuttingDown);
  EXPECT_EQ(err.message, "loop_test is draining");
  EXPECT_EQ(t.handler.held_count(), 1u);  // the refusal never reached it

  // Work admitted before the drain is still answered when its completion
  // is posted after the drain began; only then does the loop exit.
  t.handler.release_held();
  reply = read_reply(sock);
  EXPECT_EQ(reply.type, MessageType::kPredictReply);
  EXPECT_EQ(reply.request_id, 1u);
  EXPECT_EQ(reply.payload, std::vector<std::uint8_t>{42});
  EXPECT_TRUE(peer_closed(sock));
  t.thread.join();
  EXPECT_EQ(t.loop.stats().shutdown_rejections, 1u);
  EXPECT_EQ(t.loop.inflight(), 0u);
}

TEST(FrameLoop, PipelinedFramesSplitAcrossRecvBoundaries) {
  LoopUnderTest t;
  ASSERT_TRUE(t.start().is_ok());
  net::Socket sock = connect_to(t);
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const std::vector<std::uint8_t> f =
        predict_frame(id, std::vector<std::uint8_t>(10 * id, 0xA0 + id));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // Dribble the three frames in 7-byte pieces, so frame boundaries and
  // header fields straddle the loop's reads.
  for (std::size_t at = 0; at < stream.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - at);
    send_bytes(sock, std::vector<std::uint8_t>(stream.begin() + at,
                                               stream.begin() + at + n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const Frame reply = read_reply(sock);
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.payload, std::vector<std::uint8_t>(10 * id, 0xA0 + id));
  }
  EXPECT_EQ(t.loop.stats().malformed_frames, 0u);
}

}  // namespace
}  // namespace ppuf
