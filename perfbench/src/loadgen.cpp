#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "protocol/codec.hpp"

namespace perfbench {

using ppuf::util::Status;
namespace net = ppuf::net;

const char* op_name(OpType type) {
  switch (type) {
    case OpType::kVerify: return "verify";
    case OpType::kPredict: return "predict";
    case OpType::kChain: return "chain";
    case OpType::kEnroll: return "enroll";
  }
  return "?";
}

void Op::fingerprint(Fingerprint& fp) const {
  fp.u64(static_cast<std::uint64_t>(type));
  fp.u64(device != nullptr ? device->id : 0);
  fp.f64(due_s);
  switch (type) {
    case OpType::kPredict:
      fp.vec(net::encode_predict_request(challenge));
      break;
    case OpType::kVerify:
      fp.vec(net::encode_verify_request(verify->challenge, verify->report));
      break;
    case OpType::kEnroll:
      fp.vec(net::encode_enroll_request(enroll));
      break;
    case OpType::kChain:
      break;  // the server issues the challenge
  }
}

void execute(net::AuthClient& client, const Op& op, OpResult* out) {
  if (op.device != nullptr) client.set_device_id(op.device->id);
  const auto t0 = Clock::now();
  switch (op.type) {
    case OpType::kPredict:
      out->status = client.predict(op.challenge, &out->prediction);
      out->rtt_us = micros_since(t0);
      return;
    case OpType::kVerify:
      out->status =
          client.verify(op.verify->challenge, op.verify->report, &out->verdict);
      out->rtt_us = micros_since(t0);
      return;
    case OpType::kEnroll:
      client.set_device_id(0);
      out->status = client.enroll_device(op.enroll, 0, &out->enrolled_id);
      out->rtt_us = micros_since(t0);
      return;
    case OpType::kChain: {
      out->status = client.get_challenge(&out->grant);
      out->rtt_us = micros_since(t0);
      if (!out->status.is_ok()) return;
      // The holder's proof is not server time: it is excluded.
      out->chain_report = prove_chain(*op.device, out->grant.challenge,
                                      out->grant.chain_length, out->grant.nonce);
      const auto t1 = Clock::now();
      out->status =
          client.chained_auth(out->grant, out->chain_report, &out->chain_verdict);
      out->rtt_us += micros_since(t1);
      return;
    }
  }
}

void LoadResult::prepare(std::size_t slots, std::size_t per_slot) {
  conns.assign(slots, std::vector<Outcome>(per_slot));
  count.assign(slots, 0);
}

std::size_t LoadResult::size() const {
  std::size_t n = 0;
  for (std::size_t c : count) n += c;
  return n;
}

namespace {

/// Record `r` as outcome (conn, index); failures, rejected chains and,
/// when asked, every chain keep the full result.  Storage grows only past
/// the prepared size.
void record(LoadResult* out, std::uint32_t conn, std::uint32_t index,
            OpType type, OpResult&& r, std::mutex* kept_mutex) {
  Outcome o;
  o.conn = conn;
  o.index = index;
  o.code = r.status.code();
  o.accepted = type == OpType::kChain ? r.chain_verdict.accepted
                                      : r.verdict.accepted;
  o.bit = r.prediction.bit;
  o.flow_a = r.prediction.flow_a;
  o.flow_b = r.prediction.flow_b;
  o.rtt_us = r.rtt_us;
  o.lag_us = r.lag_us;
  o.enrolled_id = r.enrolled_id;
  auto& slot = out->conns[conn];
  std::size_t& n = out->count[conn];
  if (n < slot.size())
    slot[n] = o;
  else
    slot.push_back(o);
  ++n;
  if (!r.status.is_ok() ||
      (type == OpType::kChain &&
       (out->keep_chains || !r.chain_verdict.accepted))) {
    std::lock_guard<std::mutex> lock(*kept_mutex);
    out->kept.emplace(std::make_pair(conn, index), std::move(r));
  }
}

}  // namespace

std::vector<Executed> expand(const LoadResult& load, const OpLookup& lookup) {
  std::vector<Executed> out;
  out.reserve(load.size());
  for (std::size_t c = 0; c < load.conns.size(); ++c) {
    for (std::size_t i = 0; i < load.count[c]; ++i) {
      const Outcome& o = load.conns[c][i];
      Executed e{lookup(o.conn, o.index), {}};
      const auto kept = load.kept.find({o.conn, o.index});
      if (kept != load.kept.end()) {
        e.result = kept->second;
      } else {
        e.result.verdict.accepted = o.accepted;
        e.result.chain_verdict.accepted = o.accepted;
        e.result.prediction.bit = o.bit;
        e.result.prediction.flow_a = o.flow_a;
        e.result.prediction.flow_b = o.flow_b;
        e.result.enrolled_id = o.enrolled_id;
      }
      e.result.rtt_us = o.rtt_us;
      e.result.lag_us = o.lag_us;
      out.push_back(std::move(e));
    }
  }
  return out;
}

void run_closed_loop(std::uint16_t port, unsigned connections, double seconds,
                     const OpStream& stream, LoadResult* out) {
  std::vector<std::uint64_t> retries(connections, 0);
  std::mutex kept_mutex;
  const auto t0 = Clock::now();
  const auto stop_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions options;
      options.backoff_seed = 1 + c;
      net::AuthClient client("127.0.0.1", port, options);
      auto last = Clock::now();
      for (std::uint32_t i = 0; Clock::now() < stop_at; ++i) {
        const Op op = stream(c, i);
        OpResult r;
        r.lag_us = micros_since(last);
        execute(client, op, &r);
        last = Clock::now();
        record(out, c, i, op.type, std::move(r), &kept_mutex);
      }
      retries[c] = client.stats().retries;
    });
  }
  for (std::thread& t : threads) t.join();
  out->elapsed_s = seconds_since(t0);
  for (std::uint64_t r : retries) out->client_retries += r;
}

namespace {

/// The open loop's view of one in-flight frame.
struct Pending {
  std::size_t index = 0;
  bool chained = false;  ///< second leg of a chain session
  std::size_t conn = 0;
  Clock::time_point sent;
};

Status decode_reply(const net::Frame& frame, net::MessageType want,
                    const Op& op, bool chained, OpResult* r) {
  if (frame.type == net::MessageType::kErrorReply) {
    net::ErrorReply err;
    if (Status s = net::decode_error_reply(frame.payload, &err); !s.is_ok())
      return s;
    return net::wire_code_to_status(err.code, err.message);
  }
  if (frame.type != want)
    return Status::internal(std::string("unexpected reply type ") +
                            net::message_type_name(frame.type));
  switch (op.type) {
    case OpType::kPredict:
      return net::decode_predict_reply(frame.payload, &r->prediction);
    case OpType::kVerify:
      return net::decode_verify_reply(frame.payload, &r->verdict);
    case OpType::kChain:
      return chained ? net::decode_chained_auth_reply(frame.payload,
                                                      &r->chain_verdict)
                     : net::decode_challenge_reply(frame.payload, &r->grant);
    case OpType::kEnroll: {
      net::EnrollReplyBody body;
      Status s = net::decode_enroll_reply(frame.payload, &body);
      r->enrolled_id = body.device_id;
      return s;
    }
  }
  return Status::internal("unknown op");
}

}  // namespace

void run_open_loop(std::uint16_t port, unsigned connections,
                   const std::vector<Op>& schedule, double drain_s,
                   LoadResult* load) {
  // Results of the sessions in flight only: an op is recorded into the
  // prepared outcome storage as soon as it completes, so what the
  // generator holds does not grow with the length of the run.
  std::unordered_map<std::size_t, OpResult> live;
  std::mutex kept_mutex;
  const auto complete = [&](std::size_t index) {
    const auto it = live.find(index);
    record(load, 0, static_cast<std::uint32_t>(index), schedule[index].type,
           std::move(it->second), &kept_mutex);
    live.erase(it);
  };
  const auto finish = [&](double elapsed) {
    load->elapsed_s = elapsed;
    auto& slot = load->conns[0];
    std::sort(slot.begin(),
              slot.begin() + static_cast<std::ptrdiff_t>(load->count[0]),
              [](const Outcome& a, const Outcome& b) { return a.index < b.index; });
  };

  std::vector<net::Socket> socks(connections);
  for (unsigned c = 0; c < connections; ++c) {
    if (Status s = net::connect_tcp("127.0.0.1", port, 2000, &socks[c]);
        !s.is_ok()) {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        live[i].status = s;
        complete(i);
      }
      finish(0.0);
      return;
    }
  }
  std::vector<std::vector<std::uint8_t>> inbuf(connections);
  std::unordered_map<std::uint64_t, Pending> pending;
  // Sessions in flight per connection.  Each op goes to the connection
  // with the fewest (ties: round robin), so connections carry one request
  // at a time unless all four are busy -- the discipline of the
  // repository's synchronous AuthClient.
  std::vector<int> in_flight(connections, 0);
  std::uint64_t next_request_id = 1;
  const auto lead = std::chrono::milliseconds(20);
  const auto start = Clock::now() + lead;
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].due_s));
  };
  const auto io_deadline = ppuf::util::Deadline::after_seconds(
      (schedule.empty() ? 0.0 : schedule.back().due_s) + drain_s + 5.0);

  const auto send = [&](std::size_t index, bool chained, std::size_t conn,
                        net::MessageType type,
                        const std::vector<std::uint8_t>& payload) {
    const Op& op = schedule[index];
    const std::uint64_t id = next_request_id++;
    const std::vector<std::uint8_t> frame = net::encode_frame(
        type, id, op.device != nullptr ? op.device->id : 0, 0, payload);
    Pending p{index, chained, conn, Clock::now()};
    if (Status s = net::send_all(socks[conn].fd(), frame.data(), frame.size(),
                                 io_deadline);
        !s.is_ok()) {
      live[index].status = s;
      return false;
    }
    pending.emplace(id, p);
    return true;
  };

  std::size_t next = 0;
  const auto issue = [&](std::size_t i) {
    const Op& op = schedule[i];
    live[i].lag_us = micros_since(due(i));
    std::size_t conn = i % connections;
    for (std::size_t k = 1; k < connections; ++k) {
      const std::size_t c = (i + k) % connections;
      if (in_flight[c] < in_flight[conn]) conn = c;
    }
    bool sent = false;
    switch (op.type) {
      case OpType::kPredict:
        sent = send(i, false, conn, net::MessageType::kPredictRequest,
                    net::encode_predict_request(op.challenge));
        break;
      case OpType::kVerify:
        sent = send(i, false, conn, net::MessageType::kVerifyRequest,
                    net::encode_verify_request(op.verify->challenge,
                                               op.verify->report));
        break;
      case OpType::kChain:
        sent = send(i, false, conn, net::MessageType::kChallengeRequest,
                    net::encode_challenge_request());
        break;
      case OpType::kEnroll:
        sent = send(i, false, conn, net::MessageType::kEnrollRequest,
                    net::encode_enroll_request(op.enroll));
        break;
    }
    if (sent)
      ++in_flight[conn];
    else
      complete(i);
  };

  const auto on_frame = [&](const net::Frame& frame) {
    const auto it = pending.find(frame.request_id);
    if (it == pending.end()) return;  // unmatched: its op stays unanswered
    const Pending p = it->second;
    pending.erase(it);
    const Op& op = schedule[p.index];
    OpResult& r = live[p.index];
    net::MessageType want = net::MessageType::kErrorReply;
    switch (op.type) {
      case OpType::kPredict: want = net::MessageType::kPredictReply; break;
      case OpType::kVerify: want = net::MessageType::kVerifyReply; break;
      case OpType::kEnroll: want = net::MessageType::kEnrollReply; break;
      case OpType::kChain:
        want = p.chained ? net::MessageType::kChainedAuthReply
                         : net::MessageType::kChallengeReply;
        break;
    }
    r.status = decode_reply(frame, want, op, p.chained, &r);
    if (op.type == OpType::kChain && !p.chained) {
      r.rtt_us = micros_since(due(p.index));
      if (r.status.is_ok()) {
        // Holder proof, excluded from the session's time.
        r.chain_report = prove_chain(*op.device, r.grant.challenge,
                                     r.grant.chain_length, r.grant.nonce);
        net::ChainedAuthRequest req{r.grant, r.chain_report};
        if (send(p.index, true, p.conn, net::MessageType::kChainedAuthRequest,
                 net::encode_chained_auth_request(req)))
          return;  // the session continues on this connection
      }
      --in_flight[p.conn];
      complete(p.index);
      return;
    }
    --in_flight[p.conn];
    r.rtt_us = op.type == OpType::kChain ? r.rtt_us + micros_since(p.sent)
                                         : micros_since(due(p.index));
    complete(p.index);
  };

  std::vector<pollfd> fds(connections);
  for (unsigned c = 0; c < connections; ++c)
    fds[c] = pollfd{socks[c].fd(), POLLIN, 0};
  const auto t0 = Clock::now();
  Clock::time_point drain_until = Clock::time_point::max();
  std::vector<std::uint8_t> chunk(1 << 16);
  while (true) {
    const auto now = Clock::now();
    while (next < schedule.size() && now >= due(next)) issue(next++);
    if (next == schedule.size()) {
      if (drain_until == Clock::time_point::max())
        drain_until = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(drain_s));
      if (pending.empty() || now >= drain_until) break;
    }
    const auto wake = next < schedule.size() ? due(next) : drain_until;
    const auto wait = std::max<Clock::duration>(
        Clock::duration::zero(),
        std::min<Clock::duration>(wake - now, std::chrono::milliseconds(50)));
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (unsigned c = 0; c < connections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      while (true) {
        const ssize_t n =
            ::recv(fds[c].fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
        if (n <= 0) break;
        inbuf[c].insert(inbuf[c].end(), chunk.begin(), chunk.begin() + n);
      }
      std::size_t offset = 0;
      while (true) {
        net::Frame frame;
        std::size_t consumed = 0;
        const net::DecodeResult d = net::decode_frame(
            inbuf[c].data() + offset, inbuf[c].size() - offset, &frame,
            &consumed);
        if (d != net::DecodeResult::kOk) break;
        offset += consumed;
        on_frame(frame);
      }
      inbuf[c].erase(inbuf[c].begin(),
                     inbuf[c].begin() + static_cast<std::ptrdiff_t>(offset));
    }
  }
  const double elapsed = seconds_since(t0);
  for (const auto& [id, p] : pending) {
    live[p.index].status =
        Status::deadline_exceeded("no reply within the drain window");
    complete(p.index);
  }
  finish(elapsed);
}

}  // namespace perfbench
