// Tests for protocol::codec and net/wire: canonical binary round trips,
// strict framing, and fuzz-style robustness.
//
// The fuzz sections are the decoder's safety contract: every payload and
// frame decoder consumes adversary bytes, so for EVERY byte offset of a
// valid message we check that (a) truncating there yields a typed error —
// never a crash, never an over-read — and (b) flipping bits there yields
// either a typed error or a clean decode of different values.  CI runs
// this binary under ASan/UBSan, which turns "never over-reads" from a
// claim into a checked property.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "net/wire.hpp"
#include "ppuf/ppuf.hpp"
#include "protocol/codec.hpp"
#include "registry/record.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ppuf {
namespace {

using net::DecodeResult;
using net::Frame;
using net::MessageType;
using net::WireCode;
using protocol::codec::Reader;
using protocol::codec::Writer;
using util::Status;
using util::StatusCode;

Challenge sample_challenge() {
  Challenge c;
  c.source = 3;
  c.sink = 7;
  c.bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  return c;
}

protocol::ProverReport sample_report() {
  protocol::ProverReport r;
  r.bit = 1;
  r.flow_a = 2.5e-8;
  r.flow_b = 1.25e-8;
  r.edge_flow_a = {1e-9, 0.0, 2e-9, 3e-9};
  r.edge_flow_b = {0.0, 4e-9};
  r.elapsed_seconds = 1e-6;
  r.status = Status::ok();
  return r;
}

protocol::ChainedReport sample_chained_report() {
  protocol::ChainedReport r;
  r.rounds = {sample_report(), sample_report()};
  r.rounds[1].bit = 0;
  r.elapsed_seconds = 2e-6;
  r.status = Status::deadline_exceeded("stopped at round 2");
  return r;
}

net::ChallengeGrant sample_grant() {
  net::ChallengeGrant g;
  g.challenge = sample_challenge();
  g.chain_length = 4;
  g.nonce = 0xdeadbeefcafe1234ull;
  g.deadline_seconds = 0.75;
  return g;
}

// ------------------------------------------------------------- codec basics

TEST(Codec, ChallengeRoundTrip) {
  const Challenge in = sample_challenge();
  Writer w;
  protocol::codec::encode_challenge(w, in);
  Reader r(w.bytes().data(), w.bytes().size());
  Challenge out;
  ASSERT_TRUE(protocol::codec::decode_challenge(r, &out).is_ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(in, out);
}

TEST(Codec, ChallengeRejectsNonBinaryBits) {
  Challenge bad = sample_challenge();
  bad.bits[2] = 2;
  Writer w;
  protocol::codec::encode_challenge(w, bad);
  Reader r(w.bytes().data(), w.bytes().size());
  Challenge out;
  const Status s = protocol::codec::decode_challenge(r, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Codec, StatusRoundTripAllCodes) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kCancelled,
        StatusCode::kDeadlineExceeded, StatusCode::kInvalidArgument,
        StatusCode::kInternal, StatusCode::kUnavailable,
        StatusCode::kNotFound}) {
    const Status in(code, code == StatusCode::kOk ? "" : "reason text");
    Writer w;
    protocol::codec::encode_status(w, in);
    Reader r(w.bytes().data(), w.bytes().size());
    Status out;
    ASSERT_TRUE(protocol::codec::decode_status(r, &out).is_ok());
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
}

TEST(Codec, ProverReportRoundTrip) {
  const protocol::ProverReport in = sample_report();
  Writer w;
  protocol::codec::encode_prover_report(w, in);
  Reader r(w.bytes().data(), w.bytes().size());
  protocol::ProverReport out;
  ASSERT_TRUE(protocol::codec::decode_prover_report(r, &out).is_ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(out.bit, in.bit);
  EXPECT_EQ(out.flow_a, in.flow_a);
  EXPECT_EQ(out.flow_b, in.flow_b);
  EXPECT_EQ(out.edge_flow_a, in.edge_flow_a);
  EXPECT_EQ(out.edge_flow_b, in.edge_flow_b);
  EXPECT_EQ(out.elapsed_seconds, in.elapsed_seconds);
  EXPECT_EQ(out.status.code(), in.status.code());
}

TEST(Codec, ChainedReportRoundTrip) {
  const protocol::ChainedReport in = sample_chained_report();
  Writer w;
  protocol::codec::encode_chained_report(w, in);
  Reader r(w.bytes().data(), w.bytes().size());
  protocol::ChainedReport out;
  ASSERT_TRUE(protocol::codec::decode_chained_report(r, &out).is_ok());
  ASSERT_EQ(out.rounds.size(), in.rounds.size());
  EXPECT_EQ(out.rounds[0].bit, in.rounds[0].bit);
  EXPECT_EQ(out.rounds[1].bit, in.rounds[1].bit);
  EXPECT_EQ(out.elapsed_seconds, in.elapsed_seconds);
  EXPECT_EQ(out.status.code(), in.status.code());
  EXPECT_EQ(out.status.message(), in.status.message());
}

TEST(Codec, PredictionRoundTrip) {
  SimulationModel::Prediction in;
  in.bit = 1;
  in.flow_a = 3.25e-8;
  in.flow_b = 3.5e-8;
  in.status = Status::ok();
  Writer w;
  protocol::codec::encode_prediction(w, in);
  Reader r(w.bytes().data(), w.bytes().size());
  SimulationModel::Prediction out;
  ASSERT_TRUE(protocol::codec::decode_prediction(r, &out).is_ok());
  EXPECT_EQ(out.bit, in.bit);
  EXPECT_EQ(out.flow_a, in.flow_a);
  EXPECT_EQ(out.flow_b, in.flow_b);
}

TEST(Codec, AuthResultRoundTrip) {
  protocol::AuthenticationResult in;
  in.accepted = false;
  in.flows_valid = true;
  in.bit_consistent = true;
  in.in_time = false;
  in.detail = "missed the deadline";
  Writer w;
  protocol::codec::encode_auth_result(w, in);
  Reader r(w.bytes().data(), w.bytes().size());
  protocol::AuthenticationResult out;
  ASSERT_TRUE(protocol::codec::decode_auth_result(r, &out).is_ok());
  EXPECT_EQ(out.accepted, in.accepted);
  EXPECT_EQ(out.flows_valid, in.flows_valid);
  EXPECT_EQ(out.bit_consistent, in.bit_consistent);
  EXPECT_EQ(out.in_time, in.in_time);
  EXPECT_EQ(out.detail, in.detail);
}

TEST(Codec, TrailingGarbageIsNotExhausted) {
  Writer w;
  protocol::codec::encode_challenge(w, sample_challenge());
  w.u8(0xff);  // one stray byte
  Reader r(w.bytes().data(), w.bytes().size());
  Challenge out;
  ASSERT_TRUE(protocol::codec::decode_challenge(r, &out).is_ok());
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Codec, ReaderIsStickyAfterFailure) {
  const std::vector<std::uint8_t> two = {0x01, 0x02};
  Reader r(two.data(), two.size());
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(&v));  // over-read attempt
  EXPECT_TRUE(r.failed());
  std::uint8_t b = 0;
  EXPECT_FALSE(r.u8(&b));  // sticky: even in-bounds reads fail now
}

// -------------------------------------------------------------- report files

TEST(CodecFiles, ChainedReportFileRoundTrip) {
  const protocol::ChainedReport in = sample_chained_report();
  std::stringstream file;
  protocol::codec::write_chained_report(file, in);
  protocol::ChainedReport out;
  ASSERT_TRUE(protocol::codec::read_chained_report(file, &out).is_ok());
  ASSERT_EQ(out.rounds.size(), in.rounds.size());
  EXPECT_EQ(out.rounds[0].flow_a, in.rounds[0].flow_a);
  EXPECT_EQ(out.status.code(), in.status.code());
}

TEST(CodecFiles, WireAndFileShareOneEncoding) {
  // The satellite invariant: a report saved to disk and a report framed
  // for the wire must be byte-identical payloads.
  const protocol::ChainedReport report = sample_chained_report();
  Writer w;
  protocol::codec::encode_chained_report(w, report);
  std::stringstream file;
  protocol::codec::write_chained_report(file, report);
  const std::string on_disk = file.str();
  const std::string payload(w.bytes().begin(), w.bytes().end());
  ASSERT_GT(on_disk.size(), payload.size());  // file adds magic + length
  EXPECT_NE(on_disk.find(payload), std::string::npos);
}

TEST(CodecFiles, BadMagicIsTypedError) {
  std::stringstream file;
  protocol::codec::write_chained_report(file, sample_chained_report());
  std::string bytes = file.str();
  bytes[0] ^= 0x5a;
  std::stringstream corrupted(bytes);
  protocol::ChainedReport out;
  const Status s = protocol::codec::read_chained_report(corrupted, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CodecFiles, TruncatedFileIsTypedError) {
  std::stringstream file;
  protocol::codec::write_chained_report(file, sample_chained_report());
  const std::string bytes = file.str();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream truncated(bytes.substr(0, len));
    protocol::ChainedReport out;
    const Status s = protocol::codec::read_chained_report(truncated, &out);
    EXPECT_FALSE(s.is_ok()) << "prefix of " << len << " bytes decoded";
  }
}

// ------------------------------------------------------------------ framing

TEST(Wire, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = net::encode_ping_request(17);
  const std::vector<std::uint8_t> bytes = net::encode_frame(
      MessageType::kPingRequest, 42, 5, 250, payload);
  ASSERT_EQ(bytes.size(), net::kHeaderSize + payload.size());
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(f.type, MessageType::kPingRequest);
  EXPECT_EQ(f.request_id, 42u);
  EXPECT_EQ(f.device_id, 5u);
  EXPECT_EQ(f.budget_ms, 250u);
  EXPECT_EQ(f.payload, payload);
  std::uint32_t delay = 0;
  ASSERT_TRUE(net::decode_ping_request(f.payload, &delay).is_ok());
  EXPECT_EQ(delay, 17u);
}

TEST(Wire, DeviceIdRoundTripsAtFullWidth) {
  // The device id is a full u64 header field: the registry never reuses
  // ids, so a long-lived deployment can reach arbitrary values.
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{1},
        std::uint64_t{0xffffffffull} + 1, ~std::uint64_t{0}}) {
    const std::vector<std::uint8_t> bytes =
        net::encode_frame(MessageType::kChallengeRequest, 1, id, 0,
                          net::encode_challenge_request());
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(f.device_id, id);
  }
}

TEST(Wire, EmptyPayloadFrame) {
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(MessageType::kPingReply, 7, 0, 0, {});
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, net::kHeaderSize);
  EXPECT_TRUE(f.payload.empty());
}

TEST(Wire, TwoFramesDecodeSequentially) {
  std::vector<std::uint8_t> stream =
      net::encode_frame(MessageType::kPingRequest, 1, 0, 0,
                        net::encode_ping_request(0));
  const std::vector<std::uint8_t> second =
      net::encode_frame(MessageType::kChallengeRequest, 2, 3, 0,
                        net::encode_challenge_request());
  stream.insert(stream.end(), second.begin(), second.end());

  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(stream.data(), stream.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(f.request_id, 1u);
  const std::size_t first_len = consumed;
  ASSERT_EQ(net::decode_frame(stream.data() + first_len,
                              stream.size() - first_len, &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(f.request_id, 2u);
  EXPECT_EQ(f.device_id, 3u);
  EXPECT_EQ(first_len + consumed, stream.size());
}

TEST(Wire, BadMagicIsMalformed) {
  std::vector<std::uint8_t> bytes =
      net::encode_frame(MessageType::kPingRequest, 1, 0, 0, {});
  bytes[0] ^= 0xff;
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(Wire, UnknownVersionIsMalformed) {
  std::vector<std::uint8_t> bytes =
      net::encode_frame(MessageType::kPingRequest, 1, 0, 0, {});
  bytes[4] = 0x7f;  // version low byte
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(Wire, OversizedPayloadLengthIsMalformed) {
  std::vector<std::uint8_t> bytes =
      net::encode_frame(MessageType::kPingRequest, 1, 0, 0, {});
  // payload_len field: header bytes 28..31, little-endian.
  bytes[28] = 0xff;
  bytes[29] = 0xff;
  bytes[30] = 0xff;
  bytes[31] = 0x7f;
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kMalformed);
}

TEST(Wire, ErrorReplyRoundTrip) {
  net::ErrorReply in;
  in.code = WireCode::kOverloaded;
  in.message = "64 in flight";
  const std::vector<std::uint8_t> payload = net::encode_error_reply(in);
  net::ErrorReply out;
  ASSERT_TRUE(net::decode_error_reply(payload, &out).is_ok());
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);
}

TEST(Wire, PingReplyHealthRoundTrip) {
  net::HealthInfo in;
  in.inflight = 7;
  in.max_inflight = 64;
  in.draining = 1;
  in.requests_served = 123456789ull;
  in.connections_accepted = 42;
  const std::vector<std::uint8_t> payload = net::encode_ping_reply(in);
  net::HealthInfo out;
  ASSERT_TRUE(net::decode_ping_reply(payload, &out).is_ok());
  EXPECT_EQ(out.inflight, in.inflight);
  EXPECT_EQ(out.max_inflight, in.max_inflight);
  EXPECT_EQ(out.draining, in.draining);
  EXPECT_EQ(out.requests_served, in.requests_served);
  EXPECT_EQ(out.connections_accepted, in.connections_accepted);
}

TEST(Wire, PingReplyEmptyPayloadIsLegacyDefaults) {
  // A pre-health server answers PING with an empty payload; the client
  // must accept it as an all-defaults health report, not a typed error.
  net::HealthInfo out;
  out.inflight = 99;
  ASSERT_TRUE(net::decode_ping_reply({}, &out).is_ok());
  EXPECT_EQ(out.inflight, 0u);
  EXPECT_EQ(out.draining, 0);
}

TEST(Wire, PingReplyTruncationIsTypedError) {
  net::HealthInfo in;
  in.inflight = 3;
  in.max_inflight = 8;
  in.requests_served = 17;
  in.connections_accepted = 2;
  in.device_count = 12;
  in.wal_epoch = 0x99;
  in.wal_offset = 512;
  const std::vector<std::uint8_t> payload = net::encode_ping_reply(in);
  // The reply has exactly two legal lengths: the pre-fleet core (25
  // bytes: inflight, max_inflight, draining, requests, connections) and
  // the full fleet form (core + device_count/wal_epoch/wal_offset).  Any
  // other strict prefix is a typed error; a partial fleet block must not
  // half-decode.
  constexpr std::size_t kLegacyLen = 4 + 4 + 1 + 8 + 8;
  ASSERT_GT(payload.size(), kLegacyLen);
  for (std::size_t len = 1; len < payload.size(); ++len) {
    const std::vector<std::uint8_t> cut(payload.begin(),
                                        payload.begin() + len);
    net::HealthInfo out;
    if (len == kLegacyLen) {
      ASSERT_TRUE(net::decode_ping_reply(cut, &out).is_ok());
      EXPECT_EQ(out.requests_served, in.requests_served);
      EXPECT_EQ(out.device_count, 0u);  // fleet fields default, not junk
      EXPECT_EQ(out.wal_epoch, 0u);
      continue;
    }
    EXPECT_FALSE(net::decode_ping_reply(cut, &out).is_ok())
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too: decoders consume bytes exactly.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  net::HealthInfo out;
  EXPECT_FALSE(net::decode_ping_reply(padded, &out).is_ok());
}

TEST(Wire, EnrollRequestTruncationIsTypedError) {
  net::EnrollRequestBody in;
  in.node_count = 24;
  in.grid_size = 6;
  in.fabrication_seed = 0x1234567890abcdefull;
  in.label = "fuzz-card";
  in.backend = static_cast<std::uint8_t>(backend::BackendKind::kPdlDelay);
  const std::vector<std::uint8_t> payload = net::encode_enroll_request(in);
  // Like ping_reply, the request has exactly two legal lengths: the v1
  // body (node_count, grid_size, seed, label — implies max-flow) and the
  // full tagged form.  Every other strict prefix is a typed error.
  const std::size_t v1_len = payload.size() - 1;
  for (std::size_t len = 1; len < payload.size(); ++len) {
    const std::vector<std::uint8_t> cut(payload.begin(),
                                        payload.begin() + len);
    net::EnrollRequestBody out;
    const Status s = net::decode_enroll_request(cut, &out);
    if (len == v1_len) {
      ASSERT_TRUE(s.is_ok()) << "v1 prefix must decode";
      EXPECT_EQ(out.backend, 1);  // untagged means max-flow
      EXPECT_EQ(out.label, in.label);
      continue;
    }
    EXPECT_FALSE(s.is_ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "prefix " << len << " not a typed error";
  }
  // Trailing garbage after the backend byte is rejected.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  net::EnrollRequestBody out;
  EXPECT_FALSE(net::decode_enroll_request(padded, &out).is_ok());
}

TEST(Wire, ChallengeGrantRoundTrip) {
  const net::ChallengeGrant in = sample_grant();
  const std::vector<std::uint8_t> payload = net::encode_challenge_reply(in);
  net::ChallengeGrant out;
  ASSERT_TRUE(net::decode_challenge_reply(payload, &out).is_ok());
  EXPECT_EQ(out.challenge, in.challenge);
  EXPECT_EQ(out.chain_length, in.chain_length);
  EXPECT_EQ(out.nonce, in.nonce);
  EXPECT_EQ(out.deadline_seconds, in.deadline_seconds);
}

TEST(Wire, ChainedAuthRequestRoundTrip) {
  net::ChainedAuthRequest in;
  in.grant = sample_grant();
  in.report = sample_chained_report();
  const std::vector<std::uint8_t> payload =
      net::encode_chained_auth_request(in);
  net::ChainedAuthRequest out;
  ASSERT_TRUE(net::decode_chained_auth_request(payload, &out).is_ok());
  EXPECT_EQ(out.grant.nonce, in.grant.nonce);
  EXPECT_EQ(out.report.rounds.size(), in.report.rounds.size());
}

TEST(Wire, VerifyBatchRoundTrip) {
  const std::vector<Challenge> challenges{sample_challenge(),
                                          sample_challenge()};
  const std::vector<protocol::ProverReport> reports{sample_report(),
                                                    sample_report()};
  const std::vector<std::uint8_t> payload =
      net::encode_verify_batch_request(challenges, reports);
  std::vector<Challenge> out_c;
  std::vector<protocol::ProverReport> out_r;
  ASSERT_TRUE(
      net::decode_verify_batch_request(payload, &out_c, &out_r).is_ok());
  ASSERT_EQ(out_c.size(), 2u);
  ASSERT_EQ(out_r.size(), 2u);
  EXPECT_EQ(out_c[0], challenges[0]);
  EXPECT_EQ(out_r[1].flow_b, reports[1].flow_b);
}

TEST(Wire, OversizedPayloadBecomesTypedErrorFrame) {
  // encode_frame must never emit a frame the receiver is guaranteed to
  // reject (which desynchronises the stream): an oversized payload is
  // replaced by a typed kInternal error carrying the same request id.
  const std::vector<std::uint8_t> huge(net::kMaxPayload + 1, 0xab);
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(MessageType::kVerifyBatchReply, 42, 0, 7, huge);
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(f.type, MessageType::kErrorReply);
  EXPECT_EQ(f.request_id, 42u);
  net::ErrorReply err;
  ASSERT_TRUE(net::decode_error_reply(f.payload, &err).is_ok());
  EXPECT_EQ(err.code, WireCode::kInternal);
}

TEST(Wire, VerifyBatchEncoderClampsMismatchedLengths) {
  // The encoder is bounded by BOTH vectors: a mismatched caller gets the
  // common prefix, never an out-of-bounds read of the shorter one.
  const std::vector<Challenge> challenges{sample_challenge(),
                                          sample_challenge(),
                                          sample_challenge()};
  const std::vector<protocol::ProverReport> reports{sample_report()};
  const std::vector<std::uint8_t> payload =
      net::encode_verify_batch_request(challenges, reports);
  std::vector<Challenge> out_c;
  std::vector<protocol::ProverReport> out_r;
  ASSERT_TRUE(
      net::decode_verify_batch_request(payload, &out_c, &out_r).is_ok());
  EXPECT_EQ(out_c.size(), 1u);
  EXPECT_EQ(out_r.size(), 1u);
}

TEST(Wire, WireCodeMapping) {
  using util::StatusCode;
  EXPECT_EQ(net::wire_code_to_status(WireCode::kUnknownDevice, "x").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(net::wire_code_to_status(WireCode::kOverloaded, "x").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(net::wire_code_to_status(WireCode::kShuttingDown, "x").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(net::wire_code_to_status(WireCode::kDeadlineExceeded, "x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(net::wire_code_to_status(WireCode::kInvalidArgument, "x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::wire_code_to_status(WireCode::kOk, "").code(),
            StatusCode::kOk);
  // Fleet routing: a shard the gateway cannot serve is retryable (the
  // client re-resolves), hence kUnavailable, not a hard error.
  EXPECT_EQ(net::wire_code_to_status(WireCode::kShardUnavailable, "x").code(),
            StatusCode::kUnavailable);
}

// ------------------------------------------------------- fleet wire bodies

net::AdminRequestBody sample_admin_request() {
  net::AdminRequestBody a;
  a.op = net::AdminOp::kDrainShard;
  a.shard = "shard-07";
  a.host = "10.0.0.7";
  a.port = 7007;
  return a;
}

net::AdminReplyBody sample_admin_reply() {
  net::AdminReplyBody a;
  a.ok = 1;
  a.message = "drained";
  net::ShardStatus s;
  s.name = "shard-07";
  s.host = "10.0.0.7";
  s.port = 7007;
  s.state = 2;
  s.draining = 1;
  s.inflight = 3;
  s.pinned_sessions = 2;
  s.forwarded = 1234;
  s.device_count = 99;
  s.wal_epoch = 0x1122334455667788ull;
  s.wal_offset = 4096;
  a.shards = {s, s};
  a.shards[1].name = "shard-08";
  return a;
}

TEST(Wire, EnrollBodiesRoundTrip) {
  net::EnrollRequestBody req;
  req.node_count = 24;
  req.grid_size = 6;
  req.fabrication_seed = 0xfeedfacecafebeefull;
  req.label = "rack-3 card-11";
  const std::vector<std::uint8_t> bytes = net::encode_enroll_request(req);
  net::EnrollRequestBody back;
  ASSERT_TRUE(net::decode_enroll_request(bytes, &back).is_ok());
  EXPECT_EQ(back.node_count, req.node_count);
  EXPECT_EQ(back.grid_size, req.grid_size);
  EXPECT_EQ(back.fabrication_seed, req.fabrication_seed);
  EXPECT_EQ(back.label, req.label);
  EXPECT_EQ(back.backend, 1);  // default tag survives the round trip

  // A PDL-tagged request round-trips its backend byte; PDL geometry uses
  // chain-stage units, so the max-flow grid<=nodes rule must not apply.
  net::EnrollRequestBody pdl = req;
  pdl.backend = static_cast<std::uint8_t>(backend::BackendKind::kPdlDelay);
  pdl.node_count = 64;  // stages
  pdl.grid_size = 4;    // XORed instances
  net::EnrollRequestBody pdl_back;
  ASSERT_TRUE(
      net::decode_enroll_request(net::encode_enroll_request(pdl), &pdl_back)
          .is_ok());
  EXPECT_EQ(pdl_back.backend, pdl.backend);
  EXPECT_EQ(pdl_back.node_count, pdl.node_count);
  EXPECT_EQ(pdl_back.grid_size, pdl.grid_size);

  // Backend byte 0 is reserved: an uninitialised byte never aliases a
  // real backend.  Unknown non-zero tags pass the wire layer (the server
  // answers a typed error) — forward compatibility, not silent rejection.
  std::vector<std::uint8_t> zero_tag = net::encode_enroll_request(req);
  zero_tag.back() = 0;
  EXPECT_EQ(net::decode_enroll_request(zero_tag, &back).code(),
            StatusCode::kInvalidArgument);
  std::vector<std::uint8_t> future_tag = net::encode_enroll_request(pdl);
  future_tag.back() = 0x7f;
  ASSERT_TRUE(net::decode_enroll_request(future_tag, &back).is_ok());
  EXPECT_EQ(back.backend, 0x7f);

  net::EnrollReplyBody reply;
  reply.device_id = 0xffffffffffffff01ull;  // full 64-bit width survives
  net::EnrollReplyBody reply_back;
  ASSERT_TRUE(
      net::decode_enroll_reply(net::encode_enroll_reply(reply), &reply_back)
          .is_ok());
  EXPECT_EQ(reply_back.device_id, reply.device_id);
}

TEST(Wire, AdminBodiesRoundTrip) {
  const net::AdminRequestBody req = sample_admin_request();
  net::AdminRequestBody req_back;
  ASSERT_TRUE(
      net::decode_admin_request(net::encode_admin_request(req), &req_back)
          .is_ok());
  EXPECT_EQ(req_back.op, req.op);
  EXPECT_EQ(req_back.shard, req.shard);
  EXPECT_EQ(req_back.host, req.host);
  EXPECT_EQ(req_back.port, req.port);

  const net::AdminReplyBody reply = sample_admin_reply();
  net::AdminReplyBody reply_back;
  ASSERT_TRUE(
      net::decode_admin_reply(net::encode_admin_reply(reply), &reply_back)
          .is_ok());
  EXPECT_EQ(reply_back.ok, reply.ok);
  EXPECT_EQ(reply_back.message, reply.message);
  ASSERT_EQ(reply_back.shards.size(), 2u);
  EXPECT_EQ(reply_back.shards[0].name, "shard-07");
  EXPECT_EQ(reply_back.shards[1].name, "shard-08");
  EXPECT_EQ(reply_back.shards[0].state, reply.shards[0].state);
  EXPECT_EQ(reply_back.shards[0].wal_epoch, reply.shards[0].wal_epoch);
  EXPECT_EQ(reply_back.shards[0].pinned_sessions,
            reply.shards[0].pinned_sessions);
}

TEST(Wire, WalShippingBodiesRoundTrip) {
  net::WalFetchRequestBody req;
  req.epoch = 0xaabbccdd11223344ull;
  req.offset = 1 << 20;
  req.max_bytes = 65536;
  net::WalFetchRequestBody req_back;
  ASSERT_TRUE(net::decode_wal_fetch_request(
                  net::encode_wal_fetch_request(req), &req_back)
                  .is_ok());
  EXPECT_EQ(req_back.epoch, req.epoch);
  EXPECT_EQ(req_back.offset, req.offset);
  EXPECT_EQ(req_back.max_bytes, req.max_bytes);

  net::WalSegmentBody seg;
  seg.bootstrap = 1;
  seg.epoch = req.epoch;
  seg.next_offset = 77;
  seg.bytes = {0x01, 0x02, 0x00, 0xff, 0x7f};
  net::WalSegmentBody seg_back;
  ASSERT_TRUE(net::decode_wal_segment_reply(
                  net::encode_wal_segment_reply(seg), &seg_back)
                  .is_ok());
  EXPECT_EQ(seg_back.bootstrap, seg.bootstrap);
  EXPECT_EQ(seg_back.epoch, seg.epoch);
  EXPECT_EQ(seg_back.next_offset, seg.next_offset);
  EXPECT_EQ(seg_back.bytes, seg.bytes);
}

TEST(Wire, RedirectReplyRoundTrip) {
  net::RedirectReplyBody r;
  r.host = "10.1.2.3";
  r.port = 31337;
  r.shard = "shard-replacement";
  r.message = "draining toward successor";
  net::RedirectReplyBody back;
  ASSERT_TRUE(
      net::decode_redirect_reply(net::encode_redirect_reply(r), &back)
          .is_ok());
  EXPECT_EQ(back.host, r.host);
  EXPECT_EQ(back.port, r.port);
  EXPECT_EQ(back.shard, r.shard);
  EXPECT_EQ(back.message, r.message);
}

TEST(Wire, FleetMessageTypesAreNamedAndClassified) {
  using net::is_request;
  using net::message_type_name;
  for (MessageType t : {MessageType::kEnrollRequest,
                        MessageType::kAdminRequest,
                        MessageType::kWalFetchRequest}) {
    EXPECT_TRUE(is_request(t)) << message_type_name(t);
    EXPECT_STRNE(message_type_name(t), "UNKNOWN");
  }
  for (MessageType t : {MessageType::kEnrollReply, MessageType::kAdminReply,
                        MessageType::kWalSegmentReply,
                        MessageType::kRedirectReply}) {
    EXPECT_FALSE(is_request(t)) << message_type_name(t);
    EXPECT_STRNE(message_type_name(t), "UNKNOWN");
  }
}

// ----------------------------------------------------------------- fuzzing

/// One named payload decoder driven over adversarial bytes.
struct PayloadCase {
  const char* name;
  std::vector<std::uint8_t> valid;
  std::function<Status(const std::vector<std::uint8_t>&)> decode;
};

std::vector<PayloadCase> payload_cases() {
  std::vector<PayloadCase> cases;
  cases.push_back({"ping_request", net::encode_ping_request(250),
                   [](const std::vector<std::uint8_t>& p) {
                     std::uint32_t d = 0;
                     return net::decode_ping_request(p, &d);
                   }});
  cases.push_back({"predict_request",
                   net::encode_predict_request(sample_challenge()),
                   [](const std::vector<std::uint8_t>& p) {
                     Challenge c;
                     return net::decode_predict_request(p, &c);
                   }});
  cases.push_back({"verify_request",
                   net::encode_verify_request(sample_challenge(),
                                              sample_report()),
                   [](const std::vector<std::uint8_t>& p) {
                     Challenge c;
                     protocol::ProverReport r;
                     return net::decode_verify_request(p, &c, &r);
                   }});
  cases.push_back(
      {"verify_batch_request",
       net::encode_verify_batch_request({sample_challenge()},
                                        {sample_report()}),
       [](const std::vector<std::uint8_t>& p) {
         std::vector<Challenge> c;
         std::vector<protocol::ProverReport> r;
         return net::decode_verify_batch_request(p, &c, &r);
       }});
  cases.push_back({"challenge_reply",
                   net::encode_challenge_reply(sample_grant()),
                   [](const std::vector<std::uint8_t>& p) {
                     net::ChallengeGrant g;
                     return net::decode_challenge_reply(p, &g);
                   }});
  net::ChainedAuthRequest chained;
  chained.grant = sample_grant();
  chained.report = sample_chained_report();
  cases.push_back({"chained_auth_request",
                   net::encode_chained_auth_request(chained),
                   [](const std::vector<std::uint8_t>& p) {
                     net::ChainedAuthRequest r;
                     return net::decode_chained_auth_request(p, &r);
                   }});
  net::ErrorReply err;
  err.code = WireCode::kDeadlineExceeded;
  err.message = "late";
  cases.push_back({"error_reply", net::encode_error_reply(err),
                   [](const std::vector<std::uint8_t>& p) {
                     net::ErrorReply e;
                     return net::decode_error_reply(p, &e);
                   }});
  // Fleet codecs (gateway admin, enrollment, WAL shipping, redirects) ride
  // the same harness: each one is parsed by a gateway or shard straight
  // off adversary-reachable sockets.  ping_reply and enroll_request stay
  // OUT of this list — their trailing fields are deliberately optional
  // (health block / backend tag), so one prefix of each legally decodes.
  // They get dedicated truncation tests instead.
  {
    net::EnrollReplyBody e;
    e.device_id = 42;
    cases.push_back({"enroll_reply", net::encode_enroll_reply(e),
                     [](const std::vector<std::uint8_t>& p) {
                       net::EnrollReplyBody out;
                       return net::decode_enroll_reply(p, &out);
                     }});
  }
  cases.push_back({"admin_request",
                   net::encode_admin_request(sample_admin_request()),
                   [](const std::vector<std::uint8_t>& p) {
                     net::AdminRequestBody out;
                     return net::decode_admin_request(p, &out);
                   }});
  cases.push_back({"admin_reply",
                   net::encode_admin_reply(sample_admin_reply()),
                   [](const std::vector<std::uint8_t>& p) {
                     net::AdminReplyBody out;
                     return net::decode_admin_reply(p, &out);
                   }});
  {
    net::WalFetchRequestBody f;
    f.epoch = 0x55aa55aa55aa55aaull;
    f.offset = 8192;
    f.max_bytes = 1024;
    cases.push_back({"wal_fetch_request", net::encode_wal_fetch_request(f),
                     [](const std::vector<std::uint8_t>& p) {
                       net::WalFetchRequestBody out;
                       return net::decode_wal_fetch_request(p, &out);
                     }});
  }
  {
    net::WalSegmentBody s;
    s.bootstrap = 0;
    s.epoch = 0x77;
    s.next_offset = 131072;
    s.bytes = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
    cases.push_back({"wal_segment_reply", net::encode_wal_segment_reply(s),
                     [](const std::vector<std::uint8_t>& p) {
                       net::WalSegmentBody out;
                       return net::decode_wal_segment_reply(p, &out);
                     }});
  }
  {
    net::RedirectReplyBody r;
    r.host = "192.0.2.9";
    r.port = 9009;
    r.shard = "s9";
    r.message = "moved";
    cases.push_back({"redirect_reply", net::encode_redirect_reply(r),
                     [](const std::vector<std::uint8_t>& p) {
                       net::RedirectReplyBody out;
                       return net::decode_redirect_reply(p, &out);
                     }});
  }
  return cases;
}

// Registry persistence bodies ride the same fuzz harness as wire
// payloads: a registry file is exactly as attacker-reachable as a socket.

SimulationModel sample_model() {
  PpufParams params;
  params.node_count = 6;
  params.grid_size = 3;
  MaxFlowPpuf puf(params, 99);
  return SimulationModel(puf);
}

registry::DeviceEntry sample_entry() {
  registry::DeviceEntry e;
  e.id = 11;
  e.nodes = 6;
  e.grid = 3;
  e.label = "card-A";
  Writer w;
  protocol::codec::encode_sim_model(w, sample_model());
  e.model_bytes = w.bytes();
  return e;
}

registry::DeviceEntry sample_pdl_entry() {
  registry::DeviceEntry e;
  e.id = 12;
  e.nodes = 16;  // chain stages
  e.grid = 2;    // XORed instances
  e.label = "pdl-A";
  e.backend = backend::BackendKind::kPdlDelay;
  const backend::PufBackend* pdl =
      backend::find_backend(backend::BackendKind::kPdlDelay);
  backend::FabricateRequest req;
  req.node_count = 16;
  req.grid_size = 2;
  req.seed = 77;
  EXPECT_TRUE(pdl->fabricate(req, nullptr, &e.model_bytes).is_ok());
  return e;
}

std::vector<PayloadCase> registry_payload_cases() {
  std::vector<PayloadCase> cases;
  {
    Writer w;
    protocol::codec::encode_sim_model(w, sample_model());
    cases.push_back({"sim_model", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       SimulationModel m;
                       Status s = protocol::codec::decode_sim_model(r, &m);
                       if (s.is_ok() && !r.exhausted())
                         s = Status::invalid_argument("trailing bytes");
                       return s;
                     }});
  }
  {
    Writer w;
    registry::encode_device_entry(w, sample_entry());
    cases.push_back({"device_entry", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       registry::DeviceEntry e;
                       Status s = registry::decode_device_entry(r, &e);
                       if (s.is_ok() && !r.exhausted())
                         s = Status::invalid_argument("trailing bytes");
                       return s;
                     }});
  }
  {
    registry::WalRecord rec;
    rec.type = registry::WalRecord::Type::kEnroll;
    rec.entry = sample_entry();
    Writer w;
    registry::encode_wal_record(w, rec);
    cases.push_back({"wal_record", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       registry::WalRecord out;
                       return registry::decode_wal_record(r, &out);
                     }});
  }
  {
    registry::SnapshotBody snap;
    snap.next_id = 12;
    snap.entries = {sample_entry()};
    Writer w;
    registry::encode_snapshot_body(w, snap);
    cases.push_back({"snapshot_body", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       registry::SnapshotBody out;
                       Status s = registry::decode_snapshot_body(r, &out);
                       if (s.is_ok() && !r.exhausted())
                         s = Status::invalid_argument("trailing bytes");
                       return s;
                     }});
  }
  // Backend-tagged record formats: a kEnrollTagged WAL record carrying a
  // PDL entry, and a v2 snapshot mixing both backends.  Same contract —
  // truncation at every offset and bit flips stay typed errors.
  {
    registry::WalRecord rec;
    rec.type = registry::WalRecord::Type::kEnrollTagged;
    rec.entry = sample_pdl_entry();
    Writer w;
    registry::encode_wal_record(w, rec);
    cases.push_back({"wal_record_tagged_pdl", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       registry::WalRecord out;
                       return registry::decode_wal_record(r, &out);
                     }});
  }
  {
    registry::SnapshotBody snap;
    snap.next_id = 13;
    snap.entries = {sample_entry(), sample_pdl_entry()};
    Writer w;
    registry::encode_snapshot_body(w, snap, 2);
    cases.push_back({"snapshot_body_v2_mixed", w.bytes(),
                     [](const std::vector<std::uint8_t>& p) {
                       Reader r(p.data(), p.size());
                       registry::SnapshotBody out;
                       Status s =
                           registry::decode_snapshot_body(r, &out, 2);
                       if (s.is_ok() && !r.exhausted())
                         s = Status::invalid_argument("trailing bytes");
                       return s;
                     }});
  }
  return cases;
}

std::vector<PayloadCase> all_payload_cases() {
  std::vector<PayloadCase> cases = payload_cases();
  std::vector<PayloadCase> reg = registry_payload_cases();
  cases.insert(cases.end(), std::make_move_iterator(reg.begin()),
               std::make_move_iterator(reg.end()));
  return cases;
}

TEST(WireFuzz, TruncationAtEveryOffsetIsTypedError) {
  for (const PayloadCase& pc : all_payload_cases()) {
    ASSERT_FALSE(pc.valid.empty()) << pc.name;
    // Sanity: the untruncated payload decodes.
    ASSERT_TRUE(pc.decode(pc.valid).is_ok()) << pc.name;
    for (std::size_t len = 0; len < pc.valid.size(); ++len) {
      const std::vector<std::uint8_t> prefix(pc.valid.begin(),
                                             pc.valid.begin() +
                                                 static_cast<long>(len));
      const Status s = pc.decode(prefix);
      // A strict prefix can never decode: decoders demand exact
      // consumption, and the decode path is deterministic in the bytes.
      EXPECT_FALSE(s.is_ok())
          << pc.name << " decoded from a " << len << "-byte prefix";
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
          << pc.name << " at prefix " << len;
    }
  }
}

TEST(WireFuzz, BitFlipAtEveryOffsetNeverCrashes) {
  for (const PayloadCase& pc : all_payload_cases()) {
    // All 8 flips per byte for small messages; one rotating flip per byte
    // for large ones (keeps the ASan run fast without losing coverage of
    // every offset).
    const int flips_per_byte = pc.valid.size() <= 256 ? 8 : 1;
    for (std::size_t off = 0; off < pc.valid.size(); ++off) {
      for (int b = 0; b < flips_per_byte; ++b) {
        std::vector<std::uint8_t> mutated = pc.valid;
        mutated[off] ^= static_cast<std::uint8_t>(
            1u << (flips_per_byte == 8 ? b : off % 8));
        // Either a clean decode of different values or a typed error —
        // never a crash or over-read (ASan enforces the latter).
        const Status s = pc.decode(mutated);
        if (!s.is_ok()) {
          EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
              << pc.name << " offset " << off;
        }
      }
    }
  }
}

TEST(WireFuzz, FrameTruncationNeedsMoreAtEveryOffset) {
  const std::vector<std::uint8_t> frame = net::encode_frame(
      MessageType::kVerifyRequest, 9, 2, 125,
      net::encode_verify_request(sample_challenge(), sample_report()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    Frame f;
    std::size_t consumed = 0;
    EXPECT_EQ(net::decode_frame(frame.data(), len, &f, &consumed),
              DecodeResult::kNeedMore)
        << "prefix " << len;
  }
}

TEST(WireFuzz, FrameBitFlipNeverCrashesOrOverconsumes) {
  const std::vector<std::uint8_t> frame = net::encode_frame(
      MessageType::kChainedAuthRequest, 1234, 77, 0, [] {
        net::ChainedAuthRequest r;
        r.grant = sample_grant();
        r.report = sample_chained_report();
        return net::encode_chained_auth_request(r);
      }());
  for (std::size_t off = 0; off < frame.size(); ++off) {
    for (int b = 0; b < 8; ++b) {
      std::vector<std::uint8_t> mutated = frame;
      mutated[off] ^= static_cast<std::uint8_t>(1u << b);
      Frame f;
      std::size_t consumed = 0;
      const DecodeResult r =
          net::decode_frame(mutated.data(), mutated.size(), &f, &consumed);
      if (r == DecodeResult::kOk) {
        EXPECT_LE(consumed, mutated.size()) << "offset " << off;
        // A frame that still parses hands its payload to the typed
        // decoder, which must also hold the no-crash contract.
        net::ChainedAuthRequest out;
        (void)net::decode_chained_auth_request(f.payload, &out);
      }
    }
  }
}

// ------------------------------------------------------ registry record frames

TEST(RegistryFuzz, RecordTruncationAtEveryOffsetIsNeedMore) {
  registry::WalRecord rec;
  rec.entry = sample_entry();
  const std::vector<std::uint8_t> frame = registry::frame_record(rec);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::size_t consumed = 1;
    std::vector<std::uint8_t> body;
    std::string error;
    // Every strict prefix is indistinguishable from a torn tail write:
    // recovery must see kNeedMore (truncate at EOF), never kCorrupt.
    EXPECT_EQ(registry::extract_record(frame.data(), len, &consumed, &body,
                                       &error),
              registry::ExtractStatus::kNeedMore)
        << "prefix " << len;
    EXPECT_EQ(consumed, 0u);
  }
  std::size_t consumed = 0;
  std::vector<std::uint8_t> body;
  std::string error;
  ASSERT_EQ(registry::extract_record(frame.data(), frame.size(), &consumed,
                                     &body, &error),
            registry::ExtractStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  Reader r(body.data(), body.size());
  registry::WalRecord out;
  ASSERT_TRUE(registry::decode_wal_record(r, &out).is_ok());
  EXPECT_EQ(out.entry.id, rec.entry.id);
}

TEST(RegistryFuzz, RecordBitFlipAtEveryByteIsDetected) {
  registry::WalRecord rec;
  rec.entry = sample_entry();
  const std::vector<std::uint8_t> frame = registry::frame_record(rec);
  for (std::size_t off = 0; off < frame.size(); ++off) {
    std::vector<std::uint8_t> mutated = frame;
    mutated[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
    std::size_t consumed = 0;
    std::vector<std::uint8_t> body;
    std::string error;
    const registry::ExtractStatus s = registry::extract_record(
        mutated.data(), mutated.size(), &consumed, &body, &error);
    // A flipped body byte fails the CRC; a flipped header byte fails the
    // magic or yields a length that no longer fits (kNeedMore).  A flip
    // can never extract a record with the original content.
    EXPECT_NE(s, registry::ExtractStatus::kOk) << "offset " << off;
  }
}

TEST(RegistryFuzz, SnapshotBitFlipAtEveryByteIsTypedError) {
  registry::SnapshotBody snap;
  snap.next_id = 42;
  snap.entries = {sample_entry()};
  const std::vector<std::uint8_t> image = registry::frame_snapshot(snap);
  {
    registry::SnapshotBody out;
    ASSERT_TRUE(
        registry::parse_snapshot(image.data(), image.size(), &out).is_ok());
    EXPECT_EQ(out.next_id, 42u);
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    registry::SnapshotBody out;
    EXPECT_FALSE(
        registry::parse_snapshot(image.data(), len, &out).is_ok())
        << "prefix " << len;
  }
  for (std::size_t off = 0; off < image.size(); ++off) {
    std::vector<std::uint8_t> mutated = image;
    mutated[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
    registry::SnapshotBody out;
    const Status s =
        registry::parse_snapshot(mutated.data(), mutated.size(), &out);
    // A snapshot is read whole, so every flip — header or body — must
    // surface as the typed corruption error.
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "offset " << off;
  }
}

TEST(RegistryFuzz, SimModelDecodeRejectsHostileGeometry) {
  // A forged node count must be rejected by arithmetic against the
  // remaining bytes, not by attempting the allocation.
  Writer w;
  w.u32(50000);  // nodes -> ~2.5e9 edges if believed
  w.u32(8);      // grid
  w.f64(0.0);    // comparator offset
  Reader r(w.bytes().data(), w.bytes().size());
  SimulationModel m;
  const Status s = protocol::codec::decode_sim_model(r, &m);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RegistryFuzz, Crc32cKnownAnswer) {
  // RFC 3720 test vector for CRC-32C (Castagnoli).
  const char* text = "123456789";
  EXPECT_EQ(util::crc32c(text, 9), 0xE3069283u);
  // Chaining across a split must equal the one-shot digest.
  const std::uint32_t first = util::crc32c(text, 4);
  EXPECT_EQ(util::crc32c(text + 4, 5, first), 0xE3069283u);
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
}

// ------------------------------------------- bulk-copied vectors and blobs

/// A paper-scale edge-flow vector: one entry per edge of an n = 64
/// complete graph, with the awkward values a memcpy must carry exactly.
std::vector<double> paper_scale_flows(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(64 * 63);
  for (double& x : v) x = rng.uniform(0.0, 1.2e-7);
  v[0] = -0.0;
  v[1] = 4.9e-324;  // smallest subnormal
  v[2] = -1e300;
  return v;
}

TEST(CodecBulk, PaperScaleReportMatchesThePerElementEncoding) {
  protocol::ProverReport report = sample_report();
  report.edge_flow_a = paper_scale_flows(1);
  report.edge_flow_b = paper_scale_flows(2);
  Writer w;
  protocol::codec::encode_prover_report(w, report);

  // The documented layout, written one little-endian double at a time.
  Writer expected;
  expected.u32(static_cast<std::uint32_t>(report.bit));
  expected.f64(report.flow_a);
  expected.f64(report.flow_b);
  for (const auto* flows : {&report.edge_flow_a, &report.edge_flow_b}) {
    expected.u32(static_cast<std::uint32_t>(flows->size()));
    for (const double x : *flows) expected.f64(x);
  }
  expected.f64(report.elapsed_seconds);
  protocol::codec::encode_status(expected, report.status);
  EXPECT_EQ(w.bytes(), expected.bytes());

  // Wire frame: decode, re-encode, byte-identical.
  const std::vector<std::uint8_t> frame = net::encode_frame(
      MessageType::kVerifyRequest, 7, 11, 0,
      net::encode_verify_request(sample_challenge(), report));
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(frame.data(), frame.size(), &f, &consumed),
            DecodeResult::kOk);
  Challenge c;
  protocol::ProverReport decoded;
  ASSERT_TRUE(net::decode_verify_request(f.payload, &c, &decoded).is_ok());
  EXPECT_EQ(decoded.edge_flow_a.size(), 4032u);
  EXPECT_EQ(net::encode_frame(MessageType::kVerifyRequest, 7, 11, 0,
                              net::encode_verify_request(c, decoded)),
            frame);
}

TEST(CodecBulk, PaperScaleDeviceEntryReencodesIdentically) {
  // n = 64 model blob (129 KB) with arbitrary capacities.
  const CrossbarLayout layout(64, 8);
  util::Rng rng(5);
  std::array<std::vector<std::array<double, 2>>, 2> caps;
  for (auto& net : caps) {
    net.resize(layout.edge_count());
    for (auto& per_bit : net)
      per_bit = {rng.uniform(0.0, 1e-7), rng.uniform(0.0, 1e-7)};
  }
  registry::WalRecord rec;
  rec.entry.id = 42;
  rec.entry.nodes = 64;
  rec.entry.grid = 8;
  rec.entry.label = "paper-scale";
  Writer blob;
  protocol::codec::encode_sim_model(
      blob, SimulationModel::restore(layout, std::move(caps), 1e-9));
  rec.entry.model_bytes = blob.bytes();

  // WAL record.
  const std::vector<std::uint8_t> frame = registry::frame_record(rec);
  std::size_t consumed = 0;
  std::vector<std::uint8_t> body;
  std::string error;
  ASSERT_EQ(registry::extract_record(frame.data(), frame.size(), &consumed,
                                     &body, &error),
            registry::ExtractStatus::kOk);
  Reader r(body.data(), body.size());
  registry::WalRecord out;
  ASSERT_TRUE(registry::decode_wal_record(r, &out).is_ok());
  EXPECT_EQ(out.entry.model_bytes, rec.entry.model_bytes);
  EXPECT_EQ(registry::frame_record(out), frame);

  // Snapshot.
  registry::SnapshotBody snapshot;
  snapshot.next_id = 43;
  snapshot.entries = {rec.entry};
  const std::vector<std::uint8_t> image = registry::frame_snapshot(snapshot);
  registry::SnapshotBody parsed;
  ASSERT_TRUE(
      registry::parse_snapshot(image.data(), image.size(), &parsed).is_ok());
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].model_bytes, rec.entry.model_bytes);
  EXPECT_EQ(registry::frame_snapshot(parsed), image);
}

/// The 32-byte frame header as the layout table in net/wire.hpp specifies
/// it, written byte by byte (independent of encode_frame).
std::vector<std::uint8_t> specified_header(MessageType type,
                                           std::uint64_t request_id,
                                           std::uint64_t device_id,
                                           std::uint32_t budget_ms,
                                           std::size_t payload_len) {
  std::vector<std::uint8_t> h;
  auto le = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      h.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (const char c : {'P', 'P', 'U', 'F'})
    h.push_back(static_cast<std::uint8_t>(c));
  le(2, 2);  // kWireVersion
  le(static_cast<std::uint16_t>(type), 2);
  le(request_id, 8);
  le(device_id, 8);
  le(budget_ms, 4);
  le(payload_len, 4);
  return h;
}

TEST(Wire, SingleBufferRequestFramesMatchHeaderPlusSpecifiedPayload) {
  // Every request type builds its frame in one exactly sized buffer from
  // its Writer-appending encoder.  Pin each against the specified header
  // followed by the payload written field by field from the documented
  // layout, and against the vector encoder framed the old way.  VERIFY
  // carries an n = 64 report (4,032 flows per network).
  const CrossbarLayout layout(64, 8);
  util::Rng rng(64);
  const Challenge c = random_challenge(layout, rng);
  protocol::ProverReport report = sample_report();
  report.edge_flow_a = paper_scale_flows(3);
  report.edge_flow_b = paper_scale_flows(4);
  net::ChainedAuthRequest chained;
  chained.grant.challenge = c;
  chained.grant.chain_length = 2;
  chained.grant.nonce = 0x0123456789abcdefULL;
  chained.grant.deadline_seconds = 0.25;
  chained.report.rounds = {report, sample_report()};
  chained.report.elapsed_seconds = 1e-3;
  net::EnrollRequestBody enroll;
  enroll.node_count = 64;
  enroll.grid_size = 8;
  enroll.fabrication_seed = 90125;
  enroll.label = "card-64";
  net::AdminRequestBody admin;
  admin.op = net::AdminOp::kDrainShard;
  admin.shard = "shard-b";
  admin.host = "10.0.0.2";
  admin.port = 7001;
  net::WalFetchRequestBody fetch;
  fetch.epoch = 3;
  fetch.offset = 4096;
  fetch.max_bytes = 1 << 20;

  struct Case {
    MessageType type;
    std::function<void(Writer&)> body;       // single-buffer encoder
    std::vector<std::uint8_t> payload;       // vector encoder
    std::function<void(Writer&)> specified;  // the documented layout
  };
  const std::vector<Case> cases = {
      {MessageType::kPingRequest,
       [](Writer& w) { net::encode_ping_request(w, 250); },
       net::encode_ping_request(250), [](Writer& w) { w.u32(250); }},
      {MessageType::kPredictRequest,
       [&](Writer& w) { net::encode_predict_request(w, c); },
       net::encode_predict_request(c),
       [&](Writer& w) { protocol::codec::encode_challenge(w, c); }},
      {MessageType::kVerifyRequest,
       [&](Writer& w) { net::encode_verify_request(w, c, report); },
       net::encode_verify_request(c, report),
       [&](Writer& w) {
         protocol::codec::encode_challenge(w, c);
         protocol::codec::encode_prover_report(w, report);
       }},
      {MessageType::kVerifyBatchRequest,
       [&](Writer& w) {
         net::encode_verify_batch_request(w, {c, c}, {report, report});
       },
       net::encode_verify_batch_request({c, c}, {report, report}),
       [&](Writer& w) {
         w.u32(2);
         for (int i = 0; i < 2; ++i) {
           protocol::codec::encode_challenge(w, c);
           protocol::codec::encode_prover_report(w, report);
         }
       }},
      {MessageType::kChallengeRequest,
       [](Writer& w) { net::encode_challenge_request(w); },
       net::encode_challenge_request(), [](Writer&) {}},
      {MessageType::kChainedAuthRequest,
       [&](Writer& w) { net::encode_chained_auth_request(w, chained); },
       net::encode_chained_auth_request(chained),
       [&](Writer& w) {
         protocol::codec::encode_challenge(w, chained.grant.challenge);
         w.u32(chained.grant.chain_length);
         w.u64(chained.grant.nonce);
         w.f64(chained.grant.deadline_seconds);
         protocol::codec::encode_chained_report(w, chained.report);
       }},
      {MessageType::kEnrollRequest,
       [&](Writer& w) { net::encode_enroll_request(w, enroll); },
       net::encode_enroll_request(enroll),
       [&](Writer& w) {
         w.u32(enroll.node_count);
         w.u32(enroll.grid_size);
         w.u64(enroll.fabrication_seed);
         w.str(enroll.label);
         w.u8(enroll.backend);
       }},
      {MessageType::kAdminRequest,
       [&](Writer& w) { net::encode_admin_request(w, admin); },
       net::encode_admin_request(admin),
       [&](Writer& w) {
         w.u8(static_cast<std::uint8_t>(admin.op));
         w.str(admin.shard);
         w.str(admin.host);
         w.u16(admin.port);
       }},
      {MessageType::kWalFetchRequest,
       [&](Writer& w) { net::encode_wal_fetch_request(w, fetch); },
       net::encode_wal_fetch_request(fetch),
       [&](Writer& w) {
         w.u64(fetch.epoch);
         w.u64(fetch.offset);
         w.u32(fetch.max_bytes);
       }},
  };
  std::size_t request_types = 0;
  for (const Case& k : cases) {
    SCOPED_TRACE(net::message_type_name(k.type));
    ASSERT_TRUE(net::is_request(k.type));
    ++request_types;
    Writer specified;
    k.specified(specified);
    EXPECT_EQ(k.payload, specified.bytes());
    EXPECT_EQ(k.payload.capacity(), k.payload.size());
    std::vector<std::uint8_t> expected =
        specified_header(k.type, 0x1122334455667788ULL, 42, 1500,
                         specified.bytes().size());
    expected.insert(expected.end(), specified.bytes().begin(),
                    specified.bytes().end());
    const std::vector<std::uint8_t> frame = net::encode_frame(
        k.type, 0x1122334455667788ULL, 42, 1500, k.body);
    EXPECT_EQ(frame, expected);
    EXPECT_EQ(frame.capacity(), frame.size());
    EXPECT_EQ(net::encode_frame(k.type, 0x1122334455667788ULL, 42, 1500,
                                k.payload),
              expected);
  }
  // One case per request type the protocol defines.
  EXPECT_EQ(request_types, 9u);
}

TEST(Wire, SingleBufferVerifyAndEnrollRoundTripAtN64) {
  const CrossbarLayout layout(64, 8);
  util::Rng rng(7);
  const Challenge c = random_challenge(layout, rng);
  protocol::ProverReport report = sample_report();
  report.edge_flow_a = paper_scale_flows(5);
  report.edge_flow_b = paper_scale_flows(6);
  const std::vector<std::uint8_t> frame = net::encode_frame(
      MessageType::kVerifyRequest, 9, 17, 8,
      [&](Writer& w) { net::encode_verify_request(w, c, report); });
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(frame.data(), frame.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(f.type, MessageType::kVerifyRequest);
  EXPECT_EQ(f.request_id, 9u);
  EXPECT_EQ(f.device_id, 17u);
  EXPECT_EQ(f.budget_ms, 8u);
  Challenge c2;
  protocol::ProverReport r2;
  ASSERT_TRUE(net::decode_verify_request(f.payload, &c2, &r2).is_ok());
  EXPECT_EQ(c2, c);
  EXPECT_EQ(r2.bit, report.bit);
  EXPECT_EQ(r2.edge_flow_a.size(), 4032u);
  EXPECT_EQ(std::memcmp(r2.edge_flow_a.data(), report.edge_flow_a.data(),
                        4032 * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(r2.edge_flow_b.data(), report.edge_flow_b.data(),
                        4032 * sizeof(double)),
            0);

  net::EnrollRequestBody enroll;
  enroll.node_count = 64;
  enroll.grid_size = 8;
  enroll.fabrication_seed = 2026;
  enroll.label = "n64";
  const std::vector<std::uint8_t> eframe = net::encode_frame(
      MessageType::kEnrollRequest, 10, 5, 0,
      [&](Writer& w) { net::encode_enroll_request(w, enroll); });
  ASSERT_EQ(net::decode_frame(eframe.data(), eframe.size(), &f, &consumed),
            DecodeResult::kOk);
  net::EnrollRequestBody e2;
  ASSERT_TRUE(net::decode_enroll_request(f.payload, &e2).is_ok());
  EXPECT_EQ(e2.node_count, 64u);
  EXPECT_EQ(e2.grid_size, 8u);
  EXPECT_EQ(e2.fabrication_seed, 2026u);
  EXPECT_EQ(e2.label, "n64");
  EXPECT_EQ(e2.backend, 1);
}

TEST(Wire, SingleBufferOversizedBodyBecomesTypedErrorFrame) {
  const std::vector<std::uint8_t> huge(net::kMaxPayload + 1, 0xcd);
  const std::vector<std::uint8_t> bytes = net::encode_frame(
      MessageType::kVerifyRequest, 43, 0, 0,
      [&](Writer& w) { w.raw(huge.data(), huge.size()); });
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), &f, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(f.type, MessageType::kErrorReply);
  EXPECT_EQ(f.request_id, 43u);
}

}  // namespace
}  // namespace ppuf
