// Canonical binary encoding of the protocol's data types.
//
// The text format of SimulationModel::save() serialises the *public model*
// (a device's published identity); this codec serialises everything that
// moves during an authentication round: challenges, prover reports, chained
// reports, predictions, and verdicts.  It is the single binary format for
// those types — the wire protocol (net/wire) frames these bytes, and the
// report file helpers below wrap the very same bytes in a small file
// header, so a report saved to disk and a report sent over a socket are
// byte-identical payloads.
//
// Format rules:
//   - all integers little-endian, fixed width;
//   - doubles as IEEE-754 bit patterns in a little-endian u64;
//   - vectors as u32 count + elements;
//   - strings as u32 length + raw bytes.
//
// Encoding sizes before it allocates: encode() runs an encoder once on a
// counting Writer and once into a buffer reserved to exactly that size, so
// a 64 KB report is written in one allocation and one copy, never grown.
//
// Decoding is strict and bounds-checked: every read goes through Reader,
// which never reads past the buffer and turns any malformed input into a
// typed kInvalidArgument Status (never an exception, never a crash — the
// bytes come from the network, i.e. from the adversary).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ppuf/challenge.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "util/status.hpp"

namespace ppuf::protocol::codec {

/// Append-only byte sink.  Encoding cannot fail.
class Writer {
 public:
  /// A Writer that stores nothing: appends only advance size().  Running
  /// an encoder on one learns the exact size of its bytes.
  static Writer counting() {
    Writer w;
    w.counting_ = true;
    return w;
  }

  void u8(std::uint8_t v) {
    if (counting_) {
      ++counted_;
    } else {
      bytes_.push_back(v);
    }
  }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);  ///< u32 length + bytes
  void raw(const void* data, std::size_t size);

  void reserve(std::size_t size) { bytes_.reserve(size); }
  std::size_t size() const { return counting_ ? counted_ : bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t counted_ = 0;
  bool counting_ = false;
};

/// A non-owning reference to an encoder: any callable appending bytes to
/// a Writer.  Unlike std::function it never allocates; the callable must
/// outlive the call it is passed to (a lambda argument does).
class EncodeFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EncodeFn> &&
                std::is_invocable_v<F&, Writer&>>>
  EncodeFn(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Writer& w) {
          (*static_cast<std::add_pointer_t<F>>(object))(w);
        }) {}

  void operator()(Writer& w) const { call_(object_, w); }

 private:
  void* object_;
  void (*call_)(void*, Writer&);
};

/// Bytes `body` appends (a counting pass; nothing is stored).
std::size_t encoded_size(EncodeFn body);

/// The bytes `body` appends, in one buffer of exactly their size.
std::vector<std::uint8_t> encode(EncodeFn body);

/// Bounds-checked cursor over a byte span.  Every accessor returns false
/// (and sets a sticky error) instead of over-reading; decode functions
/// convert that into a typed Status.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool f64(double* v);
  /// Reads a u32 length + bytes; rejects lengths past the buffer end.
  bool str(std::string* s);
  /// Copies the next `size` bytes verbatim (the inverse of Writer::raw).
  bool raw(void* out, std::size_t size);

  bool failed() const { return failed_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole buffer was consumed and nothing failed — decoders
  /// require this so trailing garbage is rejected, not ignored.
  bool exhausted() const { return !failed_ && pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- domain types ---------------------------------------------------------
//
// Each encode_* appends to the Writer; each decode_* consumes from the
// Reader and returns a typed Status (kInvalidArgument with a located
// message on any malformed field).  Top-level message decoders in net/wire
// additionally require reader.exhausted().

void encode_challenge(Writer& w, const Challenge& c);
util::Status decode_challenge(Reader& r, Challenge* out);

void encode_status(Writer& w, const util::Status& s);
util::Status decode_status(Reader& r, util::Status* out);

void encode_prover_report(Writer& w, const ProverReport& report);
util::Status decode_prover_report(Reader& r, ProverReport* out);

void encode_chained_report(Writer& w, const ChainedReport& report);
util::Status decode_chained_report(Reader& r, ChainedReport* out);

void encode_prediction(Writer& w, const SimulationModel::Prediction& p);
util::Status decode_prediction(Reader& r, SimulationModel::Prediction* out);

void encode_auth_result(Writer& w, const AuthenticationResult& r);
util::Status decode_auth_result(Reader& r, AuthenticationResult* out);

void encode_chained_result(Writer& w, const ChainedVerifyResult& r);
util::Status decode_chained_result(Reader& r, ChainedVerifyResult* out);

/// Binary form of the published model, used by the device registry (the
/// text format of SimulationModel::save() stays the human-facing file
/// format).  Layout: u32 nodes, u32 grid, f64 comparator_offset, then
/// edge_count rows of 4 doubles (capA0 capA1 capB0 capB1, edge-id order).
/// decode validates geometry and non-negative capacities before touching
/// the table, and sizes the allocation from the validated geometry — a
/// forged header cannot demand more memory than its own byte count proves.
void encode_sim_model(Writer& w, const SimulationModel& model);
util::Status decode_sim_model(Reader& r, SimulationModel* out);

// --- report files ---------------------------------------------------------
//
// Same payload bytes as the wire, wrapped in a versioned magic header so a
// saved report is self-identifying.  Used by `ppuf_tool auth
// --report-file` and anything else that persists reports.

void write_chained_report(std::ostream& os, const ChainedReport& report);
util::Status read_chained_report(std::istream& is, ChainedReport* out);

}  // namespace ppuf::protocol::codec
