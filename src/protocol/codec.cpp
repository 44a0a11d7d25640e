#include "protocol/codec.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace ppuf::protocol::codec {

namespace {

using util::Status;

/// Vector counts are validated against the bytes actually remaining before
/// any allocation, so a forged count can never drive a giant resize: each
/// element of the claimed vector needs at least `element_size` bytes.
bool plausible_count(const Reader& r, std::uint32_t count,
                     std::size_t element_size) {
  return static_cast<std::size_t>(count) <= r.remaining() / element_size;
}

Status malformed(const char* what) {
  return Status::invalid_argument(std::string("malformed ") + what);
}

}  // namespace

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::raw(const void* data, std::size_t size) {
  if (counting_) {
    counted_ += size;
    return;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

std::size_t encoded_size(EncodeFn body) {
  Writer w = Writer::counting();
  body(w);
  return w.size();
}

std::vector<std::uint8_t> encode(EncodeFn body) {
  Writer w;
  w.reserve(encoded_size(body));
  body(w);
  return w.take();
}

bool Reader::u8(std::uint8_t* v) {
  if (failed_ || size_ - pos_ < 1) {
    failed_ = true;
    return false;
  }
  *v = data_[pos_++];
  return true;
}

bool Reader::u16(std::uint16_t* v) {
  if (failed_ || size_ - pos_ < 2) {
    failed_ = true;
    return false;
  }
  *v = static_cast<std::uint16_t>(data_[pos_] |
                                  (std::uint16_t{data_[pos_ + 1]} << 8));
  pos_ += 2;
  return true;
}

bool Reader::u32(std::uint32_t* v) {
  if (failed_ || size_ - pos_ < 4) {
    failed_ = true;
    return false;
  }
  *v = std::uint32_t{data_[pos_]} | (std::uint32_t{data_[pos_ + 1]} << 8) |
       (std::uint32_t{data_[pos_ + 2]} << 16) |
       (std::uint32_t{data_[pos_ + 3]} << 24);
  pos_ += 4;
  return true;
}

bool Reader::u64(std::uint64_t* v) {
  std::uint32_t lo = 0, hi = 0;
  if (!u32(&lo) || !u32(&hi)) return false;
  *v = std::uint64_t{lo} | (std::uint64_t{hi} << 32);
  return true;
}

bool Reader::f64(double* v) {
  std::uint64_t bits = 0;
  if (!u64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::str(std::string* s) {
  std::uint32_t len = 0;
  if (!u32(&len)) return false;
  if (static_cast<std::size_t>(len) > size_ - pos_) {
    failed_ = true;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return true;
}

bool Reader::raw(void* out, std::size_t size) {
  if (failed_ || size_ - pos_ < size) {
    failed_ = true;
    return false;
  }
  if (size != 0) std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return true;
}

// --- Challenge ------------------------------------------------------------

void encode_challenge(Writer& w, const Challenge& c) {
  w.u32(c.source);
  w.u32(c.sink);
  w.u32(static_cast<std::uint32_t>(c.bits.size()));
  for (const std::uint8_t b : c.bits) w.u8(b);
}

util::Status decode_challenge(Reader& r, Challenge* out) {
  std::uint32_t count = 0;
  if (!r.u32(&out->source) || !r.u32(&out->sink) || !r.u32(&count) ||
      !plausible_count(r, count, 1))
    return malformed("challenge");
  out->bits.clear();
  out->bits.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t b = 0;
    if (!r.u8(&b)) return malformed("challenge bits");
    if (b > 1) return malformed("challenge bit value");
    out->bits.push_back(b);
  }
  return Status::ok();
}

// --- util::Status ---------------------------------------------------------

void encode_status(Writer& w, const util::Status& s) {
  w.u16(static_cast<std::uint16_t>(s.code()));
  w.str(s.message());
}

util::Status decode_status(Reader& r, util::Status* out) {
  std::uint16_t code = 0;
  std::string message;
  if (!r.u16(&code) || !r.str(&message)) return malformed("status");
  if (code > static_cast<std::uint16_t>(util::StatusCode::kNotFound))
    return malformed("status code");
  *out = util::Status(static_cast<util::StatusCode>(code),
                      std::move(message));
  return Status::ok();
}

// --- ProverReport ---------------------------------------------------------

namespace {

/// Where a double's in-memory bytes already are its wire form (an IEEE-754
/// little-endian u64), a vector of them is copied in one block.
constexpr bool kWireDoublesAreNative =
    std::endian::native == std::endian::little &&
    std::numeric_limits<double>::is_iec559;

void encode_f64_vector(Writer& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (kWireDoublesAreNative) {
    w.raw(v.data(), v.size() * sizeof(double));
  } else {
    for (const double x : v) w.f64(x);
  }
}

Status decode_f64_vector(Reader& r, std::vector<double>* out,
                         const char* what) {
  std::uint32_t count = 0;
  if (!r.u32(&count) || !plausible_count(r, count, 8)) return malformed(what);
  if constexpr (kWireDoublesAreNative) {
    out->resize(count);
    if (!r.raw(out->data(), out->size() * sizeof(double)))
      return malformed(what);
    return Status::ok();
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    double x = 0.0;
    if (!r.f64(&x)) return malformed(what);
    out->push_back(x);
  }
  return Status::ok();
}

}  // namespace

void encode_prover_report(Writer& w, const ProverReport& report) {
  w.u32(static_cast<std::uint32_t>(report.bit));
  w.f64(report.flow_a);
  w.f64(report.flow_b);
  encode_f64_vector(w, report.edge_flow_a);
  encode_f64_vector(w, report.edge_flow_b);
  w.f64(report.elapsed_seconds);
  encode_status(w, report.status);
}

util::Status decode_prover_report(Reader& r, ProverReport* out) {
  std::uint32_t bit = 0;
  if (!r.u32(&bit)) return malformed("prover report");
  out->bit = static_cast<int>(bit);
  if (!r.f64(&out->flow_a) || !r.f64(&out->flow_b))
    return malformed("prover report flows");
  if (Status s = decode_f64_vector(r, &out->edge_flow_a, "edge flows A");
      !s.is_ok())
    return s;
  if (Status s = decode_f64_vector(r, &out->edge_flow_b, "edge flows B");
      !s.is_ok())
    return s;
  if (!r.f64(&out->elapsed_seconds)) return malformed("prover report time");
  return decode_status(r, &out->status);
}

// --- ChainedReport --------------------------------------------------------

void encode_chained_report(Writer& w, const ChainedReport& report) {
  w.u32(static_cast<std::uint32_t>(report.rounds.size()));
  for (const ProverReport& round : report.rounds)
    encode_prover_report(w, round);
  w.f64(report.elapsed_seconds);
  encode_status(w, report.status);
}

util::Status decode_chained_report(Reader& r, ChainedReport* out) {
  std::uint32_t count = 0;
  // A round is at least 40 bytes (bit + 2 flows + 2 empty vectors + time +
  // status); the bound only needs to defeat forged counts, not be tight.
  if (!r.u32(&count) || !plausible_count(r, count, 40))
    return malformed("chained report");
  out->rounds.clear();
  out->rounds.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ProverReport round;
    if (Status s = decode_prover_report(r, &round); !s.is_ok()) return s;
    out->rounds.push_back(std::move(round));
  }
  if (!r.f64(&out->elapsed_seconds)) return malformed("chained report time");
  return decode_status(r, &out->status);
}

// --- Prediction -----------------------------------------------------------

void encode_prediction(Writer& w, const SimulationModel::Prediction& p) {
  w.u32(static_cast<std::uint32_t>(p.bit));
  w.f64(p.flow_a);
  w.f64(p.flow_b);
  encode_status(w, p.status);
}

util::Status decode_prediction(Reader& r, SimulationModel::Prediction* out) {
  std::uint32_t bit = 0;
  if (!r.u32(&bit) || !r.f64(&out->flow_a) || !r.f64(&out->flow_b))
    return malformed("prediction");
  out->bit = static_cast<int>(bit);
  return decode_status(r, &out->status);
}

// --- AuthenticationResult -------------------------------------------------

namespace {

Status decode_bool(Reader& r, bool* out, const char* what) {
  std::uint8_t v = 0;
  if (!r.u8(&v) || v > 1) return malformed(what);
  *out = v != 0;
  return Status::ok();
}

}  // namespace

void encode_auth_result(Writer& w, const AuthenticationResult& res) {
  w.u8(res.accepted ? 1 : 0);
  w.u8(res.flows_valid ? 1 : 0);
  w.u8(res.bit_consistent ? 1 : 0);
  w.u8(res.in_time ? 1 : 0);
  w.str(res.detail);
}

util::Status decode_auth_result(Reader& r, AuthenticationResult* out) {
  for (bool* field : {&out->accepted, &out->flows_valid,
                      &out->bit_consistent, &out->in_time}) {
    if (Status s = decode_bool(r, field, "auth result"); !s.is_ok())
      return s;
  }
  if (!r.str(&out->detail)) return malformed("auth result detail");
  return Status::ok();
}

// --- ChainedVerifyResult --------------------------------------------------

void encode_chained_result(Writer& w, const ChainedVerifyResult& res) {
  w.u8(res.accepted ? 1 : 0);
  w.u8(res.chain_consistent ? 1 : 0);
  w.u8(res.rounds_valid ? 1 : 0);
  w.u8(res.in_time ? 1 : 0);
  w.str(res.detail);
}

util::Status decode_chained_result(Reader& r, ChainedVerifyResult* out) {
  for (bool* field : {&out->accepted, &out->chain_consistent,
                      &out->rounds_valid, &out->in_time}) {
    if (Status s = decode_bool(r, field, "chained result"); !s.is_ok())
      return s;
  }
  if (!r.str(&out->detail)) return malformed("chained result detail");
  return Status::ok();
}

// --- SimulationModel ------------------------------------------------------

void encode_sim_model(Writer& w, const SimulationModel& model) {
  const CrossbarLayout& layout = model.layout();
  w.u32(static_cast<std::uint32_t>(layout.node_count()));
  w.u32(static_cast<std::uint32_t>(layout.grid_size()));
  w.f64(model.comparator_offset());
  for (graph::EdgeId e = 0; e < layout.edge_count(); ++e) {
    w.f64(model.capacity(0, e, 0));
    w.f64(model.capacity(0, e, 1));
    w.f64(model.capacity(1, e, 0));
    w.f64(model.capacity(1, e, 1));
  }
}

util::Status decode_sim_model(Reader& r, SimulationModel* out) {
  std::uint32_t nodes = 0, grid = 0;
  double offset = 0.0;
  if (!r.u32(&nodes) || !r.u32(&grid) || !r.f64(&offset))
    return malformed("model header");
  // Same geometry rules as the text loader, plus a remaining-bytes bound so
  // a forged node count cannot demand a quadratic allocation: the table
  // itself must fit in the bytes the caller actually has.
  if (nodes < 2 || grid < 1 || grid > nodes)
    return malformed("model geometry");
  const std::size_t edges =
      static_cast<std::size_t>(nodes) * (static_cast<std::size_t>(nodes) - 1);
  if (edges > r.remaining() / 32) return malformed("model geometry");
  std::array<std::vector<std::array<double, 2>>, 2> capacities;
  for (auto& caps : capacities) caps.resize(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    double v[4] = {};
    for (double& x : v) {
      if (!r.f64(&x)) return malformed("model capacity table");
      if (!std::isfinite(x) || x < 0.0)
        return malformed("model capacity value");
    }
    capacities[0][e] = {v[0], v[1]};
    capacities[1][e] = {v[2], v[3]};
  }
  *out = SimulationModel::restore(CrossbarLayout(nodes, grid),
                                  std::move(capacities), offset);
  return Status::ok();
}

// --- report files ---------------------------------------------------------

namespace {

constexpr char kReportMagic[8] = {'p', 'p', 'u', 'f', 'r', 'e', 'p', '1'};

}  // namespace

void write_chained_report(std::ostream& os, const ChainedReport& report) {
  Writer w;
  encode_chained_report(w, report);
  os.write(kReportMagic, sizeof(kReportMagic));
  Writer len;
  len.u32(static_cast<std::uint32_t>(w.bytes().size()));
  os.write(reinterpret_cast<const char*>(len.bytes().data()),
           static_cast<std::streamsize>(len.bytes().size()));
  os.write(reinterpret_cast<const char*>(w.bytes().data()),
           static_cast<std::streamsize>(w.bytes().size()));
}

util::Status read_chained_report(std::istream& is, ChainedReport* out) {
  char magic[sizeof(kReportMagic)] = {};
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kReportMagic, sizeof(magic)) != 0)
    return malformed("report file magic");
  std::uint8_t len_bytes[4] = {};
  if (!is.read(reinterpret_cast<char*>(len_bytes), sizeof(len_bytes)))
    return malformed("report file length");
  Reader len_reader(len_bytes, sizeof(len_bytes));
  std::uint32_t len = 0;
  len_reader.u32(&len);
  // Reject absurd lengths before allocating: a corrupt header must not be
  // able to demand gigabytes.
  constexpr std::uint32_t kMaxReportBytes = 256u * 1024 * 1024;
  if (len > kMaxReportBytes) return malformed("report file length");
  std::vector<std::uint8_t> payload(len);
  if (len > 0 &&
      !is.read(reinterpret_cast<char*>(payload.data()), len))
    return malformed("report file payload (truncated)");
  Reader r(payload.data(), payload.size());
  if (util::Status s = decode_chained_report(r, out); !s.is_ok()) return s;
  if (!r.exhausted())
    return malformed("report file payload (trailing bytes)");
  return Status::ok();
}

}  // namespace ppuf::protocol::codec
