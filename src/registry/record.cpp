#include "registry/record.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace ppuf::registry {

namespace {

using protocol::codec::Reader;
using protocol::codec::Writer;
using util::Status;

Status malformed(const char* what) {
  return Status::invalid_argument(std::string("malformed ") + what);
}

}  // namespace

void encode_device_entry(Writer& w, const DeviceEntry& e) {
  w.u64(e.id);
  w.u32(e.nodes);
  w.u32(e.grid);
  w.str(e.label);
  w.u8(e.revoked ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(e.model_bytes.size()));
  w.raw(e.model_bytes.data(), e.model_bytes.size());
}

util::Status decode_device_entry(Reader& r, DeviceEntry* out,
                                 backend::BackendKind kind) {
  const backend::PufBackend* impl = backend::find_backend(kind);
  if (impl == nullptr) return malformed("device entry backend");
  out->backend = kind;
  std::uint8_t revoked = 0;
  std::uint32_t model_len = 0;
  if (!r.u64(&out->id) || !r.u32(&out->nodes) || !r.u32(&out->grid) ||
      !r.str(&out->label) || !r.u8(&revoked))
    return malformed("device entry");
  if (revoked > 1) return malformed("device entry revoked flag");
  out->revoked = revoked != 0;
  if (!r.u32(&model_len) || model_len > r.remaining())
    return malformed("device entry model length");
  out->model_bytes.resize(model_len);
  if (!r.raw(out->model_bytes.data(), model_len))
    return malformed("device entry model");
  // The blob must itself be a valid model of the tagged backend whose
  // header agrees with the entry's mirror fields — catching a mismatch
  // here, at decode time, means hydration can never materialise a model
  // for the wrong geometry (or the wrong backend).
  return impl->validate_model(out->model_bytes.data(),
                              out->model_bytes.size(), out->nodes,
                              out->grid);
}

void encode_wal_record(Writer& w, const WalRecord& record) {
  w.u8(static_cast<std::uint8_t>(record.type));
  switch (record.type) {
    case WalRecord::Type::kEnroll:
      encode_device_entry(w, record.entry);
      break;
    case WalRecord::Type::kEnrollTagged:
      w.u8(static_cast<std::uint8_t>(record.entry.backend));
      encode_device_entry(w, record.entry);
      break;
    case WalRecord::Type::kRevoke:
      w.u64(record.entry.id);
      break;
  }
}

util::Status decode_wal_record(Reader& r, WalRecord* out) {
  std::uint8_t type = 0;
  if (!r.u8(&type)) return malformed("wal record");
  switch (type) {
    case static_cast<std::uint8_t>(WalRecord::Type::kEnroll):
      out->type = WalRecord::Type::kEnroll;
      if (Status s = decode_device_entry(r, &out->entry); !s.is_ok())
        return s;
      break;
    case static_cast<std::uint8_t>(WalRecord::Type::kEnrollTagged): {
      out->type = WalRecord::Type::kEnrollTagged;
      std::uint8_t tag = 0;
      if (!r.u8(&tag)) return malformed("wal record backend");
      const auto kind = static_cast<backend::BackendKind>(tag);
      if (backend::find_backend(kind) == nullptr)
        return malformed("wal record backend");
      if (Status s = decode_device_entry(r, &out->entry, kind); !s.is_ok())
        return s;
      break;
    }
    case static_cast<std::uint8_t>(WalRecord::Type::kRevoke):
      out->type = WalRecord::Type::kRevoke;
      out->entry = DeviceEntry{};
      if (!r.u64(&out->entry.id)) return malformed("revoke record");
      break;
    default:
      return malformed("wal record type");
  }
  if (!r.exhausted()) return malformed("wal record (trailing bytes)");
  return Status::ok();
}

std::vector<std::uint8_t> frame_record(const WalRecord& record) {
  Writer body;
  encode_wal_record(body, record);
  Writer frame;
  frame.u32(kRecordMagic);
  frame.u32(static_cast<std::uint32_t>(body.bytes().size()));
  frame.u32(util::crc32c(body.bytes().data(), body.bytes().size()));
  frame.raw(body.bytes().data(), body.bytes().size());
  return frame.take();
}

ExtractStatus extract_record(const std::uint8_t* data, std::size_t size,
                             std::size_t* consumed,
                             std::vector<std::uint8_t>* body,
                             std::string* error) {
  *consumed = 0;
  body->clear();
  constexpr std::size_t kHeader = 12;  // magic + body_len + crc
  if (size < kHeader) return ExtractStatus::kNeedMore;
  Reader r(data, size);
  std::uint32_t magic = 0, body_len = 0, crc = 0;
  r.u32(&magic);
  r.u32(&body_len);
  r.u32(&crc);
  if (magic != kRecordMagic) {
    *error = "bad record magic";
    return ExtractStatus::kCorrupt;
  }
  if (body_len > kMaxBodyBytes) {
    *error = "implausible record length";
    return ExtractStatus::kCorrupt;
  }
  if (size - kHeader < body_len) return ExtractStatus::kNeedMore;
  if (util::crc32c(data + kHeader, body_len) != crc) {
    *error = "record checksum mismatch";
    return ExtractStatus::kCorrupt;
  }
  body->assign(data + kHeader, data + kHeader + body_len);
  *consumed = kHeader + body_len;
  return ExtractStatus::kOk;
}

void encode_snapshot_body(Writer& w, const SnapshotBody& s,
                          std::uint32_t version) {
  w.u64(s.next_id);
  w.u32(static_cast<std::uint32_t>(s.entries.size()));
  for (const DeviceEntry& e : s.entries) {
    if (version >= 2) w.u8(static_cast<std::uint8_t>(e.backend));
    encode_device_entry(w, e);
  }
}

util::Status decode_snapshot_body(Reader& r, SnapshotBody* out,
                                  std::uint32_t version) {
  std::uint32_t count = 0;
  if (!r.u64(&out->next_id) || !r.u32(&count))
    return malformed("snapshot header");
  // An entry is at least 25 bytes (id + nodes + grid + empty label +
  // revoked + empty blob length); enough to defeat a forged count.
  if (static_cast<std::size_t>(count) > r.remaining() / 25)
    return malformed("snapshot entry count");
  out->entries.clear();
  out->entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto kind = backend::BackendKind::kMaxFlow;
    if (version >= 2) {
      std::uint8_t tag = 0;
      if (!r.u8(&tag)) return malformed("snapshot entry backend");
      kind = static_cast<backend::BackendKind>(tag);
      if (backend::find_backend(kind) == nullptr)
        return malformed("snapshot entry backend");
    }
    DeviceEntry e;
    if (Status s = decode_device_entry(r, &e, kind); !s.is_ok()) return s;
    out->entries.push_back(std::move(e));
  }
  if (!r.exhausted()) return malformed("snapshot (trailing bytes)");
  return Status::ok();
}

std::vector<std::uint8_t> frame_snapshot(const SnapshotBody& snapshot) {
  bool all_maxflow = true;
  for (const DeviceEntry& e : snapshot.entries) {
    if (e.backend != backend::BackendKind::kMaxFlow) all_maxflow = false;
  }
  const std::uint32_t version = all_maxflow ? 1 : 2;
  Writer body;
  encode_snapshot_body(body, snapshot, version);
  Writer file;
  file.raw(version == 1 ? kSnapshotMagic : kSnapshotMagicV2,
           sizeof(kSnapshotMagic));
  file.u32(static_cast<std::uint32_t>(body.bytes().size()));
  file.u32(util::crc32c(body.bytes().data(), body.bytes().size()));
  file.raw(body.bytes().data(), body.bytes().size());
  return file.take();
}

util::Status parse_snapshot(const std::uint8_t* data, std::size_t size,
                            SnapshotBody* out) {
  constexpr std::size_t kHeader = sizeof(kSnapshotMagic) + 8;
  std::uint32_t version = 0;
  if (size >= kHeader) {
    if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) == 0)
      version = 1;
    else if (std::memcmp(data, kSnapshotMagicV2,
                         sizeof(kSnapshotMagicV2)) == 0)
      version = 2;
  }
  if (version == 0) return malformed("snapshot magic");
  Reader header(data + sizeof(kSnapshotMagic), 8);
  std::uint32_t body_len = 0, crc = 0;
  header.u32(&body_len);
  header.u32(&crc);
  if (body_len > kMaxBodyBytes || size - kHeader != body_len)
    return malformed("snapshot length");
  if (util::crc32c(data + kHeader, body_len) != crc)
    return malformed("snapshot checksum");
  Reader body(data + kHeader, body_len);
  return decode_snapshot_body(body, out, version);
}

}  // namespace ppuf::registry
