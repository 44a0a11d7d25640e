#include "fixtures.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "backend/pdl_backend.hpp"
#include "registry/device_registry.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ppuf::util::Status;

namespace {

const ppuf::backend::PufBackend& backend_of(BackendKind kind) {
  return *ppuf::backend::find_backend(kind);
}

ppuf::PpufParams maxflow_params() {
  ppuf::PpufParams p;
  p.node_count = kMaxflowNodes;
  p.grid_size = kMaxflowGrid;
  return p;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  // splitmix64 over the three words: independent streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                    (purpose + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL ^
                    (index + 1) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status BlobCache::maxflow_blob(std::uint64_t fab_seed,
                               std::vector<std::uint8_t>* out) const {
  const auto& impl = backend_of(BackendKind::kMaxFlow);
  const fs::path path =
      fs::path(dir_) / ("maxflow_n" + std::to_string(kMaxflowNodes) + "_g" +
                        std::to_string(kMaxflowGrid) + "_s" +
                        std::to_string(fab_seed) + ".blob");
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      out->assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
      if (impl.validate_model(out->data(), out->size(), kMaxflowNodes,
                              kMaxflowGrid)
              .is_ok())
        return Status::ok();
    }
  }
  ppuf::backend::FabricateRequest req;
  req.node_count = kMaxflowNodes;
  req.grid_size = kMaxflowGrid;
  req.seed = fab_seed;
  if (Status s = impl.fabricate(req, nullptr, out); !s.is_ok()) return s;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream o(tmp, std::ios::binary | std::ios::trunc);
    o.write(reinterpret_cast<const char*>(out->data()),
            static_cast<std::streamsize>(out->size()));
    if (!o) return Status::internal("cannot write " + tmp.string());
  }
  fs::rename(tmp, path, ec);
  if (ec) return Status::internal("cannot rename " + tmp.string());
  return Status::ok();
}

Status make_device(std::uint64_t id, BackendKind kind, std::uint64_t fab_seed,
                   std::shared_ptr<const std::vector<std::uint8_t>> blob,
                   Device* out) {
  out->id = id;
  out->kind = kind;
  out->fab_seed = fab_seed;
  out->blob = std::move(blob);
  std::unique_ptr<ppuf::backend::Device> oracle;
  if (Status s = backend_of(kind).materialize(*out->blob, {}, &oracle);
      !s.is_ok())
    return s;
  out->oracle = std::move(oracle);
  if (kind == BackendKind::kMaxFlow)
    out->chip = std::make_shared<ppuf::MaxFlowPpuf>(maxflow_params(), fab_seed);
  else
    out->pdl = ppuf::backend::fabricate_pdl_instances(kPdlStages,
                                                      kPdlInstances, fab_seed);
  return Status::ok();
}

Status make_pdl_device(std::uint64_t id, std::uint64_t fab_seed, Device* out) {
  ppuf::backend::FabricateRequest req;
  req.node_count = kPdlStages;
  req.grid_size = kPdlInstances;
  req.seed = fab_seed;
  auto blob = std::make_shared<std::vector<std::uint8_t>>();
  if (Status s = backend_of(BackendKind::kPdlDelay).fabricate(req, nullptr,
                                                             blob.get());
      !s.is_ok())
    return s;
  return make_device(id, BackendKind::kPdlDelay, fab_seed, std::move(blob),
                     out);
}

VerifyItem honest_item(Device& device, const Challenge& c) {
  VerifyItem item;
  item.challenge = c;
  item.honest = true;
  if (device.kind == BackendKind::kMaxFlow)
    item.report =
        ppuf::protocol::prove_with_ppuf(*device.chip, c, kChipDelaySeconds);
  else
    item.report = ppuf::backend::prove_chain_with_pdl(device.pdl, c, 1, 0,
                                                      kChipDelaySeconds)
                      .rounds.front();
  item.expect_accept = device.oracle->verify(c, item.report).accepted;
  return item;
}

VerifyItem forged_item(const Device& device, const VerifyItem& honest) {
  VerifyItem item = honest;
  item.honest = false;
  item.pool_id = -1;
  item.report.bit ^= 1;
  item.expect_accept =
      device.oracle->verify(item.challenge, item.report).accepted;
  return item;
}

ppuf::protocol::ChainedReport prove_chain(const Device& device,
                                          const Challenge& first,
                                          std::size_t k, std::uint64_t nonce) {
  if (device.kind == BackendKind::kPdlDelay)
    return ppuf::backend::prove_chain_with_pdl(device.pdl, first, k, nonce,
                                               kChipDelaySeconds);
  return ppuf::protocol::prove_chain_by_simulation(*device.oracle->sim_model(),
                                                   first, k, nonce);
}

ppuf::registry::DeviceEntry registry_entry(const Device& device,
                                           const std::string& label) {
  ppuf::registry::DeviceEntry e;
  e.id = device.id;
  e.backend = device.kind;
  if (device.kind == BackendKind::kMaxFlow) {
    e.nodes = kMaxflowNodes;
    e.grid = kMaxflowGrid;
  } else {
    e.nodes = kPdlStages;
    e.grid = kPdlInstances;
  }
  e.label = label;
  e.model_bytes = *device.blob;
  return e;
}

Status write_registry(const std::string& dir,
                      const std::vector<ppuf::registry::DeviceEntry>& snapshot,
                      const std::vector<ppuf::registry::DeviceEntry>& tail) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ppuf::registry::DeviceRegistry reg;
  ppuf::registry::DeviceRegistry::Options options;
  options.auto_compact_records = 0;
  if (Status s = reg.open(dir, options); !s.is_ok()) return s;
  const auto append = [&](const ppuf::registry::DeviceEntry& e) {
    ppuf::registry::WalRecord rec;
    rec.type = e.backend == BackendKind::kMaxFlow
                   ? ppuf::registry::WalRecord::Type::kEnroll
                   : ppuf::registry::WalRecord::Type::kEnrollTagged;
    rec.entry = e;
    const std::vector<std::uint8_t> bytes = ppuf::registry::frame_record(rec);
    std::size_t consumed = 0;
    Status s = reg.apply_wal_bytes(bytes.data(), bytes.size(), &consumed);
    if (s.is_ok() && consumed != bytes.size())
      s = Status::internal("registry fixture: record not consumed");
    return s;
  };
  for (const auto& e : snapshot)
    if (Status s = append(e); !s.is_ok()) return s;
  if (!snapshot.empty())
    if (Status s = reg.compact(); !s.is_ok()) return s;
  for (const auto& e : tail)
    if (Status s = append(e); !s.is_ok()) return s;
  return Status::ok();
}

}  // namespace perfbench
