// Fixture work of the benchmark: device fleets, public-model blobs, honest
// and forged reports, oracle devices and pre-built registry directories.
// Everything here runs outside the clock and outside setup_s.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "ppuf/challenge.hpp"
#include "ppuf/ppuf.hpp"
#include "protocol/authentication.hpp"
#include "puf/arbiter.hpp"
#include "registry/record.hpp"
#include "util/status.hpp"

namespace perfbench {

using ppuf::Challenge;
using ppuf::backend::BackendKind;

/// Paper-scale max-flow geometry served by every workload.
inline constexpr std::size_t kMaxflowNodes = 64;
inline constexpr std::size_t kMaxflowGrid = 8;
/// PDL geometry of the repository's per-backend fleet leg (a 64-stage
/// single chain).
inline constexpr std::size_t kPdlStages = 64;
inline constexpr std::size_t kPdlInstances = 1;
/// Modelled chip execution time an honest holder reports.
inline constexpr double kChipDelaySeconds = 1e-6;

/// Fabricated max-flow public-model blobs, cached on disk by geometry and
/// fabrication seed.  Devices are fixed per workload (the traffic, not the
/// silicon, derives from --seed), so a blob is fabricated once per build
/// directory; a cached blob is re-validated before use.
class BlobCache {
 public:
  explicit BlobCache(std::string dir) : dir_(std::move(dir)) {}
  ppuf::util::Status maxflow_blob(std::uint64_t fab_seed,
                                  std::vector<std::uint8_t>* out) const;

 private:
  std::string dir_;
};

/// One enrolled device as the holder and the oracle see it.
struct Device {
  std::uint64_t id = 0;
  BackendKind kind = BackendKind::kMaxFlow;
  std::uint64_t fab_seed = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> blob;
  /// Oracle: materialised from the same blob, used outside the clock.
  std::shared_ptr<const ppuf::backend::Device> oracle;
  /// Holder side.  Max-flow: the fabricated chip (shared by every id that
  /// reuses the blob; chip execution mutates solver state, so callers
  /// proving concurrently need their own).  PDL: the instances.
  std::shared_ptr<ppuf::MaxFlowPpuf> chip;
  std::vector<ppuf::puf::ArbiterPuf> pdl;
};

/// Build a device record from a blob (materialises the oracle).
ppuf::util::Status make_device(std::uint64_t id, BackendKind kind,
                               std::uint64_t fab_seed,
                               std::shared_ptr<const std::vector<std::uint8_t>> blob,
                               Device* out);

/// A PDL device fabricated from its seed (microseconds).
ppuf::util::Status make_pdl_device(std::uint64_t id, std::uint64_t fab_seed,
                                   Device* out);

/// A VERIFY input with its expected verdict.
struct VerifyItem {
  Challenge challenge;
  ppuf::protocol::ProverReport report;
  bool honest = true;
  /// The oracle's verdict on exactly these bytes, computed outside the
  /// clock; the served verdict must equal it.
  bool expect_accept = false;
  /// Index in the workload's VERIFY pool (-1: generated fresh per op).
  int pool_id = -1;
};

/// Honest report for `c`: chip execution (max-flow) or the PDL instances.
VerifyItem honest_item(Device& device, const Challenge& c);
/// Forgery of an honest report: the response bit flipped, so the claimed
/// flows stay maximal and the verifier does its full residual check before
/// the bit comparison rejects it.
VerifyItem forged_item(const Device& device, const VerifyItem& honest);

/// Honest chained proof for a server grant.  Max-flow chains are proved
/// by exact simulation of the public model (the holder's chip costs
/// ~15 ms per round, which would dominate a probe's wall time); PDL
/// chains run on the instances.
ppuf::protocol::ChainedReport prove_chain(const Device& device,
                                          const Challenge& first,
                                          std::size_t k, std::uint64_t nonce);

/// Registry entry for a device.
ppuf::registry::DeviceEntry registry_entry(const Device& device,
                                           const std::string& label);

/// Write a registry directory: `snapshot` folded into snapshot.bin, then
/// `tail` appended as WAL records (replayed by the next open()).
ppuf::util::Status write_registry(
    const std::string& dir,
    const std::vector<ppuf::registry::DeviceEntry>& snapshot,
    const std::vector<ppuf::registry::DeviceEntry>& tail);

/// Independent seeded stream for (seed, purpose, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index = 0);

}  // namespace perfbench
