// Internal: shared Newton/MNA machinery for the DC and transient solvers.
// Not part of the public API.
#pragma once

#include <memory>

#include "circuit/dc.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"

namespace ppuf::circuit::detail {

/// Runs damped Newton on the MNA system of `netlist`.
/// Unknown layout: x[0 .. N-2] node voltages for nodes 1..N-1 (ground
/// excluded), followed by one branch current per voltage source.
///
/// `structure` (optional) is the cached topology structure for this
/// netlist + extra-stamp combination; when null (and the sparse path is
/// active) it is built locally for the call.  Sharing it across calls is
/// what amortises the pattern build and the LU symbolic analysis.
///
/// Newton vectors, the sparse value workspace and the LU buffers live in a
/// per-thread workspace reused across calls; every call still starts its
/// linear solves from `structure->symbolic()`, as a fresh LU would.
OperatingPoint solve_newton(
    const Netlist& netlist, const DcOptions& options, const ExtraStamp& extra,
    const OperatingPoint* warm_start,
    std::shared_ptr<const MnaStructure> structure = nullptr);

/// The same solve written into `out`, reusing its buffers; `warm_start`
/// may alias `out`.
void solve_newton(const Netlist& netlist, const DcOptions& options,
                  const ExtraStamp& extra, const OperatingPoint* warm_start,
                  std::shared_ptr<const MnaStructure> structure,
                  OperatingPoint* out);

}  // namespace ppuf::circuit::detail
