// DC operating-point solver: modified nodal analysis with damped Newton.
// This is the "SPICE" of the project — Section 5 of the paper acquires all
// circuit outputs from SPICE; we acquire them from here.
//
// The linear core inside Newton is sparse by default (slot-replayed
// assembly + Gilbert–Peierls LU with a shared symbolic analysis; see
// mna.hpp and numeric/sparse_lu.hpp).  The original dense path is kept
// behind DcOptions::use_dense_solver as the differential-testing oracle;
// set_default_dense_solver() forces it process-wide for code paths that
// build their own DcOptions.
//
// Debugging: set the environment variable PPUF_NEWTON_TRACE=1 to stream a
// per-iteration residual/step trace to stderr.
#pragma once

#include <memory>
#include <mutex>

#include "circuit/netlist.hpp"
#include "circuit/solve_diagnostics.hpp"
#include "numeric/matrix.hpp"

namespace ppuf::circuit {

class SymbolicCache;     // circuit/mna.hpp
struct MnaStructure;     // circuit/mna.hpp

/// Process-wide default for DcOptions::use_dense_solver (false unless
/// overridden).  Tests and benches flip it to run entire subsystems —
/// including code that constructs its own DcOptions internally — through
/// the dense oracle.  Not synchronised: set it before spawning solver
/// threads.
bool default_dense_solver();
void set_default_dense_solver(bool dense);

struct DcOptions {
  int max_iterations = 200;
  double voltage_tol = 1e-8;       ///< convergence: max |dV| [V]
  /// Convergence: max node KCL error [A].  10 pA is ~0.03% of the ~30 nA
  /// block currents — far below the process-variation signal.
  double residual_tol = 1e-11;
  double step_limit = 0.3;         ///< max |dV| applied per iteration [V]
  double gmin = 1e-12;             ///< conductance from every node to ground
  double temperature_c = 27.0;     ///< device temperature
  /// Escalate through the convergence-recovery ladder (gmin stepping ->
  /// source stepping -> tightened damping) when the direct Newton solve
  /// stalls.  Disable only to observe the bare solver (tests do).
  bool enable_recovery = true;
  /// Solve the Newton linear systems with the dense LU oracle instead of
  /// the sparse default.  Differential tests diff the two paths bit-level.
  bool use_dense_solver = default_dense_solver();
  /// Optional shared cache of topology structures (pattern + symbolic
  /// analysis), so same-topology netlists — e.g. every block of a device —
  /// analyse once.  Null means per-solver caching only.
  std::shared_ptr<SymbolicCache> symbolic_cache;
};

/// Solution of a DC analysis.
struct OperatingPoint {
  numeric::Vector node_voltage;     ///< indexed by NodeId (ground included, 0)
  numeric::Vector vsource_current;  ///< current out of each source's + pin
  int iterations = 0;
  bool converged = false;
  double residual = 0.0;            ///< final max KCL error [A]
  /// Which recovery-ladder rung produced this point and what every
  /// attempted rung cost; `diagnostics.converged` mirrors `converged`.
  SolveDiagnostics diagnostics;

  double voltage(NodeId n) const { return node_voltage.at(n); }
  /// Current delivered by voltage source `handle` (flowing out of its
  /// positive terminal into the circuit).
  double source_current(std::size_t handle) const {
    return vsource_current.at(handle);
  }
};

class DcSolver {
 public:
  explicit DcSolver(const Netlist& netlist, DcOptions options = {});

  /// Solve for the operating point.  `warm_start` (a previous solution for
  /// the same netlist) accelerates sweeps; pass nullptr for a cold start.
  OperatingPoint solve(const OperatingPoint* warm_start = nullptr) const;

  /// The same solve written into `out`, reusing its buffers (sweeps call
  /// this once per point).  `warm_start` may alias `out`.
  void solve(const OperatingPoint* warm_start, OperatingPoint* out) const;

  const DcOptions& options() const { return options_; }

 private:
  const Netlist& netlist_;
  DcOptions options_;
  // Topology structure, built lazily on the first sparse solve and reused
  // for the solver's lifetime (shared through options_.symbolic_cache when
  // one is present).  Guarded: DcSolver::solve is const and may be called
  // from several threads.
  mutable std::mutex structure_mu_;
  mutable std::shared_ptr<const MnaStructure> structure_;
};

}  // namespace ppuf::circuit
