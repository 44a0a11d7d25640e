// The PPUF basic building block (Section 3.1, Fig. 2).
//
// Evolution of the design:
//   (a) kBare     — diode + one saturated MOSFET (controllable max current,
//                   but channel-length modulation / SCE moves Isat with Vds)
//   (b) kSingleSd — source-degeneration resistor stabilises the current
//   (c) kDoubleSd — nested degeneration (cascode M1 over M2 over R1) with a
//                   headroom source Vb; the design the PPUF uses
//   (d) the full block: two kDoubleSd stages in series driven by
//       complementary control voltages (Vgs0 + Vgs1 = Vc) plus diodes at
//       both ends.  Input bit selects which stage limits the current.
//
// Each block instantiates one directed edge of the complete graph; its
// saturation current is the edge capacity.
#pragma once

#include <memory>

#include "circuit/dc.hpp"
#include "circuit/env.hpp"
#include "circuit/netlist.hpp"
#include "circuit/variation.hpp"
#include "ppuf/compact.hpp"
#include "ppuf/params.hpp"

namespace ppuf::circuit {
class SymbolicCache;  // circuit/mna.hpp
}

namespace ppuf {

enum class BlockDesign { kBare, kSingleSd, kDoubleSd };

/// A netlist with its sweep source: the source drives the block's top
/// terminal against ground, and its branch current is the block current.
struct SweepCircuit {
  circuit::Netlist netlist;
  std::size_t sweep_source = 0;
};

/// Single-stage test circuit for the Fig. 2(a)-(c) design evolution
/// (used by the Fig. 3a reproduction and the Requirement-2 study).
/// `vgs` is the control voltage; variation may be null for nominal devices.
SweepCircuit build_stage_test(const PpufParams& params, BlockDesign design,
                              double vgs,
                              const circuit::BlockVariation* variation,
                              const circuit::Environment& env);

/// Full two-stage building block of Fig. 2(d) for the given input bit.
SweepCircuit build_block(const PpufParams& params,
                         const circuit::BlockVariation& variation,
                         int input_bit, const circuit::Environment& env);

/// Instantiate the Fig. 2(d) block between two existing nodes of `nl`
/// (conduction direction top -> bottom): diode, the two complementary
/// kDoubleSd stages with their gate batteries, diode.  This is the flat
/// transistor-level form used when a whole crossbar is assembled into one
/// MNA system (device_netlist.hpp); build_block wraps it with a sweep
/// source for stand-alone characterisation.
void append_block(circuit::Netlist& nl, const PpufParams& params,
                  const circuit::BlockVariation& variation, int input_bit,
                  circuit::NodeId top, circuit::NodeId bottom,
                  const circuit::Environment& env);

/// Characterised block: a monotone compact I-V curve plus the saturation
/// current used as the edge capacity in the public simulation model.
struct BlockCurve {
  MonotoneCurve iv;
  double isat = 0.0;  ///< current at the capacity reference voltage [A]
};

/// Voltage at which the saturation current (edge capacity) is read off.
/// Mid-plateau: far above the block's turn-on knee, below V(s).
constexpr double kCapacityReferenceVoltage = 1.4;

/// Sweep the device-level block netlist and build its compact model.
/// This is the expensive step; CrossbarNetwork caches the result per
/// (block, input bit, environment).  `symbolic_cache` (optional) shares the
/// MNA pattern + sparse-LU symbolic analysis across calls: every block of a
/// device has the same netlist topology, so the whole device analyses once.
BlockCurve characterize_block(
    const PpufParams& params, const circuit::BlockVariation& variation,
    int input_bit, const circuit::Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache = nullptr);

/// Characterises many blocks of one design at one environment, reusing the
/// grid, the sweep netlist, the DC solver and its operating points from
/// block to block (a device has 4 n (n-1) blocks; characterize_block is
/// this class used once).  Not thread-safe: one instance per thread.
class BlockCharacterizer {
 public:
  BlockCharacterizer(const PpufParams& params,
                     const circuit::Environment& env,
                     std::shared_ptr<circuit::SymbolicCache> symbolic_cache =
                         nullptr);
  // The solver holds a reference to this object's own netlist.
  BlockCharacterizer(const BlockCharacterizer&) = delete;
  BlockCharacterizer& operator=(const BlockCharacterizer&) = delete;

  /// The full compact model: the whole characterisation grid, 0 V upward
  /// then downward, warm-started point to point.
  BlockCurve curve(const circuit::BlockVariation& variation, int input_bit);

  /// Only the saturation current, bit-identical to curve(...).isat.  When
  /// the reference voltage kCapacityReferenceVoltage * vdd_scale is a grid
  /// knot (it is at nominal supply) this sweeps just 0 V up to that knot
  /// and builds no curve; otherwise it runs curve().
  double capacity(const circuit::BlockVariation& variation, int input_bit);

 private:
  /// Rebuild the sweep netlist for one block (same topology every time).
  void load(const circuit::BlockVariation& variation, int input_bit);
  /// Solve grid points zero_index_..last upward (warm-started from 0 V)
  /// and, when `negative`, the points below 0 V downward, into currents_.
  void sweep(std::size_t last, bool negative);

  static constexpr std::size_t kNoKnot = static_cast<std::size_t>(-1);

  PpufParams params_;
  circuit::Environment env_;
  std::vector<double> grid_;
  std::size_t zero_index_;
  /// Grid index of the capacity reference voltage; kNoKnot when it is not
  /// a knot at or above 0 V.
  std::size_t reference_index_ = kNoKnot;
  std::vector<double> currents_;
  SweepCircuit circuit_;
  circuit::DcSolver solver_;  // bound to circuit_.netlist
  circuit::OperatingPoint at_zero_;
  circuit::OperatingPoint points_[2];  // ping-pong: warm start, solution
};

/// I-V samples of a sweep circuit at the given voltages (exposed for the
/// Fig. 3 bench and tests).
std::vector<double> sweep_current(
    SweepCircuit& circuit, std::span<const double> voltages,
    const circuit::Environment& env,
    std::shared_ptr<circuit::SymbolicCache> symbolic_cache = nullptr);

/// The characterisation voltage grid: dense around the knee, sparser on the
/// plateau, with a small negative segment for the diode-blocked region.
std::vector<double> characterization_grid(const PpufParams& params);

}  // namespace ppuf
