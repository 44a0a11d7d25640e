// Circuit netlist: nodes plus device instances, the input to the DC and
// transient solvers.  Node 0 is ground.  Floating voltage sources (used for
// the gate-bias batteries of the source-degenerated building block) are
// fully supported through MNA branch currents.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/devices.hpp"

namespace ppuf::circuit {

using NodeId = std::uint32_t;
constexpr NodeId kGround = 0;

/// Two-terminal element defined by an arbitrary C1 current law
/// i(v), di/dv — lets characterised compact models (e.g. a whole PPUF
/// building block) be placed in a netlist like any primitive device.
struct NonlinearLaw {
  /// Returns current for branch voltage v and writes dI/dv to *conductance.
  std::function<double(double v, double* conductance)> law;
};

class Netlist {
 public:
  Netlist();

  /// Creates a new node; name is for diagnostics only.
  NodeId add_node(std::string name = "");

  /// Remove every device and every node but ground, keeping the buffers,
  /// so a same-topology netlist can be rebuilt in place without
  /// allocating.
  void clear();

  std::size_t node_count() const { return node_names_.size(); }
  const std::string& node_name(NodeId n) const { return node_names_[n]; }

  void add_resistor(NodeId a, NodeId b, double resistance);
  void add_capacitor(NodeId a, NodeId b, double capacitance);
  void add_diode(NodeId anode, NodeId cathode, const DiodeParams& params);
  /// NMOS with terminals drain/gate/source (no bulk; body effect ignored).
  void add_mosfet(NodeId drain, NodeId gate, NodeId source,
                  const MosfetParams& params);
  /// Independent voltage source (pos - neg = volts); may float.  Returns a
  /// handle usable with set_voltage (for sweeps).
  std::size_t add_voltage_source(NodeId pos, NodeId neg, double volts);
  /// Independent current source pushing `amps` from `from` into `to`.
  void add_current_source(NodeId from, NodeId to, double amps);
  /// Generic two-terminal nonlinear element, current flows a -> b.
  void add_nonlinear(NodeId a, NodeId b, NonlinearLaw law);

  void set_voltage(std::size_t source_handle, double volts);
  double voltage(std::size_t source_handle) const;
  std::size_t voltage_source_count() const { return vsources_.size(); }

  // --- element storage, read by the solvers ---
  struct Resistor { NodeId a, b; double resistance; };
  struct Capacitor { NodeId a, b; double capacitance; };
  struct Diode { NodeId anode, cathode; DiodeParams params; };
  struct Mosfet { NodeId drain, gate, source; MosfetParams params; };
  struct VSource { NodeId pos, neg; double volts; };
  struct ISource { NodeId from, to; double amps; };
  struct Nonlinear { NodeId a, b; NonlinearLaw law; };

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Diode>& diodes() const { return diodes_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<Nonlinear>& nonlinears() const { return nonlinears_; }

  /// Mutable device access so variation / environment models can adjust
  /// parameters after construction.
  std::vector<Diode>& diodes() { return diodes_; }
  std::vector<Mosfet>& mosfets() { return mosfets_; }
  std::vector<Resistor>& resistors() { return resistors_; }
  /// Mutable source access for homotopy continuation (source stepping
  /// scales every excitation on a netlist copy) and fault injection.
  std::vector<VSource>& vsources() { return vsources_; }
  std::vector<ISource>& isources() { return isources_; }

 private:
  void check_node(NodeId n) const;

  std::vector<std::string> node_names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Diode> diodes_;
  std::vector<Mosfet> mosfets_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Nonlinear> nonlinears_;
};

}  // namespace ppuf::circuit
