#include "circuit/netlist.hpp"

#include <stdexcept>

namespace ppuf::circuit {

Netlist::Netlist() { node_names_.push_back("gnd"); }

NodeId Netlist::add_node(std::string name) {
  const auto id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  node_names_.push_back(std::move(name));
  return id;
}

void Netlist::clear() {
  node_names_.resize(1);
  resistors_.clear();
  capacitors_.clear();
  diodes_.clear();
  mosfets_.clear();
  vsources_.clear();
  isources_.clear();
  nonlinears_.clear();
}

void Netlist::check_node(NodeId n) const {
  if (n >= node_names_.size())
    throw std::out_of_range("Netlist: node out of range");
}

void Netlist::add_resistor(NodeId a, NodeId b, double resistance) {
  check_node(a);
  check_node(b);
  if (resistance <= 0.0)
    throw std::invalid_argument("Netlist: resistance must be positive");
  resistors_.push_back({a, b, resistance});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double capacitance) {
  check_node(a);
  check_node(b);
  if (capacitance <= 0.0)
    throw std::invalid_argument("Netlist: capacitance must be positive");
  capacitors_.push_back({a, b, capacitance});
}

void Netlist::add_diode(NodeId anode, NodeId cathode,
                        const DiodeParams& params) {
  check_node(anode);
  check_node(cathode);
  diodes_.push_back({anode, cathode, params});
}

void Netlist::add_mosfet(NodeId drain, NodeId gate, NodeId source,
                         const MosfetParams& params) {
  check_node(drain);
  check_node(gate);
  check_node(source);
  mosfets_.push_back({drain, gate, source, params});
}

std::size_t Netlist::add_voltage_source(NodeId pos, NodeId neg, double volts) {
  check_node(pos);
  check_node(neg);
  vsources_.push_back({pos, neg, volts});
  return vsources_.size() - 1;
}

void Netlist::add_current_source(NodeId from, NodeId to, double amps) {
  check_node(from);
  check_node(to);
  isources_.push_back({from, to, amps});
}

void Netlist::add_nonlinear(NodeId a, NodeId b, NonlinearLaw law) {
  check_node(a);
  check_node(b);
  if (!law.law) throw std::invalid_argument("Netlist: empty nonlinear law");
  nonlinears_.push_back({a, b, std::move(law)});
}

void Netlist::set_voltage(std::size_t source_handle, double volts) {
  if (source_handle >= vsources_.size())
    throw std::out_of_range("Netlist::set_voltage: bad handle");
  vsources_[source_handle].volts = volts;
}

double Netlist::voltage(std::size_t source_handle) const {
  if (source_handle >= vsources_.size())
    throw std::out_of_range("Netlist::voltage: bad handle");
  return vsources_[source_handle].volts;
}

}  // namespace ppuf::circuit
