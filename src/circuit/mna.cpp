#include "circuit/mna.hpp"

#include "circuit/dc.hpp"

namespace ppuf::circuit {

namespace detail {

namespace {

/// Index of a node's unknown, or SIZE_MAX for ground.
constexpr std::size_t kGroundIdx = static_cast<std::size_t>(-1);

std::size_t node_index(NodeId n) {
  return n == kGround ? kGroundIdx : static_cast<std::size_t>(n) - 1;
}

double voltage_of(const numeric::Vector& x, NodeId n) {
  return n == kGround ? 0.0 : x[node_index(n)];
}

/// Accumulate a current I flowing out of node `n` plus its derivatives.
/// `j` may be null for residual-only evaluations.  Every emission guard
/// below is a topology check, never a value check — the invariant that
/// makes the recorded emission sequence replayable.
struct Stamper {
  numeric::Vector& f;
  JacobianSink* j;

  void current(NodeId n, double i) {
    const std::size_t idx = node_index(n);
    if (idx != kGroundIdx) f[idx] += i;
  }
  void jacobian(NodeId row, NodeId col, double didv) {
    if (j == nullptr) return;
    const std::size_t r = node_index(row);
    const std::size_t c = node_index(col);
    if (r != kGroundIdx && c != kGroundIdx) j->add(r, c, didv);
  }
  void jacobian_branch(NodeId row, std::size_t branch_idx, double d) {
    if (j == nullptr) return;
    const std::size_t r = node_index(row);
    if (r != kGroundIdx) j->add(r, branch_idx, d);
  }
};

}  // namespace

void assemble(const Netlist& nl, const DcOptions& opts,
              const numeric::Vector& x, numeric::Vector& f, JacobianSink* j,
              const ExtraStamp& extra) {
  const std::size_t nv = nl.node_count() - 1;
  f.assign(f.size(), 0.0);
  Stamper st{f, j};

  // gmin from every node to ground keeps the matrix nonsingular when
  // devices are cut off (floating internal nodes).
  for (NodeId n = 1; n < nl.node_count(); ++n) {
    st.current(n, opts.gmin * voltage_of(x, n));
    st.jacobian(n, n, opts.gmin);
  }

  for (const auto& r : nl.resistors()) {
    const double g = 1.0 / r.resistance;
    const double i = g * (voltage_of(x, r.a) - voltage_of(x, r.b));
    st.current(r.a, i);
    st.current(r.b, -i);
    st.jacobian(r.a, r.a, g);
    st.jacobian(r.a, r.b, -g);
    st.jacobian(r.b, r.a, -g);
    st.jacobian(r.b, r.b, g);
  }

  for (const auto& d : nl.diodes()) {
    const double vd = voltage_of(x, d.anode) - voltage_of(x, d.cathode);
    const DiodeEval e = eval_diode(d.params, vd, opts.temperature_c);
    st.current(d.anode, e.current);
    st.current(d.cathode, -e.current);
    st.jacobian(d.anode, d.anode, e.conductance);
    st.jacobian(d.anode, d.cathode, -e.conductance);
    st.jacobian(d.cathode, d.anode, -e.conductance);
    st.jacobian(d.cathode, d.cathode, e.conductance);
  }

  for (const auto& m : nl.mosfets()) {
    const double vgs = voltage_of(x, m.gate) - voltage_of(x, m.source);
    const double vds = voltage_of(x, m.drain) - voltage_of(x, m.source);
    const MosfetEval e = eval_mosfet(m.params, vgs, vds);
    // Drain current enters the drain and exits the source; the gate draws
    // no current.
    st.current(m.drain, e.id);
    st.current(m.source, -e.id);
    // dId/dVg = gm, dId/dVd = gds, dId/dVs = -(gm + gds).
    st.jacobian(m.drain, m.gate, e.gm);
    st.jacobian(m.drain, m.drain, e.gds);
    st.jacobian(m.drain, m.source, -(e.gm + e.gds));
    st.jacobian(m.source, m.gate, -e.gm);
    st.jacobian(m.source, m.drain, -e.gds);
    st.jacobian(m.source, m.source, e.gm + e.gds);
  }

  for (const auto& nlel : nl.nonlinears()) {
    const double v = voltage_of(x, nlel.a) - voltage_of(x, nlel.b);
    double g = 0.0;
    const double i = nlel.law.law(v, &g);
    st.current(nlel.a, i);
    st.current(nlel.b, -i);
    st.jacobian(nlel.a, nlel.a, g);
    st.jacobian(nlel.a, nlel.b, -g);
    st.jacobian(nlel.b, nlel.a, -g);
    st.jacobian(nlel.b, nlel.b, g);
  }

  for (const auto& s : nl.isources()) {
    st.current(s.from, s.amps);
    st.current(s.to, -s.amps);
  }

  // Voltage sources: branch current i_k flows out of the + pin.
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& s = nl.vsources()[k];
    const std::size_t branch = nv + k;
    const double ik = x[branch];
    // KCL contribution: i_k leaves the source into node pos.
    st.current(s.pos, -ik);
    st.current(s.neg, ik);
    st.jacobian_branch(s.pos, branch, -1.0);
    st.jacobian_branch(s.neg, branch, 1.0);
    // Branch equation: v_pos - v_neg = volts.
    f[branch] = voltage_of(x, s.pos) - voltage_of(x, s.neg) - s.volts;
    if (j != nullptr) {
      if (s.pos != kGround) j->add(branch, node_index(s.pos), 1.0);
      if (s.neg != kGround) j->add(branch, node_index(s.neg), -1.0);
    }
  }

  if (extra) extra(x, f, j);
}

}  // namespace detail

std::shared_ptr<const MnaStructure> build_mna_structure(
    const Netlist& nl, const DcOptions& opts,
    const detail::ExtraStamp& extra) {
  const std::size_t nv = nl.node_count() - 1;
  const std::size_t dim = nv + nl.voltage_source_count();

  auto structure = std::make_shared<MnaStructure>();
  structure->dim = dim;

  // One recording pass at x = 0 captures the value-independent emission
  // sequence; the recorded values are discarded (pattern only).
  numeric::Vector x(dim, 0.0);
  numeric::Vector f(dim, 0.0);
  PatternRecordingSink recorder;
  detail::assemble(nl, opts, x, f, &recorder, extra);

  structure->pattern = numeric::SparseMatrix::from_triplets(
      dim, dim, recorder.triplets(), &structure->slots);
  structure->pattern.zero_values();
  return structure;
}

std::uint64_t netlist_topology_key(const Netlist& nl) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(nl.node_count());
  mix(0xA1);
  for (const auto& r : nl.resistors()) {
    mix(r.a);
    mix(r.b);
  }
  mix(0xA2);
  for (const auto& c : nl.capacitors()) {
    mix(c.a);
    mix(c.b);
  }
  mix(0xA3);
  for (const auto& d : nl.diodes()) {
    mix(d.anode);
    mix(d.cathode);
  }
  mix(0xA4);
  for (const auto& m : nl.mosfets()) {
    mix(m.drain);
    mix(m.gate);
    mix(m.source);
  }
  mix(0xA5);
  for (const auto& s : nl.vsources()) {
    mix(s.pos);
    mix(s.neg);
  }
  mix(0xA6);
  for (const auto& s : nl.isources()) {
    mix(s.from);
    mix(s.to);
  }
  mix(0xA7);
  for (const auto& e : nl.nonlinears()) {
    mix(e.a);
    mix(e.b);
  }
  return h;
}

}  // namespace ppuf::circuit
