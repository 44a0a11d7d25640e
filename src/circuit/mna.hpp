// MNA assembly machinery shared by the DC and transient solvers, factored
// around a sink abstraction so the same device-stamping code fills either a
// dense Matrix (the oracle path) or a slot-mapped SparseMatrix (the default
// path).
//
// The sparse path exploits a property of the stamp loop: for a fixed
// netlist topology the *sequence* of (row, col) Jacobian emissions is
// identical on every iteration — all guards are topology checks (ground
// exclusions), never value checks.  So one recording pass at x = 0 captures
// the emission order as triplets, SparseMatrix::from_triplets turns that
// into a slot list, and every subsequent assembly replays the sequence as
// O(1) indexed adds with no searching (the classic SPICE "matrix pointer"
// technique).
//
// MnaStructure bundles everything derivable from topology alone — the
// pattern, the replay slots, and (once the first factorisation has run) the
// sparse LU symbolic analysis.  It is immutable apart from the
// mutex-guarded symbolic slot and safe to share across threads and across
// same-topology netlists; SymbolicCache keys such structures by pattern
// hash so a whole device's identical-topology blocks analyse once.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"

namespace ppuf::circuit {

struct DcOptions;  // circuit/dc.hpp

/// Destination for Jacobian entries emitted during assembly.  Row/col are
/// unknown-vector indices (ground already excluded by the stamper).
class JacobianSink {
 public:
  virtual ~JacobianSink() = default;
  virtual void add(std::size_t row, std::size_t col, double value) = 0;
};

/// Accumulates into a dense matrix — the oracle path and the pattern-free
/// fallback.
class DenseJacobianSink final : public JacobianSink {
 public:
  explicit DenseJacobianSink(numeric::Matrix* m) : m_(m) {}
  void add(std::size_t row, std::size_t col, double value) override {
    (*m_)(row, col) += value;
  }

 private:
  numeric::Matrix* m_;
};

/// Records the emission sequence as triplets (pattern-building pass).
class PatternRecordingSink final : public JacobianSink {
 public:
  void add(std::size_t row, std::size_t col, double value) override {
    triplets_.push_back({row, col, value});
  }
  const std::vector<numeric::Triplet>& triplets() const { return triplets_; }

 private:
  std::vector<numeric::Triplet> triplets_;
};

/// Replays a recorded emission sequence as direct writes into a
/// SparseMatrix's value array.  The caller must emit entries in exactly the
/// recorded order (guaranteed by the deterministic stamp loop).
class SlotReplaySink final : public JacobianSink {
 public:
  SlotReplaySink(numeric::SparseMatrix* m, std::span<const std::size_t> slots)
      : values_(m->values()), slots_(slots) {}

  void add(std::size_t row, std::size_t col, double value) override {
    (void)row;
    (void)col;
    assert(cursor_ < slots_.size());
    values_[slots_[cursor_++]] += value;
  }

  /// Emissions consumed so far; after a full assembly this must equal the
  /// recorded sequence length.
  std::size_t cursor() const { return cursor_; }

 private:
  std::span<double> values_;
  std::span<const std::size_t> slots_;
  std::size_t cursor_ = 0;
};

namespace detail {

/// Extra stamp hook invoked on every Newton iteration after the static
/// devices; the transient solver uses it for capacitor companion models.
/// Arguments: current unknown vector, residual to accumulate into, Jacobian
/// sink to accumulate into (null during residual-only evaluations).  The
/// hook's emission sequence must be value-independent (topology-fixed
/// guards only) so the sparse replay stays aligned.
using ExtraStamp = std::function<void(const numeric::Vector& x,
                                      numeric::Vector& f, JacobianSink* j)>;

/// Stamps every device of `nl` at the iterate `x` into residual `f` and
/// Jacobian sink `j` (null for residual-only).  Unknown layout: node
/// voltages 1..N-1 then one branch current per voltage source.
void assemble(const Netlist& nl, const DcOptions& opts,
              const numeric::Vector& x, numeric::Vector& f, JacobianSink* j,
              const ExtraStamp& extra);

}  // namespace detail

/// Everything derivable from a netlist's topology alone, shareable across
/// threads and across solves of same-topology netlists.
struct MnaStructure {
  std::size_t dim = 0;
  /// Zero-valued CSR matrix holding the Jacobian pattern (copy into a
  /// workspace, then replay-assemble into the copy's values).
  numeric::SparseMatrix pattern;
  /// Emission-order -> value-slot map for SlotReplaySink.
  std::vector<std::size_t> slots;

  /// Sparse LU symbolic analysis, published by whichever solve first
  /// factorises this pattern.  Guarded: structures are shared across
  /// concurrently solving threads.
  std::shared_ptr<const numeric::SparseLu::Symbolic> symbolic() const {
    std::lock_guard<std::mutex> lock(mu_);
    return symbolic_;
  }
  void set_symbolic(
      std::shared_ptr<const numeric::SparseLu::Symbolic> sym) const {
    std::lock_guard<std::mutex> lock(mu_);
    symbolic_ = std::move(sym);
  }

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const numeric::SparseLu::Symbolic> symbolic_;
};

/// Builds the structure with one recording assembly at x = 0.  `extra` must
/// be the same hook later passed to the solver (its entries are part of the
/// pattern).
std::shared_ptr<const MnaStructure> build_mna_structure(
    const Netlist& nl, const DcOptions& opts,
    const detail::ExtraStamp& extra);

/// Thread-safe cache of MnaStructures keyed by topology, so a device's
/// identical-topology block netlists (and repeat solves of the same
/// netlist) share one pattern + symbolic analysis.  The key must uniquely
/// identify the stamp topology; callers derive it from netlist shape (see
/// netlist_topology_key).
class SymbolicCache {
 public:
  std::shared_ptr<const MnaStructure> find(std::uint64_t key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second;
  }

  /// First insert wins (so concurrent builders converge on one structure);
  /// returns the cached entry.
  std::shared_ptr<const MnaStructure> insert(
      std::uint64_t key, std::shared_ptr<const MnaStructure> structure) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = map_.emplace(key, std::move(structure));
    return it->second;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const MnaStructure>> map_;
};

/// FNV-1a hash over the netlist's stamp topology (device kinds, terminal
/// wiring, counts — not parameter values).  Two netlists with equal keys
/// produce identical Jacobian patterns and emission sequences.
std::uint64_t netlist_topology_key(const Netlist& nl);

}  // namespace ppuf::circuit
