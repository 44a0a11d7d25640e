// Sparse LU with a one-time symbolic analysis and a fast numeric-only
// refactorisation — the linear core behind the circuit solvers' Newton
// iterations.
//
// The split mirrors how SPICE-class simulators amortise factorisation cost:
//
//   factorize()    full Gilbert–Peierls left-looking LU with partial
//                  pivoting, after a minimum-degree column preordering of
//                  the symmetrised pattern (hubs eliminate last, which is
//                  what keeps fill linear-ish on MNA matrices).  Besides
//                  the factors it records the *symbolic* outcome — the fill
//                  pattern of L and U, the pivot and column orders, and the
//                  CSR→CSC traversal of the input pattern — as an
//                  immutable, shareable object.
//   refactorize()  numeric-only replay for a matrix with the SAME pattern:
//                  no searching, no pivoting decisions, no allocation —
//                  just the floating-point work.  This is every Newton
//                  iteration after the first, and (via a shared Symbolic)
//                  every same-topology netlist after the first.
//
// Pivots are fixed at factorize() time, so refactorize() guards against
// numerical degradation: a pivot that collapses relative to its column
// returns a typed kUnavailable status and the caller re-runs factorize()
// (fresh pivot order) — never a crash, never a silent bad factor.
//
// All failure modes are reported through util::Status (the project's error
// ladder): kInvalidArgument for singular/ill-posed inputs, kUnavailable for
// a recoverable pivot degradation, std::invalid_argument only for caller
// bugs (shape mismatches).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "numeric/sparse.hpp"
#include "util/status.hpp"

namespace ppuf::numeric {

class SparseLu {
 public:
  /// Immutable symbolic analysis: pattern of A, pivot order, and fill
  /// pattern of the factors.  Safe to share across threads and across
  /// SparseLu instances factoring different same-pattern matrices (each
  /// instance keeps its own numeric values).
  struct Symbolic {
    std::size_t n = 0;

    // Identity of the analysed matrix's pattern, used to validate reuse.
    std::size_t a_nnz = 0;
    std::uint64_t a_pattern_hash = 0;

    // Column-major traversal of A: column j's entries are
    // [acol_ptr[j], acol_ptr[j+1]) with original row ids in arow_idx and
    // the index into the CSR value array in a_slot.
    std::vector<std::size_t> acol_ptr;
    std::vector<std::size_t> arow_idx;
    std::vector<std::size_t> a_slot;

    // L (unit lower, diagonal implicit) and U (upper, diagonal stored
    // last per column), both CSC with row indices in pivot space,
    // ascending within a column.
    std::vector<std::size_t> lcol_ptr;
    std::vector<std::size_t> lrow_idx;
    std::vector<std::size_t> ucol_ptr;
    std::vector<std::size_t> urow_idx;

    // Row permutation: pinv[original_row] = pivot position;
    // perm[pivot position] = original_row.
    std::vector<std::size_t> pinv;
    std::vector<std::size_t> perm;

    // Fill-reducing column elimination order (minimum degree on the
    // symmetrised pattern): step j eliminates original column colperm[j].
    // High-degree hub columns — e.g. the bar nodes of a flattened crossbar
    // MNA system — are driven to the end, where their fill is cheap.
    std::vector<std::size_t> colperm;

    std::size_t factor_nnz() const {
      return lrow_idx.size() + urow_idx.size();
    }
  };

  SparseLu() = default;

  /// Full factorisation of a square sparse matrix: symbolic analysis +
  /// numeric factors.  kInvalidArgument when structurally or numerically
  /// singular.  On success symbolic() is (re)populated.
  util::Status factorize(const SparseMatrix& a);

  /// Numeric-only refactorisation against the held symbolic analysis.
  /// kInvalidArgument if no symbolic is held or the pattern differs (an
  /// O(1) check of size, nonzero count and pattern hash);
  /// kUnavailable when a fixed pivot degrades (retry with factorize()).
  util::Status refactorize(const SparseMatrix& a);

  /// Refactorise using an externally shared symbolic analysis (e.g. from a
  /// circuit::SymbolicCache).  Adopts `symbolic` on success.
  util::Status refactorize(const SparseMatrix& a,
                           std::shared_ptr<const Symbolic> symbolic);

  /// The held analysis (null until the first successful factorize()).
  std::shared_ptr<const Symbolic> symbolic() const { return sym_; }

  /// True when the instance holds a usable factorisation.
  bool ok() const { return factored_; }

  /// Drop the factorisation but keep every buffer, so a long-lived
  /// instance can start the next system exactly as a fresh one would
  /// (refactorize() against a given analysis, or factorize()) without
  /// reallocating.
  void invalidate() { factored_ = false; }

  std::size_t size() const { return sym_ ? sym_->n : 0; }
  std::size_t factor_nnz() const { return sym_ ? sym_->factor_nnz() : 0; }

  /// Solve A x = b.  kInvalidArgument when not factored or sizes mismatch.
  util::Status solve(std::span<const double> b, Vector* x) const;

  /// Destructive solve: overwrites `bx` with the solution.  Same statuses.
  /// Allocation-free once the instance has solved a system of this size.
  util::Status solve_in_place(std::span<double> bx) const;

 private:
  util::Status solve_into(std::span<const double> b,
                          std::span<double> x) const;

  util::Status refactor_with(const SparseMatrix& a, const Symbolic& sym,
                             std::vector<double>* lval,
                             std::vector<double>* uval) const;

  std::shared_ptr<const Symbolic> sym_;
  std::vector<double> lval_;  // values matching sym_->lrow_idx
  std::vector<double> uval_;  // values matching sym_->urow_idx
  bool factored_ = false;
  // Scratch reused across refactorisations (size n, zeroed between uses).
  mutable std::vector<double> work_;
};

}  // namespace ppuf::numeric
