// Compressed sparse row matrix for the circuit solvers' MNA systems.
//
// The crossbar's device-level netlists produce Jacobians whose nonzero
// pattern is fixed by the topology (a handful of entries per row), while the
// *values* change every Newton iteration.  This type is built once from
// triplets — returning a slot map so assemblers can overwrite values in
// place with no per-iteration searching — and then reused for the life of
// the netlist.  See sparse_lu.hpp for the factorisation that exploits the
// fixed pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"

namespace ppuf::numeric {

/// One coordinate-format entry.  Duplicates are summed by from_triplets,
/// matching the accumulate semantics of MNA stamping.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparseMatrix() = default;

  /// Build from coordinate triplets (any order, duplicates summed).
  /// When `slot_of_triplet` is non-null it receives, per input triplet, the
  /// index into values() where that triplet landed — the assembler's
  /// precomputed write plan.  Throws std::invalid_argument on out-of-range
  /// indices (a caller bug, like a bad NodeId).
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::span<const Triplet> triplets,
                                    std::vector<std::size_t>* slot_of_triplet =
                                        nullptr);

  /// Dense conversion helpers (tests and the dense-oracle comparisons).
  /// Entries with |value| <= drop_tolerance are left structurally zero.
  static SparseMatrix from_dense(const Matrix& dense,
                                 double drop_tolerance = 0.0);
  Matrix to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// CSR structure: row r's entries live in [row_ptr()[r], row_ptr()[r+1]),
  /// column indices ascending within a row.
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::size_t> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }
  std::span<double> values() { return values_; }

  /// Reset every stored value to zero (pattern untouched) — the start of a
  /// Newton iteration.
  void zero_values();

  /// Slot of entry (row, col), or npos when the entry is not in the
  /// pattern.  Binary search within the row.
  std::size_t find_slot(std::size_t row, std::size_t col) const;

  /// Structural equality (dimensions + pattern, values ignored).
  bool same_pattern(const SparseMatrix& other) const;

  /// FNV-1a hash over dimensions and pattern — cheap cache key for
  /// symbolic-analysis reuse across same-topology matrices.  Computed once
  /// when the pattern is built (the pattern is immutable afterwards), so
  /// reading it is O(1).
  std::uint64_t pattern_hash() const { return pattern_hash_; }

  /// y = A x; x.size() must equal cols().
  Vector multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;  // rows_ + 1
  std::vector<std::size_t> col_idx_;  // nnz
  std::vector<double> values_;        // nnz
  std::uint64_t pattern_hash_ = hash_pattern(0, 0, {}, {});

  static std::uint64_t hash_pattern(std::size_t rows, std::size_t cols,
                                    std::span<const std::size_t> row_ptr,
                                    std::span<const std::size_t> col_idx);
};

}  // namespace ppuf::numeric
