#include "numeric/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ppuf::numeric {

SparseMatrix SparseMatrix::from_triplets(
    std::size_t rows, std::size_t cols, std::span<const Triplet> triplets,
    std::vector<std::size_t>* slot_of_triplet) {
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols)
      throw std::invalid_argument("SparseMatrix::from_triplets: index out of "
                                  "range");
  }

  // Sort triplet *indices* by (row, col) so duplicate coordinates become
  // adjacent and each original triplet can be traced to its final slot.
  std::vector<std::size_t> order(triplets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Triplet& ta = triplets[a];
    const Triplet& tb = triplets[b];
    return ta.row != tb.row ? ta.row < tb.row : ta.col < tb.col;
  });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  if (slot_of_triplet != nullptr) slot_of_triplet->assign(triplets.size(), 0);

  std::size_t prev_row = npos;
  std::size_t prev_col = npos;
  for (const std::size_t idx : order) {
    const Triplet& t = triplets[idx];
    if (t.row == prev_row && t.col == prev_col) {
      m.values_.back() += t.value;  // duplicate: accumulate
    } else {
      m.col_idx_.push_back(t.col);
      m.values_.push_back(t.value);
      ++m.row_ptr_[t.row + 1];
      prev_row = t.row;
      prev_col = t.col;
    }
    if (slot_of_triplet != nullptr)
      (*slot_of_triplet)[idx] = m.values_.size() - 1;
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.pattern_hash_ = hash_pattern(rows, cols, m.row_ptr_, m.col_idx_);
  return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense,
                                      double drop_tolerance) {
  SparseMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    for (std::size_t c = 0; c < m.cols_; ++c) {
      const double v = dense(r, c);
      if (std::abs(v) > drop_tolerance) {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = m.values_.size();
  }
  m.pattern_hash_ = hash_pattern(m.rows_, m.cols_, m.row_ptr_, m.col_idx_);
  return m;
}

Matrix SparseMatrix::to_dense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      dense(r, col_idx_[k]) += values_[k];
  }
  return dense;
}

void SparseMatrix::zero_values() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

std::size_t SparseMatrix::find_slot(std::size_t row, std::size_t col) const {
  if (row >= rows_) return npos;
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                            row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                          row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return npos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

bool SparseMatrix::same_pattern(const SparseMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_;
}

std::uint64_t SparseMatrix::hash_pattern(
    std::size_t rows, std::size_t cols, std::span<const std::size_t> row_ptr,
    std::span<const std::size_t> col_idx) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(rows);
  mix(cols);
  for (const std::size_t p : row_ptr) mix(p);
  for (const std::size_t c : col_idx) mix(c);
  return h;
}

Vector SparseMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_)
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      s += values_[k] * x[col_idx_[k]];
    y[r] = s;
  }
  return y;
}

}  // namespace ppuf::numeric
