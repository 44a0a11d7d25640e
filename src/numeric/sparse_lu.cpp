#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

namespace ppuf::numeric {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Absolute floor below which a pivot counts as numerically zero (matches
/// the dense LuDecomposition threshold).
constexpr double kTinyPivot = 1e-300;
/// A replayed pivot smaller than this fraction of its column's magnitude
/// has degraded past what the frozen pivot order can support; the caller
/// should re-run factorize() for a fresh order.
constexpr double kPivotDegradation = 1e-10;

/// Minimum-degree ordering on the symmetrised pattern of A (classic
/// elimination-graph form: eliminate the minimum-degree vertex, turn its
/// neighbourhood into a clique, repeat).  Runs once per topology — the
/// result lives in the shared Symbolic — so the simple O(n^2) selection
/// scan is fine.  For MNA matrices this pushes hub nodes (crossbar bars,
/// supply rails) to the end of the elimination, where their dense trailing
/// block is small; without it, eliminating a hub first fills in its whole
/// neighbourhood and the factor degenerates toward dense.
std::vector<std::size_t> min_degree_order(
    std::size_t n, std::span<const std::size_t> row_ptr,
    std::span<const std::size_t> col_idx) {
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const std::size_t c = col_idx[p];
      if (c == r) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  std::vector<char> done(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> clique, merged;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = kNone;
    std::size_t best_deg = static_cast<std::size_t>(-1);
    for (std::size_t v = 0; v < n; ++v) {
      if (!done[v] && adj[v].size() < best_deg) {
        best_deg = adj[v].size();
        best = v;
      }
    }
    done[best] = 1;
    order.push_back(best);

    // Eliminating `best` joins its (live) neighbours into a clique; each
    // neighbour's list also drops `best`, so lists never hold eliminated
    // vertices.
    clique = adj[best];
    for (const std::size_t u : clique) {
      merged.clear();
      merged.reserve(adj[u].size() + clique.size());
      std::set_union(adj[u].begin(), adj[u].end(), clique.begin(),
                     clique.end(), std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&](std::size_t w) {
                                    return w == u || done[w];
                                  }),
                   merged.end());
      adj[u].swap(merged);
    }
    adj[best].clear();
    adj[best].shrink_to_fit();
  }
  return order;
}

}  // namespace

util::Status SparseLu::factorize(const SparseMatrix& a) {
  factored_ = false;
  if (a.rows() == 0 || a.cols() == 0)
    return util::Status::invalid_argument("SparseLu: empty matrix");
  if (a.rows() != a.cols())
    return util::Status::invalid_argument("SparseLu: matrix not square");
  const std::size_t n = a.rows();

  auto sym = std::make_shared<Symbolic>();
  sym->n = n;
  sym->a_nnz = a.nnz();
  sym->a_pattern_hash = a.pattern_hash();

  // Column-major traversal of the CSR input (counting sort by column).
  sym->acol_ptr.assign(n + 1, 0);
  for (const std::size_t c : a.col_idx()) ++sym->acol_ptr[c + 1];
  for (std::size_t j = 0; j < n; ++j) sym->acol_ptr[j + 1] += sym->acol_ptr[j];
  sym->arow_idx.assign(a.nnz(), 0);
  sym->a_slot.assign(a.nnz(), 0);
  {
    std::vector<std::size_t> next(sym->acol_ptr.begin(),
                                  sym->acol_ptr.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const std::size_t c = a.col_idx()[k];
        sym->arow_idx[next[c]] = r;
        sym->a_slot[next[c]] = k;
        ++next[c];
      }
    }
  }

  sym->pinv.assign(n, kNone);
  sym->perm.assign(n, kNone);
  sym->colperm = min_degree_order(n, a.row_ptr(), a.col_idx());

  // Working factors: per-column entry lists.  L keeps ORIGINAL row ids
  // until the permutation is complete; U keeps pivot positions (ascending
  // by construction of the worklist).
  std::vector<std::vector<std::pair<std::size_t, double>>> lcols(n);
  std::vector<std::vector<std::pair<std::size_t, double>>> ucols(n);
  std::vector<double> udiag(n, 0.0);

  std::vector<double> x(n, 0.0);        // dense accumulator, orig-row space
  std::vector<char> marked(n, 0);
  std::vector<std::size_t> touched;
  touched.reserve(64);
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      pivots_due;

  for (std::size_t j = 0; j < n; ++j) {
    // Scatter A(:, c), the column the fill-reducing order puts at step j.
    const std::size_t c = sym->colperm[j];
    for (std::size_t p = sym->acol_ptr[c]; p < sym->acol_ptr[c + 1]; ++p) {
      const std::size_t r = sym->arow_idx[p];
      x[r] += a.values()[sym->a_slot[p]];
      if (!marked[r]) {
        marked[r] = 1;
        touched.push_back(r);
        if (sym->pinv[r] != kNone) pivots_due.push(sym->pinv[r]);
      }
    }

    // Left-looking elimination in ascending pivot order.  Rows stored in
    // L(:, k) were uneliminated at step k, so any pivot they later receive
    // is > k — the worklist never needs to revisit an earlier pivot.
    while (!pivots_due.empty()) {
      const std::size_t k = pivots_due.top();
      pivots_due.pop();
      const double xk = x[sym->perm[k]];
      ucols[j].emplace_back(k, xk);
      for (const auto& [r, lv] : lcols[k]) {
        if (!marked[r]) {
          marked[r] = 1;
          touched.push_back(r);
          if (sym->pinv[r] != kNone) pivots_due.push(sym->pinv[r]);
        }
        x[r] -= lv * xk;
      }
    }

    // Partial pivot among the uneliminated rows of the column (original
    // pattern plus fill); deterministic tie-break on the row id.
    std::size_t best = kNone;
    double best_mag = -1.0;
    for (const std::size_t r : touched) {
      if (sym->pinv[r] != kNone) continue;
      const double mag = std::abs(x[r]);
      if (mag > best_mag || (mag == best_mag && best != kNone && r < best)) {
        best_mag = mag;
        best = r;
      }
    }
    if (best == kNone || best_mag < kTinyPivot) {
      for (const std::size_t r : touched) {
        x[r] = 0.0;
        marked[r] = 0;
      }
      return util::Status::invalid_argument(
          "SparseLu: singular matrix at column " + std::to_string(c));
    }
    sym->pinv[best] = j;
    sym->perm[j] = best;
    udiag[j] = x[best];
    const double inv_piv = 1.0 / x[best];
    for (const std::size_t r : touched) {
      if (sym->pinv[r] == kNone)  // keep structural zeros: stable pattern
        lcols[j].emplace_back(r, x[r] * inv_piv);
      x[r] = 0.0;
      marked[r] = 0;
    }
    touched.clear();
  }

  // Freeze the factors as CSC in pivot space, ascending row ids per
  // column; U's diagonal goes last in its column.
  sym->lcol_ptr.assign(n + 1, 0);
  sym->ucol_ptr.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    sym->lcol_ptr[j + 1] = sym->lcol_ptr[j] + lcols[j].size();
    sym->ucol_ptr[j + 1] = sym->ucol_ptr[j] + ucols[j].size() + 1;
  }
  sym->lrow_idx.assign(sym->lcol_ptr[n], 0);
  sym->urow_idx.assign(sym->ucol_ptr[n], 0);
  lval_.assign(sym->lcol_ptr[n], 0.0);
  uval_.assign(sym->ucol_ptr[n], 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    auto& lc = lcols[j];
    for (auto& [r, v] : lc) r = sym->pinv[r];  // to pivot space
    std::sort(lc.begin(), lc.end());
    std::size_t q = sym->lcol_ptr[j];
    for (const auto& [r, v] : lc) {
      sym->lrow_idx[q] = r;
      lval_[q] = v;
      ++q;
    }
    q = sym->ucol_ptr[j];
    for (const auto& [k, v] : ucols[j]) {  // already ascending
      sym->urow_idx[q] = k;
      uval_[q] = v;
      ++q;
    }
    sym->urow_idx[q] = j;
    uval_[q] = udiag[j];
  }

  sym_ = std::move(sym);
  factored_ = true;
  return util::Status::ok();
}

util::Status SparseLu::refactor_with(const SparseMatrix& a,
                                     const Symbolic& sym,
                                     std::vector<double>* lval,
                                     std::vector<double>* uval) const {
  // O(1) pattern check: the pattern hash is fixed when a matrix is built,
  // so a foreign pattern is rejected without walking it.
  if (a.rows() != sym.n || a.cols() != sym.n ||
      a.nnz() != sym.a_nnz ||
      a.pattern_hash() != sym.a_pattern_hash) {
    return util::Status::invalid_argument(
        "SparseLu::refactorize: pattern mismatch");
  }
  // Every factor entry is written before it is read, so the value arrays
  // only need the right size; the accumulator must start at zero (solve()
  // leaves it dirty).
  lval->resize(sym.lrow_idx.size());
  uval->resize(sym.urow_idx.size());
  work_.assign(sym.n, 0.0);
  std::vector<double>& x = work_;  // pivot-space accumulator

  for (std::size_t j = 0; j < sym.n; ++j) {
    const std::size_t c = sym.colperm[j];
    for (std::size_t p = sym.acol_ptr[c]; p < sym.acol_ptr[c + 1]; ++p)
      x[sym.pinv[sym.arow_idx[p]]] = a.values()[sym.a_slot[p]];

    const std::size_t ubegin = sym.ucol_ptr[j];
    const std::size_t udiag_at = sym.ucol_ptr[j + 1] - 1;
    for (std::size_t p = ubegin; p < udiag_at; ++p) {
      const std::size_t k = sym.urow_idx[p];
      const double xk = x[k];
      (*uval)[p] = xk;
      if (xk != 0.0) {
        for (std::size_t q = sym.lcol_ptr[k]; q < sym.lcol_ptr[k + 1]; ++q)
          x[sym.lrow_idx[q]] -= (*lval)[q] * xk;
      }
    }

    const double piv = x[j];
    double col_max = std::abs(piv);
    for (std::size_t q = sym.lcol_ptr[j]; q < sym.lcol_ptr[j + 1]; ++q)
      col_max = std::max(col_max, std::abs(x[sym.lrow_idx[q]]));
    if (std::abs(piv) < kTinyPivot ||
        std::abs(piv) < kPivotDegradation * col_max) {
      // Clean the accumulator before reporting so a retry starts fresh.
      for (std::size_t p = ubegin; p <= udiag_at; ++p)
        x[sym.urow_idx[p]] = 0.0;
      for (std::size_t q = sym.lcol_ptr[j]; q < sym.lcol_ptr[j + 1]; ++q)
        x[sym.lrow_idx[q]] = 0.0;
      return util::Status::unavailable(
          "SparseLu::refactorize: pivot degraded at column " +
          std::to_string(j) + "; re-run factorize()");
    }
    (*uval)[udiag_at] = piv;
    const double inv_piv = 1.0 / piv;
    for (std::size_t q = sym.lcol_ptr[j]; q < sym.lcol_ptr[j + 1]; ++q) {
      const std::size_t r = sym.lrow_idx[q];
      (*lval)[q] = x[r] * inv_piv;
      x[r] = 0.0;
    }
    for (std::size_t p = ubegin; p <= udiag_at; ++p) x[sym.urow_idx[p]] = 0.0;
  }
  return util::Status::ok();
}

util::Status SparseLu::refactorize(const SparseMatrix& a) {
  if (!sym_) {
    return util::Status::invalid_argument(
        "SparseLu::refactorize: no symbolic analysis held (call factorize)");
  }
  factored_ = false;
  const util::Status st = refactor_with(a, *sym_, &lval_, &uval_);
  factored_ = st.is_ok();
  return st;
}

util::Status SparseLu::refactorize(const SparseMatrix& a,
                                   std::shared_ptr<const Symbolic> symbolic) {
  if (!symbolic) {
    return util::Status::invalid_argument(
        "SparseLu::refactorize: null symbolic");
  }
  factored_ = false;
  const util::Status st = refactor_with(a, *symbolic, &lval_, &uval_);
  if (st.is_ok()) {
    sym_ = std::move(symbolic);
    factored_ = true;
  }
  return st;
}

util::Status SparseLu::solve(std::span<const double> b, Vector* x) const {
  if (x == nullptr)
    return util::Status::invalid_argument("SparseLu::solve: null output");
  x->resize(size());
  return solve_into(b, *x);
}

util::Status SparseLu::solve_in_place(std::span<double> bx) const {
  return solve_into(bx, bx);
}

util::Status SparseLu::solve_into(std::span<const double> b,
                                  std::span<double> x) const {
  if (!factored_ || !sym_)
    return util::Status::invalid_argument("SparseLu::solve: not factored");
  if (b.size() != sym_->n || x.size() != sym_->n)
    return util::Status::invalid_argument("SparseLu::solve: size mismatch");
  const std::size_t n = sym_->n;
  // Row permutation applies to the right-hand side; the solve runs in
  // elimination (step) space, then scatters through the column order.
  // `b` is fully read into the scratch before `x` is written, so the two
  // may alias (solve_in_place).
  work_.resize(n);
  Vector& y = work_;
  for (std::size_t j = 0; j < n; ++j) y[j] = b[sym_->perm[j]];

  // Forward substitution through unit-lower L (column-oriented).
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = y[j];
    if (xj == 0.0) continue;
    for (std::size_t q = sym_->lcol_ptr[j]; q < sym_->lcol_ptr[j + 1]; ++q)
      y[sym_->lrow_idx[q]] -= lval_[q] * xj;
  }
  // Back substitution through U (diagonal last per column).
  for (std::size_t j = n; j-- > 0;) {
    const std::size_t udiag_at = sym_->ucol_ptr[j + 1] - 1;
    const double xj = y[j] / uval_[udiag_at];
    y[j] = xj;
    if (xj == 0.0) continue;
    for (std::size_t p = sym_->ucol_ptr[j]; p < udiag_at; ++p)
      y[sym_->urow_idx[p]] -= uval_[p] * xj;
  }
  // Step j solved for original unknown colperm[j].
  for (std::size_t j = 0; j < n; ++j) x[sym_->colperm[j]] = y[j];
  return util::Status::ok();
}

}  // namespace ppuf::numeric
