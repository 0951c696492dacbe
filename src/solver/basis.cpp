#include "vbatt/solver/basis.h"

#include <cmath>

namespace vbatt::solver {

namespace {
constexpr double kSingularTol = 1e-11;
constexpr double kUpdateTol = 1e-9;
}  // namespace

bool BasisInverse::refactor(
    std::size_t m,
    const std::vector<std::vector<std::pair<int, double>>>& cols) {
  m_ = m;
  // Gauss-Jordan with partial pivoting on [B | I], tracking only I -> B^-1.
  std::vector<double> b(m * m, 0.0);
  inv_.assign(m * m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    for (const auto& [row, coeff] : cols[j]) {
      b[static_cast<std::size_t>(row) * m + j] = coeff;
    }
    inv_[j * m + j] = 1.0;
  }
  std::vector<std::size_t> perm(m);
  for (std::size_t j = 0; j < m; ++j) perm[j] = j;
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t piv = col;
    double best = std::abs(b[perm[col] * m + col]);
    for (std::size_t r = col + 1; r < m; ++r) {
      const double v = std::abs(b[perm[r] * m + col]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best <= kSingularTol) return false;
    std::swap(perm[col], perm[piv]);
    const std::size_t pr = perm[col];
    const double scale = 1.0 / b[pr * m + col];
    for (std::size_t j = 0; j < m; ++j) {
      b[pr * m + j] *= scale;
      inv_[pr * m + j] *= scale;
    }
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t rr = perm[r];
      if (rr == pr) continue;
      const double factor = b[rr * m + col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) {
        b[rr * m + j] -= factor * b[pr * m + j];
        inv_[rr * m + j] -= factor * inv_[pr * m + j];
      }
    }
  }
  // Undo the row permutation: row i of B^-1 is the row that eliminated
  // column i.
  std::vector<double> ordered(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ordered[i * m + j] = inv_[perm[i] * m + j];
    }
  }
  inv_ = std::move(ordered);
  return true;
}

bool BasisInverse::update(std::size_t pivot_row,
                          const std::vector<double>& alpha) {
  const double piv = alpha[pivot_row];
  if (std::abs(piv) <= kUpdateTol) return false;
  double* pr = &inv_[pivot_row * m_];
  const double scale = 1.0 / piv;
  for (std::size_t j = 0; j < m_; ++j) pr[j] *= scale;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == pivot_row) continue;
    const double factor = alpha[i];
    if (factor == 0.0) continue;
    double* ri = &inv_[i * m_];
    for (std::size_t j = 0; j < m_; ++j) ri[j] -= factor * pr[j];
  }
  return true;
}

void BasisInverse::ftran(const std::vector<std::pair<int, double>>& a,
                         std::vector<double>& out) const {
  out.assign(m_, 0.0);
  for (const auto& [row, coeff] : a) {
    const auto r = static_cast<std::size_t>(row);
    for (std::size_t i = 0; i < m_; ++i) {
      out[i] += inv_[i * m_ + r] * coeff;
    }
  }
}

void BasisInverse::ftran_dense(const std::vector<double>& v,
                               std::vector<double>& out) const {
  out.assign(m_, 0.0);
  for (std::size_t j = 0; j < m_; ++j) {
    const double vj = v[j];
    if (vj == 0.0) continue;
    for (std::size_t i = 0; i < m_; ++i) out[i] += inv_[i * m_ + j] * vj;
  }
}

void BasisInverse::btran(const std::vector<double>& c,
                         std::vector<double>& out) const {
  out.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double ci = c[i];
    if (ci == 0.0) continue;
    const double* ri = &inv_[i * m_];
    for (std::size_t j = 0; j < m_; ++j) out[j] += ci * ri[j];
  }
}

void BasisInverse::row(std::size_t r, std::vector<double>& out) const {
  out.assign(inv_.begin() + static_cast<std::ptrdiff_t>(r * m_),
             inv_.begin() + static_cast<std::ptrdiff_t>((r + 1) * m_));
}

}  // namespace vbatt::solver
