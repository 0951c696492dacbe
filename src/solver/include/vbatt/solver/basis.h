// Simplex basis bookkeeping shared by the revised primal/dual engine and
// branch & bound.
//
// A `Basis` is the cheap, copyable warm-start token: which variable is
// basic in each row plus the at-bound side of every nonbasic. Branch &
// bound snapshots one per node (a child differs from its parent by a
// single tightened bound, which leaves the parent basis dual-feasible).
//
// `BasisInverse` is the dense explicit inverse of the basis matrix,
// maintained by product-form updates and periodically refactorized. Dense
// is deliberate: the scheduling LPs stay at a few hundred rows, where an
// m x m inverse with O(m^2) updates beats sparse-LU bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

namespace vbatt::solver {

enum class VarStatus : std::uint8_t {
  at_lower,  // nonbasic at its lower bound
  at_upper,  // nonbasic at its upper bound
  basic,
};

/// Warm-start token over the standard-form variable space
/// [structural 0..n-1 | logical n..n+m-1].
struct Basis {
  std::vector<int> basic;         // per row: index of the basic variable
  std::vector<VarStatus> status;  // per variable
  bool empty() const noexcept { return basic.empty(); }
};

/// Dense explicit inverse of the m x m basis matrix.
class BasisInverse {
 public:
  /// (Re)factorize from basic columns: `cols[i]` is the sparse column of
  /// the variable basic in row i, as (row, coeff) pairs. Returns false if
  /// the matrix is numerically singular.
  bool refactor(std::size_t m,
                const std::vector<std::vector<std::pair<int, double>>>& cols);

  /// Product-form update after the variable with ftran image `alpha`
  /// (= B^-1 A_q) replaces the variable basic in `pivot_row`. `alpha` must
  /// have a nonzero pivot element. Returns false when the pivot is too
  /// small to be trustworthy (caller should refactor).
  bool update(std::size_t pivot_row, const std::vector<double>& alpha);

  /// out = B^-1 * a for a sparse column a (as (row, coeff) pairs).
  void ftran(const std::vector<std::pair<int, double>>& a,
             std::vector<double>& out) const;

  /// out = B^-1 * v for a dense vector v.
  void ftran_dense(const std::vector<double>& v,
                   std::vector<double>& out) const;

  /// out' = c' B^-1 for a dense row vector c (indexed by basis position).
  void btran(const std::vector<double>& c, std::vector<double>& out) const;

  /// Row `r` of B^-1 (for the dual ratio test).
  void row(std::size_t r, std::vector<double>& out) const;

  std::size_t size() const noexcept { return m_; }

 private:
  std::size_t m_ = 0;
  std::vector<double> inv_;  // row-major m x m
};

}  // namespace vbatt::solver
