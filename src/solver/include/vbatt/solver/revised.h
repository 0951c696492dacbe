// Revised simplex with implicit variable bounds.
//
// The engine behind `solve_lp` / `solve_mip`. Differences from the frozen
// seed tableau solver (`reference.h`) that buy the speed:
//
//  * Bounded-variable pivoting: finite upper bounds are handled by the
//    ratio test (nonbasic-at-upper states and bound flips), not
//    materialized as extra `x <= u` rows. The scheduling LPs are roughly
//    half upper-bound rows, so this halves m outright.
//  * Revised form: only the m x m basis inverse is maintained (dense, with
//    product-form updates and periodic refactorization); the constraint
//    matrix is stored once as sparse columns and never rewritten. A pivot
//    costs O(m^2 + nnz), not O(m_tab * n_tab) tableau sweeps.
//  * A dual simplex sharing the same basis state, so branch & bound can
//    re-solve a child from the parent basis in a handful of pivots (the
//    child differs by one tightened bound, which leaves the parent basis
//    dual-feasible).
//
// One RevisedSolver is built per model (per branch & bound tree) and
// re-solved under many bound sets; constructing it is the only pass over
// the model's constraints.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/solver/basis.h"
#include "vbatt/solver/model.h"
#include "vbatt/solver/simplex.h"

namespace vbatt::solver {

class RevisedSolver {
 public:
  /// Builds the standard form: one logical (slack) variable per row with
  /// bounds [0,inf) for <=, (-inf,0] for >=, [0,0] for =. Structural
  /// columns are stored sparse, column-major. `rows` selects the surviving
  /// constraints (presolve output); empty + `all_rows` -> every row.
  RevisedSolver(const Model& model, const std::vector<int>& rows);
  explicit RevisedSolver(const Model& model);

  /// Primal solve under the given structural bounds. `basis` is in-out:
  /// empty -> all-logical start (phase 1 as needed); non-empty -> warm
  /// start from it (used for cost re-solves, e.g. lexicographic stage 2).
  /// On return (optimal) holds the final basis.
  LpStatus solve_primal(const std::vector<double>& lb,
                        const std::vector<double>& ub, Basis& basis,
                        std::int64_t max_pivots);

  /// Dual solve from a dual-feasible warm basis after bound tightening.
  /// Returns iteration_limit when the warm path stalls; callers should
  /// retry with solve_primal and a fresh basis.
  LpStatus solve_dual(const std::vector<double>& lb,
                      const std::vector<double>& ub, Basis& basis,
                      std::int64_t max_pivots);

  /// Structural solution / objective of the last optimal solve.
  const std::vector<double>& x() const noexcept { return x_out_; }
  double objective() const noexcept { return objective_; }
  /// Pivots spent in the last solve call.
  std::int64_t pivots() const noexcept { return pivots_; }

  std::size_t n_rows() const noexcept { return m_; }
  std::size_t n_structural() const noexcept { return n_; }

 private:
  // Standard-form data (fixed per model).
  std::size_t n_ = 0;  // structural variables
  std::size_t m_ = 0;  // rows
  std::vector<std::vector<std::pair<int, double>>> cols_;  // n+m sparse cols
  std::vector<double> rhs_;
  std::vector<double> cost_;        // n+m (logical costs are 0)
  std::vector<double> logical_lo_;  // m
  std::vector<double> logical_up_;  // m

  // Per-solve state.
  std::vector<double> lo_;  // n+m active bounds
  std::vector<double> up_;
  BasisInverse binv_;
  std::vector<double> xb_;  // values of basic variables, by row
  std::vector<double> x_out_;
  double objective_ = 0.0;
  std::int64_t pivots_ = 0;

  // Scratch buffers reused across iterations.
  std::vector<double> y_;
  std::vector<double> alpha_;
  std::vector<double> rho_;
  std::vector<double> cb_;

  void load_bounds(const std::vector<double>& lb,
                   const std::vector<double>& ub);
  void logical_basis(Basis& basis) const;
  bool factorize(const Basis& basis);
  void compute_xb(const Basis& basis);
  double nonbasic_value(const Basis& basis, std::size_t j) const;
  void extract(const Basis& basis);
  /// Primal phase 2 (and composite phase 1 when `phase1` is set) main loop.
  LpStatus primal_loop(Basis& basis, bool phase1, std::int64_t max_pivots);
};

}  // namespace vbatt::solver
