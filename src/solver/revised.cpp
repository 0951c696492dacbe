#include "vbatt/solver/revised.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace vbatt::solver {

namespace {

constexpr double kPivotTol = 1e-9;
constexpr double kFeasTol = 1e-7;
constexpr double kDjTol = 1e-7;
constexpr double kRatioTol = 1e-9;
/// Matches the seed's fixed-variable threshold: boxes narrower than this
/// are treated as fixed at the lower bound and never priced.
constexpr double kFixedTol = 1e-7;
constexpr std::int64_t kRefactorEvery = 64;

double dot_sparse(const std::vector<double>& y,
                  const std::vector<std::pair<int, double>>& col) {
  double sum = 0.0;
  for (const auto& [row, coeff] : col) {
    sum += y[static_cast<std::size_t>(row)] * coeff;
  }
  return sum;
}

}  // namespace

RevisedSolver::RevisedSolver(const Model& model, const std::vector<int>& rows)
    : n_{model.n_vars()}, m_{rows.size()} {
  cols_.assign(n_ + m_, {});
  rhs_.assign(m_, 0.0);
  cost_.assign(n_ + m_, 0.0);
  logical_lo_.assign(m_, 0.0);
  logical_up_.assign(m_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) cost_[j] = model.vars()[j].cost;
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& con =
        model.constraints()[static_cast<std::size_t>(rows[i])];
    // Coalesce repeated variable indices within a row (the Model allows
    // them; the dense tableau sums them). A column must hold at most one
    // entry per row or the pivot-element lookup reads a partial
    // coefficient.
    std::vector<int> order;
    std::unordered_map<int, double> merged;
    for (const auto& [idx, coeff] : con.terms) {
      const auto [it, fresh] = merged.emplace(idx, 0.0);
      if (fresh) order.push_back(idx);
      it->second += coeff;
    }
    for (const int idx : order) {
      const double coeff = merged.at(idx);
      if (coeff != 0.0) {
        cols_[static_cast<std::size_t>(idx)].emplace_back(
            static_cast<int>(i), coeff);
      }
    }
    rhs_[i] = con.rhs;
    // Logical variable: row i becomes  a_i x + s_i = b_i.
    cols_[n_ + i].emplace_back(static_cast<int>(i), 1.0);
    switch (con.rel) {
      case Rel::le:
        logical_lo_[i] = 0.0;
        logical_up_[i] = kInf;
        break;
      case Rel::ge:
        logical_lo_[i] = -kInf;
        logical_up_[i] = 0.0;
        break;
      case Rel::eq:
        logical_lo_[i] = 0.0;
        logical_up_[i] = 0.0;
        break;
    }
  }
}

RevisedSolver::RevisedSolver(const Model& model)
    : RevisedSolver{model, [&] {
        std::vector<int> all(model.n_constraints());
        for (std::size_t i = 0; i < all.size(); ++i) {
          all[i] = static_cast<int>(i);
        }
        return all;
      }()} {}

void RevisedSolver::load_bounds(const std::vector<double>& lb,
                                const std::vector<double>& ub) {
  lo_.assign(n_ + m_, 0.0);
  up_.assign(n_ + m_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    lo_[j] = lb[j];
    up_[j] = ub[j];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    lo_[n_ + i] = logical_lo_[i];
    up_[n_ + i] = logical_up_[i];
  }
}

void RevisedSolver::logical_basis(Basis& basis) const {
  basis.basic.assign(m_, 0);
  basis.status.assign(n_ + m_, VarStatus::at_lower);
  for (std::size_t i = 0; i < m_; ++i) {
    basis.basic[i] = static_cast<int>(n_ + i);
    basis.status[n_ + i] = VarStatus::basic;
  }
}

bool RevisedSolver::factorize(const Basis& basis) {
  std::vector<std::vector<std::pair<int, double>>> cols(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    cols[i] = cols_[static_cast<std::size_t>(basis.basic[i])];
  }
  return binv_.refactor(m_, cols);
}

double RevisedSolver::nonbasic_value(const Basis& basis,
                                     std::size_t j) const {
  if (basis.status[j] == VarStatus::at_upper && std::isfinite(up_[j])) {
    return up_[j];
  }
  return std::isfinite(lo_[j]) ? lo_[j] : 0.0;
}

void RevisedSolver::compute_xb(const Basis& basis) {
  std::vector<double> v = rhs_;
  for (std::size_t j = 0; j < n_ + m_; ++j) {
    if (basis.status[j] == VarStatus::basic) continue;
    const double value = nonbasic_value(basis, j);
    if (value == 0.0) continue;
    for (const auto& [row, coeff] : cols_[j]) {
      v[static_cast<std::size_t>(row)] -= coeff * value;
    }
  }
  binv_.ftran_dense(v, xb_);
}

void RevisedSolver::extract(const Basis& basis) {
  x_out_.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    x_out_[j] = nonbasic_value(basis, j);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const auto b = static_cast<std::size_t>(basis.basic[i]);
    if (b < n_) x_out_[b] = xb_[i];
  }
  objective_ = 0.0;
  for (std::size_t j = 0; j < n_; ++j) objective_ += cost_[j] * x_out_[j];
}

LpStatus RevisedSolver::primal_loop(Basis& basis, bool phase1,
                                    std::int64_t max_pivots) {
  const std::int64_t bland_after = max_pivots / 2;
  int bad_updates = 0;
  while (true) {
    if (phase1) {
      // Composite phase-1 costs: gradient of the total bound violation of
      // the basic variables. Rebuilt every iteration because each step can
      // change which basics are infeasible.
      cb_.assign(m_, 0.0);
      bool any = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const auto b = static_cast<std::size_t>(basis.basic[i]);
        if (xb_[i] < lo_[b] - kFeasTol) {
          cb_[i] = -1.0;
          any = true;
        } else if (xb_[i] > up_[b] + kFeasTol) {
          cb_[i] = 1.0;
          any = true;
        }
      }
      if (!any) return LpStatus::optimal;  // primal feasible
    } else {
      cb_.resize(m_);
      for (std::size_t i = 0; i < m_; ++i) {
        cb_[i] = cost_[static_cast<std::size_t>(basis.basic[i])];
      }
    }
    if (pivots_ >= max_pivots) return LpStatus::iteration_limit;
    const bool bland = pivots_ > bland_after;
    binv_.btran(cb_, y_);

    // Pricing. Dantzig (largest dual violation, lowest index on ties);
    // Bland (first eligible index) once the budget midpoint passes.
    std::size_t enter = n_ + m_;
    double best = kDjTol;
    int sigma = 0;
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      if (basis.status[j] == VarStatus::basic) continue;
      if (up_[j] - lo_[j] <= kFixedTol) continue;  // fixed: never priced
      const double cj = phase1 ? 0.0 : cost_[j];
      const double d = cj - dot_sparse(y_, cols_[j]);
      double viol = 0.0;
      int dir = 0;
      if (basis.status[j] == VarStatus::at_lower && d < -kDjTol) {
        viol = -d;
        dir = 1;
      } else if (basis.status[j] == VarStatus::at_upper && d > kDjTol) {
        viol = d;
        dir = -1;
      } else {
        continue;
      }
      if (bland) {
        enter = j;
        sigma = dir;
        break;
      }
      if (viol > best) {
        best = viol;
        enter = j;
        sigma = dir;
      }
    }
    if (enter == n_ + m_) {
      if (!phase1) return LpStatus::optimal;
      return LpStatus::infeasible;  // violation is minimal but nonzero
    }

    binv_.ftran(cols_[enter], alpha_);

    // Bounded ratio test. The entering variable moves by sigma * t; basic
    // i moves by -sigma * t * alpha_i. Blocking events: a feasible basic
    // reaching a bound, an infeasible basic (phase 1) reaching the bound
    // it violates, or the entering variable reaching its far bound (bound
    // flip — no basis change at all). Ties prefer the flip, then the
    // smallest basic variable index (deterministic, anti-cycling aid).
    const double span = up_[enter] - lo_[enter];
    const double flip = std::isfinite(span) ? span : kInf;
    double t_limit = kInf;
    std::size_t leave = m_;
    bool leave_to_upper = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const double delta = -static_cast<double>(sigma) * alpha_[i];
      if (std::abs(delta) <= kPivotTol) continue;
      const auto b = static_cast<std::size_t>(basis.basic[i]);
      const double v = xb_[i];
      double t = 0.0;
      bool to_upper = false;
      if (phase1 && v < lo_[b] - kFeasTol) {
        if (delta <= 0.0) continue;  // moving further below: no block
        t = (lo_[b] - v) / delta;
        to_upper = false;
      } else if (phase1 && v > up_[b] + kFeasTol) {
        if (delta >= 0.0) continue;
        t = (v - up_[b]) / -delta;
        to_upper = true;
      } else if (delta > 0.0) {
        if (!std::isfinite(up_[b])) continue;
        t = (up_[b] - v) / delta;
        to_upper = true;
      } else {
        if (!std::isfinite(lo_[b])) continue;
        t = (v - lo_[b]) / -delta;
        to_upper = false;
      }
      t = std::max(t, 0.0);
      if (t < t_limit - kRatioTol ||
          (t <= t_limit + kRatioTol &&
           (leave == m_ || basis.basic[i] < basis.basic[leave]))) {
        t_limit = t;
        leave = i;
        leave_to_upper = to_upper;
      }
    }

    if (flip <= t_limit + kRatioTol) {
      // Bound flip wins (ties included): the entering variable crosses its
      // box to the opposite bound; the basis is unchanged.
      if (!std::isfinite(flip)) {
        // No row blocks and the box is infinite.
        return phase1 ? LpStatus::iteration_limit : LpStatus::unbounded;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        xb_[i] -= static_cast<double>(sigma) * flip * alpha_[i];
      }
      basis.status[enter] = sigma > 0 ? VarStatus::at_upper
                                      : VarStatus::at_lower;
      ++pivots_;
      continue;
    }
    if (leave == m_) {
      return phase1 ? LpStatus::iteration_limit : LpStatus::unbounded;
    }

    const double enter_value =
        nonbasic_value(basis, enter) + static_cast<double>(sigma) * t_limit;
    if (!binv_.update(leave, alpha_)) {
      // Pivot element too small for a stable product-form update: rebuild
      // the inverse and re-run the iteration from fresh numbers.
      if (++bad_updates > 3) return LpStatus::iteration_limit;
      if (!factorize(basis)) return LpStatus::iteration_limit;
      compute_xb(basis);
      continue;
    }
    bad_updates = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      xb_[i] -= static_cast<double>(sigma) * t_limit * alpha_[i];
    }
    const auto leaving = static_cast<std::size_t>(basis.basic[leave]);
    basis.status[leaving] =
        leave_to_upper ? VarStatus::at_upper : VarStatus::at_lower;
    basis.basic[leave] = static_cast<int>(enter);
    basis.status[enter] = VarStatus::basic;
    xb_[leave] = enter_value;
    ++pivots_;
    if (pivots_ % kRefactorEvery == 0) {
      if (!factorize(basis)) return LpStatus::iteration_limit;
      compute_xb(basis);
    }
  }
}

LpStatus RevisedSolver::solve_primal(const std::vector<double>& lb,
                                     const std::vector<double>& ub,
                                     Basis& basis, std::int64_t max_pivots) {
  load_bounds(lb, ub);
  pivots_ = 0;
  if (basis.empty() || basis.basic.size() != m_ ||
      basis.status.size() != n_ + m_) {
    logical_basis(basis);
  }
  if (!factorize(basis)) {
    logical_basis(basis);
    if (!factorize(basis)) return LpStatus::iteration_limit;
  }
  compute_xb(basis);

  const LpStatus s1 = primal_loop(basis, /*phase1=*/true, max_pivots);
  if (s1 != LpStatus::optimal) return s1;
  const LpStatus s2 = primal_loop(basis, /*phase1=*/false, max_pivots);
  if (s2 == LpStatus::optimal) extract(basis);
  return s2;
}

LpStatus RevisedSolver::solve_dual(const std::vector<double>& lb,
                                   const std::vector<double>& ub,
                                   Basis& basis, std::int64_t max_pivots) {
  load_bounds(lb, ub);
  pivots_ = 0;
  if (basis.empty() || basis.basic.size() != m_ ||
      basis.status.size() != n_ + m_) {
    return LpStatus::iteration_limit;  // no warm basis: caller goes primal
  }
  if (!factorize(basis)) return LpStatus::iteration_limit;
  compute_xb(basis);

  while (true) {
    // Leaving row: most violated basic bound, smallest variable index on
    // ties. None -> the (still dual-feasible) basis is primal feasible,
    // hence optimal.
    std::size_t leave = m_;
    double worst = kFeasTol;
    bool below = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis.basic[i]);
      double v = 0.0;
      bool is_below = false;
      if (xb_[i] < lo_[b] - kFeasTol) {
        v = lo_[b] - xb_[i];
        is_below = true;
      } else if (xb_[i] > up_[b] + kFeasTol) {
        v = xb_[i] - up_[b];
      } else {
        continue;
      }
      if (v > worst ||
          (v >= worst - kRatioTol && leave != m_ &&
           basis.basic[i] < basis.basic[leave])) {
        worst = v;
        leave = i;
        below = is_below;
      }
    }
    if (leave == m_) {
      extract(basis);
      return LpStatus::optimal;
    }
    if (pivots_ >= max_pivots) return LpStatus::iteration_limit;

    // Reduced costs under the current basis (bound changes never disturb
    // dual feasibility, so these stay correctly signed between pivots).
    cb_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      cb_[i] = cost_[static_cast<std::size_t>(basis.basic[i])];
    }
    binv_.btran(cb_, y_);
    binv_.row(leave, rho_);

    // Dual ratio test: among nonbasics whose movement pushes the leaving
    // basic toward its violated bound, pick the smallest |d| / |alpha_r|
    // (smallest index on ties) so every other reduced cost keeps its sign.
    const auto lb_var = static_cast<std::size_t>(basis.basic[leave]);
    std::size_t enter = n_ + m_;
    double best_ratio = 0.0;
    double alpha_r_enter = 0.0;
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      if (basis.status[j] == VarStatus::basic) continue;
      if (up_[j] - lo_[j] <= kFixedTol) continue;
      const double a = dot_sparse(rho_, cols_[j]);
      if (std::abs(a) <= kPivotTol) continue;
      const bool at_lower = basis.status[j] != VarStatus::at_upper;
      // Below-violation needs xb to rise: at_lower wants a < 0, at_upper
      // wants a > 0. Above-violation is the mirror image.
      if (below ? (at_lower ? a >= 0.0 : a <= 0.0)
                : (at_lower ? a <= 0.0 : a >= 0.0)) {
        continue;
      }
      const double d = cost_[j] - dot_sparse(y_, cols_[j]);
      const double ratio = std::abs(d) / std::abs(a);
      if (enter == n_ + m_ || ratio < best_ratio - kRatioTol) {
        enter = j;
        best_ratio = ratio;
        alpha_r_enter = a;
      }
    }
    if (enter == n_ + m_) return LpStatus::infeasible;  // dual unbounded

    binv_.ftran(cols_[enter], alpha_);
    const double target = below ? lo_[lb_var] : up_[lb_var];
    const double step = (xb_[leave] - target) / alpha_r_enter;
    if (!binv_.update(leave, alpha_)) {
      if (!factorize(basis)) return LpStatus::iteration_limit;
      compute_xb(basis);
      ++pivots_;
      continue;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leave) continue;
      xb_[i] -= step * alpha_[i];
    }
    const double enter_value = nonbasic_value(basis, enter) + step;
    basis.status[lb_var] =
        below ? VarStatus::at_lower : VarStatus::at_upper;
    basis.basic[leave] = static_cast<int>(enter);
    basis.status[enter] = VarStatus::basic;
    xb_[leave] = enter_value;
    ++pivots_;
    if (pivots_ % kRefactorEvery == 0) {
      if (!factorize(basis)) return LpStatus::iteration_limit;
      compute_xb(basis);
    }
  }
}

}  // namespace vbatt::solver
