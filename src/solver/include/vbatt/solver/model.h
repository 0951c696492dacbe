// Linear / mixed-integer model builder.
//
// Stands in for the commercial MIP solver the paper presumably used: a
// minimal modeling layer (variables with bounds and costs, linear
// constraints) consumed by the bundled simplex + branch & bound engine.
// Minimization only — negate costs to maximize.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vbatt::solver {

enum class Rel { le, ge, eq };

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Variable {
  std::string name;
  double cost = 0.0;
  double lb = 0.0;
  double ub = kInf;
  bool integer = false;
};

struct Constraint {
  /// (variable index, coefficient) pairs; indices must be valid.
  std::vector<std::pair<int, double>> terms;
  Rel rel = Rel::le;
  double rhs = 0.0;
};

/// A minimization model: min cᵀx  s.t.  Ax {≤,≥,=} b,  lb ≤ x ≤ ub,
/// x_i integer for flagged variables.
class Model {
 public:
  /// Returns the new variable's index.
  int add_var(std::string name, double cost, double lb = 0.0,
              double ub = kInf, bool integer = false) {
    if (!(lb <= ub)) throw std::invalid_argument{"add_var: lb > ub"};
    vars_.push_back(Variable{std::move(name), cost, lb, ub, integer});
    restamp();
    return static_cast<int>(vars_.size()) - 1;
  }

  /// Convenience: binary decision variable.
  int add_binary(std::string name, double cost) {
    return add_var(std::move(name), cost, 0.0, 1.0, true);
  }

  void add_constraint(std::vector<std::pair<int, double>> terms, Rel rel,
                      double rhs) {
    for (const auto& [idx, coeff] : terms) {
      (void)coeff;
      if (idx < 0 || idx >= static_cast<int>(vars_.size())) {
        throw std::invalid_argument{"add_constraint: bad variable index"};
      }
    }
    constraints_.push_back(Constraint{std::move(terms), rel, rhs});
    restamp();
  }

  /// Remove the most recently added constraint. Lets callers append a
  /// temporary row (e.g. a lexicographic objective cap), solve, and restore
  /// the model without copying it.
  void pop_constraint() {
    if (constraints_.empty()) {
      throw std::logic_error{"pop_constraint: no constraints"};
    }
    constraints_.pop_back();
    restamp();
  }

  /// Remove the most recently added variable. The caller must first pop any
  /// constraints that reference it.
  void pop_var() {
    if (vars_.empty()) throw std::logic_error{"pop_var: no variables"};
    const int idx = static_cast<int>(vars_.size()) - 1;
    for (const Constraint& con : constraints_) {
      for (const auto& [i, coeff] : con.terms) {
        (void)coeff;
        if (i == idx) {
          throw std::logic_error{"pop_var: variable still referenced"};
        }
      }
    }
    vars_.pop_back();
    restamp();
  }

  /// Overwrite one row's right-hand side in place. The structural patch
  /// primitive for incremental model reuse: between replans of the same
  /// planning family only costs and a handful of rhs values change.
  void set_rhs(std::size_t row, double rhs) {
    if (row >= constraints_.size()) {
      throw std::out_of_range{"set_rhs: bad row index"};
    }
    constraints_[row].rhs = rhs;
  }

  /// Identifies the model's structure: variable count, row terms and
  /// relations. add_var, add_constraint, pop_var and pop_constraint each
  /// draw a fresh process-wide stamp, so two models share a stamp only
  /// when one is a copy of the other with no structural edit since. Data
  /// edits (costs, bounds, set_rhs) keep it. A CompiledModel (decompose.h)
  /// is only reused while the stamp it was compiled at is current.
  std::uint64_t structure_stamp() const noexcept { return stamp_; }

  std::size_t n_vars() const noexcept { return vars_.size(); }
  std::size_t n_constraints() const noexcept { return constraints_.size(); }
  const std::vector<Variable>& vars() const noexcept { return vars_; }
  std::vector<Variable>& vars() noexcept { return vars_; }
  const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// Objective value of a point under the current costs.
  double objective_of(const std::vector<double>& x) const {
    if (x.size() != vars_.size()) {
      throw std::invalid_argument{"objective_of: size mismatch"};
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) sum += vars_[i].cost * x[i];
    return sum;
  }

 private:
  void restamp() noexcept {
    static std::atomic<std::uint64_t> next{1};
    stamp_ = next.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Variable> vars_;
  std::vector<Constraint> constraints_;
  std::uint64_t stamp_ = 0;
};

}  // namespace vbatt::solver
