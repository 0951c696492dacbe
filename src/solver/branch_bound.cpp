#include "vbatt/solver/branch_bound.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "vbatt/solver/basis.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/presolve.h"
#include "vbatt/solver/revised.h"

namespace vbatt::solver {

namespace {

constexpr double kBoundTol = 1e-7;

struct Node {
  double bound = 0.0;  // LP objective of the parent relaxation
  std::uint64_t seq = 0;
  std::vector<double> lb;
  std::vector<double> ub;
  Basis basis;  // parent's final basis: dual-feasible start for this node
  int branch_var = -1;
  bool went_up = false;
  double frac = 0.0;  // fractional part of the branch variable at the parent
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    // Min-heap on (bound, push order): best-first, deterministic ties.
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.seq > b.seq;
  }
};

/// Index of the most fractional integer variable, or -1 if all integral.
/// The seed's rule; used until pseudo-costs have observations.
int most_fractional(const Model& model, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_dist = tol;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!model.vars()[i].integer) continue;
    const double frac = x[i] - std::floor(x[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Per-variable pseudo-costs: average objective degradation per unit of
/// fractionality pushed, by branch direction, within one tree.
struct PseudoCost {
  double down_sum = 0.0;
  double up_sum = 0.0;
  int down_n = 0;
  int up_n = 0;
};

/// Pseudo-cost state for one tree.
struct PseudoCostTable {
  std::vector<PseudoCost> pc;
  std::int64_t observations = 0;
  double total = 0.0;

  explicit PseudoCostTable(std::size_t n) : pc(n) {}

  /// Record the observed bound degradation of an expanded child.
  void observe(std::size_t var, bool went_up, double frac, double gain) {
    const double step = went_up ? 1.0 - frac : frac;
    const double rate = std::max(0.0, gain) / std::max(step, 1e-6);
    if (went_up) {
      pc[var].up_sum += rate;
      ++pc[var].up_n;
    } else {
      pc[var].down_sum += rate;
      ++pc[var].down_n;
    }
    ++observations;
    total += rate;
  }

  /// Pseudo-cost branching once observations exist, most-fractional
  /// before. Returns -1 when x is integral.
  int select(const Model& model, const std::vector<double>& x,
             double int_tol) const {
    if (observations == 0) return most_fractional(model, x, int_tol);
    const double global = total / static_cast<double>(observations);
    int best = -1;
    double best_score = -1.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (!model.vars()[j].integer) continue;
      const double frac = x[j] - std::floor(x[j]);
      if (std::min(frac, 1.0 - frac) <= int_tol) continue;
      const double down =
          (pc[j].down_n > 0 ? pc[j].down_sum / pc[j].down_n : global) * frac;
      const double up =
          (pc[j].up_n > 0 ? pc[j].up_sum / pc[j].up_n : global) *
          (1.0 - frac);
      const double score = std::max(down, 1e-12) * std::max(up, 1e-12);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(j);
      }
    }
    return best;
  }
};

}  // namespace

MipResult solve_revised(const Model& model, const MipOptions& options) {
  MipResult result;
  const std::size_t n = model.n_vars();

  std::vector<double> lb0;
  std::vector<double> ub0;
  lb0.reserve(n);
  ub0.reserve(n);
  for (const Variable& v : model.vars()) {
    if (!std::isfinite(v.lb)) {
      throw std::invalid_argument{"solve_mip: -inf lower bound"};
    }
    lb0.push_back(v.lb);
    ub0.push_back(v.ub);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lb0[i] <= ub0[i])) {
      ++result.nodes_explored;
      return result;  // infeasible box
    }
  }

  const PresolveResult pre =
      presolve(model, lb0, ub0, /*integrality=*/true);
  if (pre.infeasible) {
    ++result.nodes_explored;
    result.status = LpStatus::infeasible;
    return result;
  }

  const bool box_only = pre.rows.empty();
  std::optional<RevisedSolver> solver;
  if (!box_only) solver.emplace(model, pre.rows);
  const std::int64_t lp_budget =
      options.max_lp_pivots >= 0
          ? options.max_lp_pivots
          : 2000 + 60 * static_cast<std::int64_t>(pre.rows.size() + n);

  // Solve one node's LP. `basis` is in-out: on entry the parent's final
  // basis (dual-simplex warm start when `allow_dual`), on optimal exit this
  // node's final basis, handed down to its children.
  const auto solve_node = [&](const std::vector<double>& nlb,
                              const std::vector<double>& nub, Basis& basis,
                              bool allow_dual) -> LpResult {
    LpResult r;
    for (std::size_t j = 0; j < n; ++j) {
      if (nlb[j] > nub[j] + kBoundTol) return r;  // infeasible box
    }
    if (box_only) {
      // Bound-constrained only: each free variable sits at whichever bound
      // its cost prefers (lower on ties, matching the seed's vertex).
      r.x = nlb;
      for (std::size_t j = 0; j < n; ++j) {
        if (nub[j] - nlb[j] <= kBoundTol) continue;
        if (model.vars()[j].cost < 0.0) {
          if (!std::isfinite(nub[j])) {
            r.status = LpStatus::unbounded;
            r.x.clear();
            return r;
          }
          r.x[j] = nub[j];
        }
      }
      r.status = LpStatus::optimal;
      r.objective = model.objective_of(r.x);
      return r;
    }
    LpStatus s;
    if (allow_dual && !basis.empty()) {
      s = solver->solve_dual(nlb, nub, basis, lp_budget);
      r.pivots += solver->pivots();
      if (s == LpStatus::iteration_limit) {
        // Warm path stalled: cold primal restart.
        basis = Basis{};
        s = solver->solve_primal(nlb, nub, basis, lp_budget);
        r.pivots += solver->pivots();
      }
    } else {
      s = solver->solve_primal(nlb, nub, basis, lp_budget);
      r.pivots += solver->pivots();
    }
    r.status = s;
    if (s == LpStatus::optimal) {
      r.x = solver->x();
      r.objective = model.objective_of(r.x);
    }
    return r;
  };

  Basis root_basis;
  const LpResult root =
      solve_node(pre.lb, pre.ub, root_basis, /*allow_dual=*/false);
  result.pivots += root.pivots;
  ++result.nodes_explored;
  if (root.status != LpStatus::optimal) {
    result.status = root.status;
    return result;
  }

  // The root is a node like any other: with the budget already spent it
  // may not become the incumbent, so the solve fails unproven.
  if (result.nodes_explored > options.max_nodes) {
    result.status = LpStatus::iteration_limit;
    return result;
  }

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  std::uint64_t next_seq = 0;
  const auto push_child = [&](Node&& node) {
    const auto bv = static_cast<std::size_t>(node.branch_var);
    if (node.branch_var >= 0 && node.lb[bv] > node.ub[bv]) return;
    node.seq = next_seq++;
    open.push(std::move(node));
  };

  PseudoCostTable pc(n);

  bool have_incumbent = false;
  double incumbent = 0.0;
  std::vector<double> incumbent_x;
  bool exhausted_cleanly = true;

  // Expand the root in place rather than pushing it and re-solving it as
  // the first popped node (the seed does the latter; the root basis is
  // already optimal, so that second solve can never learn anything).
  {
    const int branch = most_fractional(model, root.x, options.int_tol);
    if (branch < 0) {
      have_incumbent = true;
      incumbent = root.objective;
      incumbent_x = root.x;
    } else {
      const auto bi = static_cast<std::size_t>(branch);
      const double value = root.x[bi];
      const double frac = value - std::floor(value);
      Node down{root.objective, 0,     pre.lb, pre.ub, root_basis,
                branch,         false, frac};
      down.ub[bi] = std::floor(value);
      push_child(std::move(down));
      Node up{root.objective, 0,    pre.lb, pre.ub, std::move(root_basis),
              branch,         true, frac};
      up.lb[bi] = std::ceil(value);
      push_child(std::move(up));
    }
  }

  while (!open.empty()) {
    if (result.nodes_explored >= options.max_nodes) {
      exhausted_cleanly = false;
      break;
    }
    Node node = open.top();
    open.pop();
    if (have_incumbent && node.bound >= incumbent - options.gap_abs) {
      continue;  // cannot improve
    }
    LpResult lp = solve_node(node.lb, node.ub, node.basis, true);
    result.pivots += lp.pivots;
    ++result.nodes_explored;
    if (lp.status == LpStatus::unbounded) {
      result.status = LpStatus::unbounded;
      return result;
    }
    if (lp.status == LpStatus::iteration_limit) {
      // Node LP ran out of pivots even after the cold retry: drop the node
      // but record that the tree is no longer exhaustive.
      exhausted_cleanly = false;
      continue;
    }
    if (lp.status != LpStatus::optimal) continue;  // pruned (infeasible)

    if (node.branch_var >= 0) {
      pc.observe(static_cast<std::size_t>(node.branch_var), node.went_up,
                 node.frac, lp.objective - node.bound);
    }

    if (have_incumbent && lp.objective >= incumbent - options.gap_abs) {
      continue;
    }
    const int branch = pc.select(model, lp.x, options.int_tol);
    if (branch < 0) {
      // Integral: new incumbent.
      have_incumbent = true;
      incumbent = lp.objective;
      incumbent_x = std::move(lp.x);
      continue;
    }
    const auto bi = static_cast<std::size_t>(branch);
    const double value = lp.x[bi];
    const double frac = value - std::floor(value);

    Node down{lp.objective, 0,      node.lb, node.ub, node.basis,
              branch,       false,  frac};
    down.ub[bi] = std::floor(value);
    push_child(std::move(down));

    Node up{lp.objective,          0,    std::move(node.lb),
            std::move(node.ub),    std::move(node.basis),
            branch,                true, frac};
    up.lb[bi] = std::ceil(value);
    push_child(std::move(up));
  }

  if (!have_incumbent) {
    result.status =
        exhausted_cleanly ? LpStatus::infeasible : LpStatus::iteration_limit;
    return result;
  }
  result.status = LpStatus::optimal;
  result.objective = incumbent;
  result.x = std::move(incumbent_x);
  // Snap near-integral values exactly.
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    if (model.vars()[i].integer) {
      result.x[i] = std::round(result.x[i]);
    }
  }
  result.proven_optimal = exhausted_cleanly;
  return result;
}

MipEngine resolve_engine(const Model& model) {
  return CompiledModel{model}.engine(model);
}

const char* engine_name(MipEngine engine) noexcept {
  switch (engine) {
    case MipEngine::revised:
      return "revised";
    case MipEngine::decomposed:
      return "decomposed";
  }
  return "unknown";
}

MipResult solve_mip(const Model& model, const MipOptions& options) {
  CompiledModel plan{model};
  return solve_mip(model, plan, options);
}

MipResult solve_mip(const Model& model, CompiledModel& plan,
                    const MipOptions& options) {
  plan.refresh(model);
  if (plan.engine(model) == MipEngine::revised) {
    return solve_revised(model, options);
  }
  return solve_mip_decomposed(model, plan, options);
}

}  // namespace vbatt::solver
