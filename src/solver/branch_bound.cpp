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
/// Tolerance for accepting a caller-provided warm solution as feasible.
constexpr double kWarmTol = 1e-6;

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

/// Validate a caller-provided warm solution against the (presolve-
/// tightened) box, integrality, and every model row. A valid vector's
/// objective becomes a static cutoff; an invalid one is silently ignored.
std::optional<double> warm_cutoff(const Model& model,
                                  const std::vector<double>& warm_x,
                                  const std::vector<double>& lb,
                                  const std::vector<double>& ub,
                                  double int_tol) {
  const std::size_t n = model.n_vars();
  if (warm_x.size() != n) return std::nullopt;
  std::vector<double> xw = warm_x;
  for (std::size_t j = 0; j < n; ++j) {
    if (model.vars()[j].integer) {
      const double snapped = std::round(xw[j]);
      if (std::abs(xw[j] - snapped) > int_tol) return std::nullopt;
      xw[j] = snapped;
    }
    if (xw[j] < lb[j] - kWarmTol || xw[j] > ub[j] + kWarmTol) {
      return std::nullopt;
    }
  }
  for (const Constraint& con : model.constraints()) {
    double act = 0.0;
    for (const auto& [idx, coeff] : con.terms) {
      act += coeff * xw[static_cast<std::size_t>(idx)];
    }
    switch (con.rel) {
      case Rel::le:
        if (!(act <= con.rhs + kWarmTol)) return std::nullopt;
        break;
      case Rel::ge:
        if (!(act >= con.rhs - kWarmTol)) return std::nullopt;
        break;
      case Rel::eq:
        if (!(std::abs(act - con.rhs) <= kWarmTol)) return std::nullopt;
        break;
    }
  }
  return model.objective_of(xw);
}

MipResult solve_mip_impl(const Model& model, const MipOptions& options,
                         const MipWarmStart* warm, MipBasisHint* hint) {
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
  if (hint && !hint->basis.empty() && hint->n_vars == n &&
      hint->rows == pre.rows) {
    // Primal warm start from the previous solve's root basis (a previous
    // lexicographic stage, or — via MipBasisHint persisted by the caller
    // — the previous replanning round's structurally identical model).
    root_basis = hint->basis;
    result.used_basis_hint = true;
  }
  const LpResult root =
      solve_node(pre.lb, pre.ub, root_basis, /*allow_dual=*/false);
  result.pivots += root.pivots;
  ++result.nodes_explored;
  if (root.status != LpStatus::optimal) {
    result.status = root.status;
    return result;
  }
  if (hint) {
    if (box_only) {
      hint->clear();  // no basis exists; don't leave a stale one behind
    } else {
      hint->basis = root_basis;
      hint->rows = pre.rows;
      hint->n_vars = n;
      if (!solver->compute_duals(root_basis, hint->duals)) {
        hint->duals.clear();
      }
    }
  }

  // The root is a node like any other: with the budget already spent it
  // may not become the incumbent, so the solve fails unproven.
  if (result.nodes_explored > options.max_nodes) {
    result.status = LpStatus::iteration_limit;
    return result;
  }

  bool have_cutoff = false;
  double cutoff = 0.0;
  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  std::uint64_t next_seq = 0;
  const auto push_child = [&](Node&& node) {
    const auto bv = static_cast<std::size_t>(node.branch_var);
    if (node.branch_var >= 0 && node.lb[bv] > node.ub[bv]) return;
    if (have_cutoff && node.bound > cutoff + options.gap_abs) return;
    node.seq = next_seq++;
    open.push(std::move(node));
  };

  // Validate the warm solution; a valid one becomes a static cutoff that
  // keeps nodes whose bound already exceeds it out of the heap. Such nodes
  // are provably never LP-solved by the cold search either (best-first
  // reaches the optimum through strictly lower bounds first), so warm and
  // cold runs explore identical node sequences and return identical
  // results — the cutoff only bounds heap growth and drain work.
  if (warm) {
    const std::optional<double> wc =
        warm_cutoff(model, warm->x, pre.lb, pre.ub, options.int_tol);
    if (wc) {
      have_cutoff = true;
      cutoff = *wc;
    }
  }

  PseudoCostTable pc(n);

  bool have_incumbent = false;
  double incumbent = 0.0;
  std::vector<double> incumbent_x;
  bool exhausted_cleanly = true;

  // Expand the root in place rather than pushing it and re-solving it as
  // the first popped node (the seed does the latter; the root basis is
  // already optimal, so that second solve can never learn anything). Root
  // children carry a bound no larger than any integral optimum, so a valid
  // warm cutoff never drops them.
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

}  // namespace

MipEngine resolve_engine(const Model& model) {
  const std::size_t nv = model.n_vars();
  const std::size_t nc = model.n_constraints();
  // Tiny models solve in microseconds on the monolithic path; any probing
  // or decomposition bookkeeping would dominate.
  if (nv < 24 || nc < 12) return MipEngine::revised;

  // Block count: union-find over variables coupled by shared rows — the
  // same notion of separability the decomposed engine uses, at O(nnz α).
  std::vector<int> parent(nv);
  for (std::size_t i = 0; i < nv; ++i) parent[i] = static_cast<int>(i);
  const auto find = [&parent](int i) {
    while (parent[static_cast<std::size_t>(i)] != i) {
      parent[static_cast<std::size_t>(i)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(i)])];
      i = parent[static_cast<std::size_t>(i)];
    }
    return i;
  };
  std::vector<char> constrained(nv, 0);
  for (const Constraint& row : model.constraints()) {
    if (row.terms.empty()) continue;
    const int first = find(row.terms.front().first);
    for (const auto& [idx, coeff] : row.terms) {
      (void)coeff;
      constrained[static_cast<std::size_t>(idx)] = 1;
      parent[static_cast<std::size_t>(find(idx))] = first;
    }
  }
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    if (constrained[i] && find(static_cast<int>(i)) == static_cast<int>(i)) {
      ++blocks;
    }
  }

  // Chain signature (necessary conditions only — decomposed verifies the
  // real thing and falls back if the probe guessed wrong): assignment-style
  // eq rows with all-unit coefficients over binaries, every other row a
  // short coupling row. That is the trajectory family's shape.
  bool chainish = true;
  std::size_t eq_unit_rows = 0;
  for (const Constraint& row : model.constraints()) {
    if (!chainish) break;
    if (row.rel == Rel::eq) {
      for (const auto& [idx, coeff] : row.terms) {
        const Variable& var = model.vars()[static_cast<std::size_t>(idx)];
        if (coeff != 1.0 || !var.integer || var.lb != 0.0 || var.ub != 1.0) {
          chainish = false;
          break;
        }
      }
      ++eq_unit_rows;
    } else if (row.terms.size() > 3) {
      chainish = false;
    }
  }
  chainish = chainish && eq_unit_rows >= 2;

  return blocks > 1 || chainish ? MipEngine::decomposed : MipEngine::revised;
}

const char* engine_name(MipEngine engine) noexcept {
  switch (engine) {
    case MipEngine::revised:
      return "revised";
    case MipEngine::decomposed:
      return "decomposed";
    case MipEngine::auto_select:
      return "auto";
  }
  return "unknown";
}

MipResult solve_mip(const Model& model, const MipOptions& options,
                    const MipWarmStart* warm, MipBasisHint* hint) {
  switch (options.engine) {
    case MipEngine::revised:
      return solve_mip_impl(model, options, warm, hint);
    case MipEngine::decomposed:
      return solve_mip_decomposed(model, options, warm, hint);
    case MipEngine::auto_select: {
      MipOptions resolved = options;
      resolved.engine = resolve_engine(model);
      return solve_mip(model, resolved, warm, hint);
    }
  }
  return solve_mip_impl(model, options, warm, hint);  // unreachable
}

MipResult solve_lexicographic(Model& model,
                              const std::vector<double>& secondary,
                              double eps_rel, double eps_abs,
                              const MipOptions& options,
                              const MipWarmStart* warm, MipBasisHint* hint) {
  if (secondary.size() != model.n_vars()) {
    throw std::invalid_argument{"solve_lexicographic: cost size mismatch"};
  }
  const bool revised = options.engine == MipEngine::revised;
  // Stage-to-stage basis carry (revised engine). The caller's hint doubles
  // as the carrier when provided, so cross-replan warm starts compose with
  // the lexicographic flow; otherwise a local stage-scoped one is used.
  MipBasisHint local_tree;
  MipBasisHint* tree = hint ? hint : &local_tree;
  const MipResult first = revised
                              ? solve_mip_impl(model, options, warm, tree)
                              : solve_mip(model, options, warm, hint);
  if (first.status != LpStatus::optimal) return first;

  // Bound the primary objective, then swap in the secondary costs — in
  // place; both edits are undone before returning.
  std::vector<std::pair<int, double>> terms;
  std::vector<double> primary_costs;
  primary_costs.reserve(model.n_vars());
  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    const double c = model.vars()[i].cost;
    primary_costs.push_back(c);
    if (c != 0.0) terms.emplace_back(static_cast<int>(i), c);
  }
  const double cap =
      first.objective + std::abs(first.objective) * eps_rel + eps_abs;
  model.add_constraint(std::move(terms), Rel::le, cap);
  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    model.vars()[i].cost = secondary[i];
  }

  // Stage 2 warm-starts from stage 1: the stage-1 optimum satisfies the
  // cap row by construction (incumbent cutoff). With the plain revised
  // engine the stage-1 root basis extended with the new row's logical
  // additionally stays primal feasible (root basis warm start), skipping
  // phase 1 outright. Under auto_select stage 2 is dispatched afresh from
  // its own shape; the decomposed engine typically takes its monolithic
  // fallback here (the cap row couples every block) and uses only the
  // incumbent cutoff.
  const MipWarmStart stage2_warm{first.x};
  MipResult second;
  if (revised) {
    MipBasisHint tree2;
    if (!tree->basis.empty()) {
      tree2.basis = tree->basis;
      tree2.basis.extend(model.n_vars(), 0, 1);
      tree2.n_vars = model.n_vars();
      tree2.rows = tree->rows;
      tree2.rows.push_back(static_cast<int>(model.n_constraints()) - 1);
    }
    second = solve_mip_impl(model, options, &stage2_warm, &tree2);
  } else {
    second = solve_mip(model, options, &stage2_warm, nullptr);
  }
  // Surface stage-2 decomposition/warm-start observability; stage 1's
  // used_basis_hint is the one callers care about (it reflects `hint`).
  second.used_basis_hint = first.used_basis_hint;

  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    model.vars()[i].cost = primary_costs[i];
  }
  model.pop_constraint();

  if (second.status != LpStatus::optimal) {
    // Numerical edge: fall back to the stage-1 solution evaluated under
    // the secondary costs rather than failing the caller.
    const bool hinted = second.used_basis_hint;
    second = first;
    double obj = 0.0;
    for (std::size_t i = 0; i < secondary.size(); ++i) {
      obj += secondary[i] * first.x[i];
    }
    second.objective = obj;
    second.proven_optimal = false;
    second.status = LpStatus::optimal;
    second.used_basis_hint = hinted;
  }
  return second;
}

MipResult solve_lexicographic_stages(
    Model& model, const std::vector<std::vector<double>>& stages,
    double eps_rel, double eps_abs, const MipOptions& options,
    const MipWarmStart* warm, std::vector<double>* stage_values) {
  for (const std::vector<double>& costs : stages) {
    if (costs.size() != model.n_vars()) {
      throw std::invalid_argument{
          "solve_lexicographic_stages: cost size mismatch"};
    }
  }
  if (stage_values != nullptr) stage_values->clear();

  MipResult incumbent = solve_mip(model, options, warm);
  if (incumbent.status != LpStatus::optimal) return incumbent;
  if (stage_values != nullptr) stage_values->push_back(incumbent.objective);

  std::vector<double> original_costs;
  original_costs.reserve(model.n_vars());
  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    original_costs.push_back(model.vars()[i].cost);
  }

  std::size_t caps = 0;
  for (const std::vector<double>& costs : stages) {
    // Cap the stage just solved (its costs are still on the model), then
    // swap in this stage's costs and re-solve from the incumbent.
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < model.n_vars(); ++i) {
      const double c = model.vars()[i].cost;
      if (c != 0.0) terms.emplace_back(static_cast<int>(i), c);
    }
    const double cap = incumbent.objective +
                       std::abs(incumbent.objective) * eps_rel + eps_abs;
    model.add_constraint(std::move(terms), Rel::le, cap);
    ++caps;
    for (std::size_t i = 0; i < model.n_vars(); ++i) {
      model.vars()[i].cost = costs[i];
    }
    const MipWarmStart stage_warm{incumbent.x};
    MipResult next = solve_mip(model, options, &stage_warm);
    if (next.status == LpStatus::optimal) {
      next.used_basis_hint = incumbent.used_basis_hint;
      incumbent = next;
    } else {
      // Numerical edge: keep the incumbent, evaluated under this stage's
      // costs, so the chain (and its caps) stays well-defined.
      double obj = 0.0;
      for (std::size_t i = 0; i < costs.size(); ++i) {
        obj += costs[i] * incumbent.x[i];
      }
      incumbent.objective = obj;
      incumbent.proven_optimal = false;
    }
    if (stage_values != nullptr) stage_values->push_back(incumbent.objective);
  }

  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    model.vars()[i].cost = original_costs[i];
  }
  while (caps-- > 0) model.pop_constraint();
  return incumbent;
}

}  // namespace vbatt::solver
