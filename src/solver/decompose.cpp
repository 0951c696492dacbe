#include "vbatt/solver/decompose.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>


namespace vbatt::solver {

namespace {

/// One coalesced row: duplicate terms summed, zero coefficients dropped,
/// terms sorted by variable index. The chain detector needs canonical
/// rows to classify them, and RevisedSolver applies the same
/// normalization, so sub-models built from these rows are equivalent.
struct Row {
  std::vector<std::pair<int, double>> terms;
  Rel rel = Rel::le;
  double rhs = 0.0;
};

Row coalesce(const Constraint& con) {
  Row row;
  row.rel = con.rel;
  row.rhs = con.rhs;
  row.terms.assign(con.terms.begin(), con.terms.end());
  std::sort(row.terms.begin(), row.terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<int, double>> out;
  out.reserve(row.terms.size());
  for (const auto& [idx, coeff] : row.terms) {
    if (!out.empty() && out.back().first == idx) {
      out.back().second += coeff;
    } else {
      out.emplace_back(idx, coeff);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const auto& t) { return t.second == 0.0; }),
            out.end());
  row.terms = std::move(out);
  return row;
}

struct Dsu {
  std::vector<int> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  }
  int find(int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    // Deterministic: smaller root wins, so component ids are the smallest
    // member and block order is by first variable index.
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
  }
};

/// One independent block: its variables and the rows they own, both in
/// ascending original-index order.
struct Block {
  std::vector<int> vars;
  std::vector<int> rows;
};

bool is_binary01(const Variable& v) {
  return v.integer && (v.lb == 0.0 || v.lb == 1.0) &&
         (v.ub == 0.0 || v.ub == 1.0) && v.lb <= v.ub;
}

/// A verified move row `x_a - x_b - y <= rhs` (x_b absent for the
/// horizon-start rows `x_a - y <= rhs`).
struct TransRow {
  int x_a = -1;
  int x_b = -1;
  int y = -1;
  double rhs = 0.0;
};

enum class ChainOutcome { no_match, solved, infeasible };

/// Try to solve `block` as a stagewise chain with the exact DP master.
/// On `solved`, the block's variables are written into `x_full` and
/// `stages_out` gets the number of stage-merge (master) iterations.
ChainOutcome try_chain(const Model& model, const std::vector<Row>& all_rows,
                       const Block& block, std::vector<double>& x_full,
                       int* stages_out) {
  const auto& vars = model.vars();

  // --- classify every block row as assignment or move, else bail ---
  std::vector<int> assign_rows;
  std::vector<TransRow> trans;
  for (const int ri : block.rows) {
    const Row& r = all_rows[static_cast<std::size_t>(ri)];
    if (r.rel == Rel::eq && r.rhs == 1.0 && !r.terms.empty()) {
      bool ok = true;
      for (const auto& [v, c] : r.terms) {
        if (c != 1.0 || !is_binary01(vars[static_cast<std::size_t>(v)])) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assign_rows.push_back(ri);
        continue;
      }
    }
    if (r.rel != Rel::le || r.rhs < 0.0) return ChainOutcome::no_match;
    TransRow t;
    t.rhs = r.rhs;
    for (const auto& [v, c] : r.terms) {
      const Variable& var = vars[static_cast<std::size_t>(v)];
      if (var.integer) {
        if (!is_binary01(var)) return ChainOutcome::no_match;
        if (c == 1.0 && t.x_a < 0) {
          t.x_a = v;
        } else if (c == -1.0 && t.x_b < 0) {
          t.x_b = v;
        } else {
          return ChainOutcome::no_match;
        }
      } else {
        // The move slack: continuous, owned by this row alone (checked
        // below), zero lower bound, nonnegative cost, and enough headroom
        // to absorb a full move (ub + rhs >= 1) — the conditions that
        // make its optimal value max(0, 1 - rhs - stay) closed-form.
        if (c != -1.0 || t.y >= 0) return ChainOutcome::no_match;
        if (var.lb != 0.0 || var.cost < 0.0 || var.ub + r.rhs < 1.0) {
          return ChainOutcome::no_match;
        }
        t.y = v;
      }
    }
    if (t.x_a < 0 || t.y < 0) return ChainOutcome::no_match;
    trans.push_back(t);
  }
  if (assign_rows.empty()) return ChainOutcome::no_match;

  // --- role bookkeeping: each x in exactly one assignment row, at most
  // one incoming move row; each y owned by exactly one move row ---
  const std::size_t n = model.n_vars();
  std::vector<int> stage_of(n, -1);     // x var -> stage index
  std::vector<int> incoming(n, -1);     // x var -> index into `trans`
  std::vector<std::uint8_t> is_y(n, 0);
  const int n_stages = static_cast<int>(assign_rows.size());
  for (int s = 0; s < n_stages; ++s) {
    const Row& r = all_rows[static_cast<std::size_t>(assign_rows[
        static_cast<std::size_t>(s)])];
    for (const auto& [v, c] : r.terms) {
      (void)c;
      if (stage_of[static_cast<std::size_t>(v)] >= 0) {
        return ChainOutcome::no_match;  // x in two assignment rows
      }
      stage_of[static_cast<std::size_t>(v)] = s;
    }
  }
  for (std::size_t ti = 0; ti < trans.size(); ++ti) {
    const TransRow& t = trans[ti];
    if (stage_of[static_cast<std::size_t>(t.x_a)] < 0) {
      return ChainOutcome::no_match;  // x_a not covered by an assignment
    }
    if (t.x_b >= 0 && stage_of[static_cast<std::size_t>(t.x_b)] < 0) {
      return ChainOutcome::no_match;
    }
    if (incoming[static_cast<std::size_t>(t.x_a)] >= 0) {
      return ChainOutcome::no_match;  // two incoming move rows
    }
    incoming[static_cast<std::size_t>(t.x_a)] = static_cast<int>(ti);
    if (is_y[static_cast<std::size_t>(t.y)]) {
      return ChainOutcome::no_match;  // y shared by two move rows
    }
    is_y[static_cast<std::size_t>(t.y)] = 1;
  }
  for (const int v : block.vars) {
    // Every block variable must have exactly one role.
    const bool x_role = stage_of[static_cast<std::size_t>(v)] >= 0;
    const bool y_role = is_y[static_cast<std::size_t>(v)] != 0;
    if (x_role == y_role) return ChainOutcome::no_match;
  }

  // --- the stage-interaction graph must be a single path ---
  std::vector<int> pred(static_cast<std::size_t>(n_stages), -1);
  std::vector<int> succ(static_cast<std::size_t>(n_stages), -1);
  for (const TransRow& t : trans) {
    if (t.x_b < 0) continue;
    const int q = stage_of[static_cast<std::size_t>(t.x_a)];
    const int p = stage_of[static_cast<std::size_t>(t.x_b)];
    if (p == q) return ChainOutcome::no_match;
    if (pred[static_cast<std::size_t>(q)] == -1) {
      pred[static_cast<std::size_t>(q)] = p;
    } else if (pred[static_cast<std::size_t>(q)] != p) {
      return ChainOutcome::no_match;
    }
    if (succ[static_cast<std::size_t>(p)] == -1) {
      succ[static_cast<std::size_t>(p)] = q;
    } else if (succ[static_cast<std::size_t>(p)] != q) {
      return ChainOutcome::no_match;
    }
  }
  int root = -1;
  for (int s = 0; s < n_stages; ++s) {
    if (pred[static_cast<std::size_t>(s)] == -1) {
      if (root != -1 && n_stages > 1) return ChainOutcome::no_match;
      if (root == -1) root = s;
    }
  }
  if (root == -1) return ChainOutcome::no_match;  // cycle
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n_stages));
  for (int s = root; s != -1; s = succ[static_cast<std::size_t>(s)]) {
    if (static_cast<int>(order.size()) >= n_stages) {
      return ChainOutcome::no_match;  // cycle
    }
    order.push_back(s);
  }
  if (static_cast<int>(order.size()) != n_stages) {
    return ChainOutcome::no_match;  // disconnected stage graph
  }

  // --- exact DP over the path: f_q(a) = cx(a) + min(stay, jump) where
  // stay follows a's own move row for free and jump pays the move slack
  // cost cy(a) * max(0, 1 - rhs). All ties break toward "stay", then the
  // smallest site index, so the chosen vertex is deterministic. ---
  constexpr double kInfCost = std::numeric_limits<double>::infinity();
  std::vector<std::vector<int>> states(static_cast<std::size_t>(n_stages));
  for (int s = 0; s < n_stages; ++s) {
    const Row& r = all_rows[static_cast<std::size_t>(assign_rows[
        static_cast<std::size_t>(s)])];
    auto& st = states[static_cast<std::size_t>(s)];
    st.reserve(r.terms.size());
    for (const auto& [v, c] : r.terms) {
      (void)c;
      st.push_back(v);
    }
  }
  // f/bp indexed [stage position in `order`][state position].
  std::vector<std::vector<double>> f(static_cast<std::size_t>(n_stages));
  std::vector<std::vector<int>> bp(static_cast<std::size_t>(n_stages));
  std::vector<int> prev_pos_of(n, -1);  // x var -> position in prev stage
  for (int pos = 0; pos < n_stages; ++pos) {
    const int s = order[static_cast<std::size_t>(pos)];
    const auto& st = states[static_cast<std::size_t>(s)];
    auto& fs = f[static_cast<std::size_t>(pos)];
    auto& bs = bp[static_cast<std::size_t>(pos)];
    fs.assign(st.size(), kInfCost);
    bs.assign(st.size(), -1);

    // Fixed variables: a state with lb == 1 must be chosen; two of them
    // make the assignment row infeasible. ub == 0 excludes a state.
    int forced = -1;
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (vars[static_cast<std::size_t>(st[i])].lb == 1.0) {
        if (forced >= 0) return ChainOutcome::infeasible;
        forced = static_cast<int>(i);
      }
    }

    // Best reachable previous state (for the "jump" branch).
    double best_prev = kInfCost;
    int best_prev_pos = -1;
    if (pos > 0) {
      const auto& fp = f[static_cast<std::size_t>(pos - 1)];
      for (std::size_t i = 0; i < fp.size(); ++i) {
        if (fp[i] < best_prev) {
          best_prev = fp[i];
          best_prev_pos = static_cast<int>(i);
        }
      }
      if (best_prev_pos < 0) return ChainOutcome::infeasible;
    }

    for (std::size_t i = 0; i < st.size(); ++i) {
      const int v = st[i];
      if (forced >= 0 && static_cast<int>(i) != forced) continue;
      if (vars[static_cast<std::size_t>(v)].ub == 0.0) {
        if (forced == static_cast<int>(i)) return ChainOutcome::infeasible;
        continue;
      }
      const double cx = vars[static_cast<std::size_t>(v)].cost;
      const int ti = incoming[static_cast<std::size_t>(v)];
      double pen = 0.0;
      int from = -1;
      if (ti >= 0) {
        const TransRow& t = trans[static_cast<std::size_t>(ti)];
        pen = vars[static_cast<std::size_t>(t.y)].cost *
              std::max(0.0, 1.0 - t.rhs);
        from = t.x_b;
      }
      if (pos == 0) {
        // Root stage: move rows here are unary (no previous stage), so
        // the penalty always applies when nonzero.
        fs[i] = cx + pen;
        bs[i] = -1;
        continue;
      }
      double stay = kInfCost;
      int stay_pos = -1;
      if (from >= 0) {
        stay_pos = prev_pos_of[static_cast<std::size_t>(from)];
        if (stay_pos >= 0) {
          stay = f[static_cast<std::size_t>(pos - 1)]
                  [static_cast<std::size_t>(stay_pos)];
        }
      } else if (ti >= 0) {
        // Unary move row in a non-root stage: penalty regardless of the
        // previous choice.
        stay = kInfCost;
      }
      const double jump = best_prev + pen;
      if (from >= 0 && stay <= jump) {
        fs[i] = cx + stay;
        bs[i] = stay_pos;
      } else {
        fs[i] = cx + jump;
        bs[i] = best_prev_pos;
      }
      if (ti < 0) {
        // No move row at all: previous choice is unconstrained and free.
        fs[i] = cx + best_prev;
        bs[i] = best_prev_pos;
      }
    }

    prev_pos_of.assign(n, -1);
    for (std::size_t i = 0; i < st.size(); ++i) {
      prev_pos_of[static_cast<std::size_t>(st[i])] = static_cast<int>(i);
    }
  }

  // Final-stage argmin, then backtrack.
  const auto& flast = f[static_cast<std::size_t>(n_stages - 1)];
  double best = kInfCost;
  int best_pos = -1;
  for (std::size_t i = 0; i < flast.size(); ++i) {
    if (flast[i] < best) {
      best = flast[i];
      best_pos = static_cast<int>(i);
    }
  }
  if (best_pos < 0) return ChainOutcome::infeasible;
  std::vector<int> chosen(static_cast<std::size_t>(n_stages), -1);
  for (int pos = n_stages - 1; pos >= 0; --pos) {
    chosen[static_cast<std::size_t>(pos)] = best_pos;
    best_pos = bp[static_cast<std::size_t>(pos)]
                 [static_cast<std::size_t>(best_pos)];
  }

  // Materialize the block solution: chosen x = 1, the rest 0; each move
  // slack at its closed-form minimum.
  std::vector<int> chosen_var(static_cast<std::size_t>(n_stages), -1);
  for (int pos = 0; pos < n_stages; ++pos) {
    const int s = order[static_cast<std::size_t>(pos)];
    const auto& st = states[static_cast<std::size_t>(s)];
    for (const int v : st) x_full[static_cast<std::size_t>(v)] = 0.0;
    const int cv = st[static_cast<std::size_t>(
        chosen[static_cast<std::size_t>(pos)])];
    x_full[static_cast<std::size_t>(cv)] = 1.0;
    chosen_var[static_cast<std::size_t>(pos)] = cv;
  }
  std::vector<int> pos_of_stage(static_cast<std::size_t>(n_stages), -1);
  for (int pos = 0; pos < n_stages; ++pos) {
    pos_of_stage[static_cast<std::size_t>(
        order[static_cast<std::size_t>(pos)])] = pos;
  }
  for (const TransRow& t : trans) {
    double y = 0.0;
    if (x_full[static_cast<std::size_t>(t.x_a)] == 1.0) {
      const double stay =
          t.x_b >= 0 ? x_full[static_cast<std::size_t>(t.x_b)] : 0.0;
      y = std::max(0.0, 1.0 - t.rhs - stay);
    }
    x_full[static_cast<std::size_t>(t.y)] = y;
  }
  *stages_out = n_stages;
  return ChainOutcome::solved;
}

/// Solve a non-chain block as its own revised B&B subproblem.
MipResult solve_block_bb(const Model& model, const std::vector<Row>& all_rows,
                         const Block& block, const MipOptions& options,
                         const MipWarmStart* warm,
                         std::vector<double>& x_full) {
  Model sub;
  for (const int v : block.vars) {
    const Variable& var = model.vars()[static_cast<std::size_t>(v)];
    sub.add_var(var.name, var.cost, var.lb, var.ub, var.integer);
  }
  const auto local_of = [&](int v) {
    const auto it =
        std::lower_bound(block.vars.begin(), block.vars.end(), v);
    return static_cast<int>(it - block.vars.begin());
  };
  for (const int ri : block.rows) {
    const Row& r = all_rows[static_cast<std::size_t>(ri)];
    std::vector<std::pair<int, double>> terms;
    terms.reserve(r.terms.size());
    for (const auto& [v, c] : r.terms) terms.emplace_back(local_of(v), c);
    sub.add_constraint(std::move(terms), r.rel, r.rhs);
  }
  MipOptions sub_opts = options;
  sub_opts.engine = MipEngine::revised;
  MipWarmStart sub_warm;
  const MipWarmStart* wp = nullptr;
  if (warm && warm->x.size() == model.n_vars()) {
    sub_warm.x.reserve(block.vars.size());
    for (const int v : block.vars) {
      sub_warm.x.push_back(warm->x[static_cast<std::size_t>(v)]);
    }
    wp = &sub_warm;
  }
  MipResult r = solve_mip(sub, sub_opts, wp, nullptr);
  if (r.status == LpStatus::optimal) {
    for (std::size_t i = 0; i < block.vars.size(); ++i) {
      x_full[static_cast<std::size_t>(block.vars[i])] = r.x[i];
    }
  }
  return r;
}

}  // namespace

MipResult solve_mip_decomposed(const Model& model, const MipOptions& options,
                               const MipWarmStart* warm, MipBasisHint* hint) {
  const std::size_t n = model.n_vars();
  MipResult result;

  for (const Variable& v : model.vars()) {
    if (!std::isfinite(v.lb)) {
      throw std::invalid_argument{"solve_mip: -inf lower bound"};
    }
  }
  for (const Variable& v : model.vars()) {
    if (!(v.lb <= v.ub)) {
      ++result.nodes_explored;
      return result;  // infeasible box
    }
  }

  const auto fallback = [&]() {
    MipOptions mono = options;
    mono.engine = MipEngine::revised;
    MipResult r = solve_mip(model, mono, warm, hint);
    r.monolithic_fallback = true;
    return r;
  };

  // Canonical rows; any degenerate (term-free) row means presolve-level
  // reasoning we don't replicate here — punt to the monolithic path so
  // edge-case semantics stay byte-for-byte those of the revised engine.
  std::vector<Row> rows;
  rows.reserve(model.n_constraints());
  for (const Constraint& con : model.constraints()) {
    rows.push_back(coalesce(con));
    if (rows.back().terms.empty()) return fallback();
  }

  // Block detection: union-find over variables sharing a row.
  Dsu dsu(n);
  for (const Row& r : rows) {
    for (std::size_t t = 1; t < r.terms.size(); ++t) {
      dsu.unite(r.terms[0].first, r.terms[t].first);
    }
  }
  std::vector<std::vector<int>> comp_vars;  // row-bearing components
  std::vector<int> comp_of(n, -1);
  std::vector<std::uint8_t> has_row(n, 0);
  for (const Row& r : rows) {
    for (const auto& [v, c] : r.terms) {
      (void)c;
      has_row[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::vector<int> box_vars;
  std::vector<Block> blocks;
  {
    std::vector<int> comp_index(n, -1);
    for (std::size_t v = 0; v < n; ++v) {
      if (!has_row[v]) {
        box_vars.push_back(static_cast<int>(v));
        continue;
      }
      const int root = dsu.find(static_cast<int>(v));
      int& ci = comp_index[static_cast<std::size_t>(root)];
      if (ci < 0) {
        ci = static_cast<int>(blocks.size());
        blocks.emplace_back();
      }
      blocks[static_cast<std::size_t>(ci)].vars.push_back(
          static_cast<int>(v));
      comp_of[v] = ci;
    }
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const int v0 = rows[ri].terms[0].first;
      blocks[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(v0)])]
          .rows.push_back(static_cast<int>(ri));
    }
  }

  // One non-chain block spanning the whole model is not a decomposition;
  // hand it (with the caller's warm start and basis hint) to the
  // monolithic revised engine. Probe the chain first so the headline
  // single-app trajectory model still gets the DP master.
  result.x.assign(n, 0.0);
  result.status = LpStatus::optimal;
  result.proven_optimal = true;
  const auto fail = [&](LpStatus status) {
    result.status = status;
    result.x.clear();
    result.proven_optimal = false;
    result.objective = 0.0;
    return result;
  };
  // Each chain DP and the box block spend one node of options.max_nodes;
  // B&B blocks spend theirs from what remains. A spent budget fails the
  // whole solve unproven, as it does in the revised engine.
  const auto spend_node = [&]() {
    return ++result.nodes_explored <= options.max_nodes;
  };

  for (const Block& block : blocks) {
    int stages = 0;
    const ChainOutcome outcome =
        try_chain(model, rows, block, result.x, &stages);
    if (outcome == ChainOutcome::solved) {
      if (!spend_node()) return fail(LpStatus::iteration_limit);
      ++result.blocks;
      ++result.chain_blocks;
      result.master_iterations += stages;
      continue;
    }
    if (outcome == ChainOutcome::infeasible) {
      ++result.nodes_explored;
      return fail(LpStatus::infeasible);
    }
    if (blocks.size() == 1 && box_vars.empty()) return fallback();
    MipOptions block_options = options;
    block_options.max_nodes -= result.nodes_explored;
    const MipResult sub =
        solve_block_bb(model, rows, block, block_options, warm, result.x);
    result.nodes_explored += sub.nodes_explored;
    result.pivots += sub.pivots;
    ++result.blocks;
    if (sub.status != LpStatus::optimal) return fail(sub.status);
    result.proven_optimal = result.proven_optimal && sub.proven_optimal;
  }

  if (!box_vars.empty()) {
    // All row-less variables form one box block: each sits at whichever
    // bound (rounded inward for integers) its cost prefers.
    if (!spend_node()) return fail(LpStatus::iteration_limit);
    ++result.blocks;
    for (const int v : box_vars) {
      const Variable& var = model.vars()[static_cast<std::size_t>(v)];
      double lo = var.lb;
      double hi = var.ub;
      if (var.integer) {
        lo = std::ceil(lo - options.int_tol);
        hi = std::floor(hi + options.int_tol);
        if (lo > hi) return fail(LpStatus::infeasible);
      }
      if (var.cost < 0.0) {
        if (!std::isfinite(hi)) return fail(LpStatus::unbounded);
        result.x[static_cast<std::size_t>(v)] = hi;
      } else {
        result.x[static_cast<std::size_t>(v)] = lo;
      }
    }
  }

  result.objective = model.objective_of(result.x);
  return result;
}

}  // namespace vbatt::solver
