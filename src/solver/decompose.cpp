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

using Row = CompiledModel::Row;
using Block = CompiledModel::Block;
using Chain = CompiledModel::Chain;

/// Canonical form of a constraint's terms. The chain detector needs
/// canonical rows to classify them, and RevisedSolver applies the same
/// normalization, so sub-models built from these rows are equivalent.
Row coalesce(const Constraint& con) {
  Row row;
  row.rel = con.rel;
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

/// A move row `x_a - x_b - y <= rhs` (x_b absent for the horizon-start
/// rows `x_a - y <= rhs`).
struct TransRow {
  int row = -1;
  int x_a = -1;
  int x_b = -1;
  int y = -1;
};

/// Compile `block` into a chain plan if its structure is a stagewise
/// chain under the given integrality flags: every eq row an assignment
/// row (unit coefficients over integer variables), every le row a move
/// row, each x in exactly one assignment row with at most one incoming
/// move row, each y owned by one move row, and a path-shaped stage graph.
/// The data half of the chain conditions is chain_data_holds().
bool compile_chain(const std::vector<std::uint8_t>& integer,
                   const std::vector<Row>& rows, const Block& block,
                   Chain& out) {
  // --- classify every block row as assignment or move, else bail ---
  std::vector<int> assign_rows;
  std::vector<TransRow> trans;
  for (const int ri : block.rows) {
    const Row& r = rows[static_cast<std::size_t>(ri)];
    if (r.rel == Rel::eq) {
      for (const auto& [v, c] : r.terms) {
        if (c != 1.0 || !integer[static_cast<std::size_t>(v)]) return false;
      }
      assign_rows.push_back(ri);
      continue;
    }
    if (r.rel != Rel::le) return false;
    TransRow t;
    t.row = ri;
    for (const auto& [v, c] : r.terms) {
      if (integer[static_cast<std::size_t>(v)]) {
        if (c == 1.0 && t.x_a < 0) {
          t.x_a = v;
        } else if (c == -1.0 && t.x_b < 0) {
          t.x_b = v;
        } else {
          return false;
        }
      } else {
        // The move slack: continuous and owned by this row alone
        // (checked below).
        if (c != -1.0 || t.y >= 0) return false;
        t.y = v;
      }
    }
    if (t.x_a < 0 || t.y < 0) return false;
    trans.push_back(t);
  }
  if (assign_rows.empty()) return false;

  // --- role bookkeeping: each x in exactly one assignment row, at most
  // one incoming move row; each y owned by exactly one move row ---
  const std::size_t n = integer.size();
  std::vector<int> stage_of(n, -1);  // x var -> stage index
  std::vector<int> incoming(n, -1);  // x var -> index into `trans`
  std::vector<std::uint8_t> is_y(n, 0);
  const int n_stages = static_cast<int>(assign_rows.size());
  for (int s = 0; s < n_stages; ++s) {
    const Row& r = rows[static_cast<std::size_t>(
        assign_rows[static_cast<std::size_t>(s)])];
    for (const auto& [v, c] : r.terms) {
      (void)c;
      if (stage_of[static_cast<std::size_t>(v)] >= 0) {
        return false;  // x in two assignment rows
      }
      stage_of[static_cast<std::size_t>(v)] = s;
    }
  }
  for (std::size_t ti = 0; ti < trans.size(); ++ti) {
    const TransRow& t = trans[ti];
    if (stage_of[static_cast<std::size_t>(t.x_a)] < 0) {
      return false;  // x_a not covered by an assignment
    }
    if (t.x_b >= 0 && stage_of[static_cast<std::size_t>(t.x_b)] < 0) {
      return false;
    }
    if (incoming[static_cast<std::size_t>(t.x_a)] >= 0) {
      return false;  // two incoming move rows
    }
    incoming[static_cast<std::size_t>(t.x_a)] = static_cast<int>(ti);
    if (is_y[static_cast<std::size_t>(t.y)]) {
      return false;  // y shared by two move rows
    }
    is_y[static_cast<std::size_t>(t.y)] = 1;
  }
  for (const int v : block.vars) {
    // Every block variable must have exactly one role.
    const bool x_role = stage_of[static_cast<std::size_t>(v)] >= 0;
    const bool y_role = is_y[static_cast<std::size_t>(v)] != 0;
    if (x_role == y_role) return false;
  }

  // --- the stage-interaction graph must be a single path ---
  std::vector<int> pred(static_cast<std::size_t>(n_stages), -1);
  std::vector<int> succ(static_cast<std::size_t>(n_stages), -1);
  for (const TransRow& t : trans) {
    if (t.x_b < 0) continue;
    const int q = stage_of[static_cast<std::size_t>(t.x_a)];
    const int p = stage_of[static_cast<std::size_t>(t.x_b)];
    if (p == q) return false;
    if (pred[static_cast<std::size_t>(q)] == -1) {
      pred[static_cast<std::size_t>(q)] = p;
    } else if (pred[static_cast<std::size_t>(q)] != p) {
      return false;
    }
    if (succ[static_cast<std::size_t>(p)] == -1) {
      succ[static_cast<std::size_t>(p)] = q;
    } else if (succ[static_cast<std::size_t>(p)] != q) {
      return false;
    }
  }
  int root = -1;
  for (int s = 0; s < n_stages; ++s) {
    if (pred[static_cast<std::size_t>(s)] == -1) {
      if (root != -1 && n_stages > 1) return false;
      if (root == -1) root = s;
    }
  }
  if (root == -1) return false;  // cycle
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n_stages));
  for (int s = root; s != -1; s = succ[static_cast<std::size_t>(s)]) {
    if (static_cast<int>(order.size()) >= n_stages) return false;  // cycle
    order.push_back(s);
  }
  if (static_cast<int>(order.size()) != n_stages) {
    return false;  // disconnected stage graph
  }

  // --- flatten in path order. A move row's x_b sits in the stage right
  // before its x_a's (the path check above), so its "stay" position is
  // fixed by structure. ---
  out = Chain{};
  out.stage_begin.push_back(0);
  std::vector<int> pos_in_stage(n, -1);
  for (const int s : order) {
    const int ri = assign_rows[static_cast<std::size_t>(s)];
    out.stage_row.push_back(ri);
    int pos = 0;
    for (const auto& [v, c] : rows[static_cast<std::size_t>(ri)].terms) {
      (void)c;
      const int ti = incoming[static_cast<std::size_t>(v)];
      out.var.push_back(v);
      if (ti < 0) {
        out.move_row.push_back(-1);
        out.slack.push_back(-1);
        out.stay.push_back(-1);
      } else {
        const TransRow& t = trans[static_cast<std::size_t>(ti)];
        out.move_row.push_back(t.row);
        out.slack.push_back(t.y);
        out.stay.push_back(
            t.x_b >= 0 ? pos_in_stage[static_cast<std::size_t>(t.x_b)] : -1);
      }
      pos_in_stage[static_cast<std::size_t>(v)] = pos++;
    }
    out.stage_begin.push_back(static_cast<int>(out.var.size()));
  }
  return true;
}

bool is_binary01(const Variable& v) {
  return v.integer && (v.lb == 0.0 || v.lb == 1.0) &&
         (v.ub == 0.0 || v.ub == 1.0) && v.lb <= v.ub;
}

/// The data half of the chain conditions, re-checked on every solve: x
/// bounds binary, assignment rhs == 1, move rhs >= 0, and each move slack
/// with a zero lower bound, nonnegative cost and enough headroom to
/// absorb a full move (ub + rhs >= 1) — the conditions that make its
/// optimal value max(0, 1 - rhs - stay) closed-form.
bool chain_data_holds(const Model& model, const Chain& chain) {
  const auto& vars = model.vars();
  const auto& cons = model.constraints();
  for (const int ri : chain.stage_row) {
    if (cons[static_cast<std::size_t>(ri)].rhs != 1.0) return false;
  }
  for (std::size_t i = 0; i < chain.var.size(); ++i) {
    if (!is_binary01(vars[static_cast<std::size_t>(chain.var[i])])) {
      return false;
    }
    const int ri = chain.move_row[i];
    if (ri < 0) continue;
    const double rhs = cons[static_cast<std::size_t>(ri)].rhs;
    const Variable& y = vars[static_cast<std::size_t>(chain.slack[i])];
    if (rhs < 0.0 || y.lb != 0.0 || y.cost < 0.0 || y.ub + rhs < 1.0) {
      return false;
    }
  }
  return true;
}

enum class ChainOutcome { solved, infeasible };

/// Solve a chain block with the exact DP over its path: f_q(a) = cx(a) +
/// min(stay, jump) where stay follows a's own move row for free and jump
/// pays the move slack cost cy(a) * max(0, 1 - rhs). All ties break
/// toward "stay", then the smallest site index, so the chosen vertex is
/// deterministic. On `solved` the block's variables are written into
/// `x_full`.
ChainOutcome run_chain(const Model& model, const Chain& chain,
                       CompiledModel& plan, std::vector<double>& x_full) {
  constexpr double kInfCost = std::numeric_limits<double>::infinity();
  const auto& vars = model.vars();
  const auto& cons = model.constraints();
  const auto at = [](const std::vector<int>& v, int i) {
    return v[static_cast<std::size_t>(i)];
  };
  const int n_stages = static_cast<int>(chain.stage_row.size());
  std::vector<double>& f = plan.dp_cost;
  std::vector<int>& bp = plan.dp_from;
  f.resize(chain.var.size());
  bp.resize(chain.var.size());

  for (int pos = 0; pos < n_stages; ++pos) {
    const int begin = at(chain.stage_begin, pos);
    const int end = at(chain.stage_begin, pos + 1);

    // Fixed variables: a state with lb == 1 must be chosen; two of them
    // make the assignment row infeasible. ub == 0 excludes a state.
    int forced = -1;
    for (int i = begin; i < end; ++i) {
      f[static_cast<std::size_t>(i)] = kInfCost;
      bp[static_cast<std::size_t>(i)] = -1;
      if (vars[static_cast<std::size_t>(at(chain.var, i))].lb == 1.0) {
        if (forced >= 0) return ChainOutcome::infeasible;
        forced = i;
      }
    }

    // Best reachable previous state (for the "jump" branch).
    double best_prev = kInfCost;
    int best_prev_pos = -1;
    const int prev_begin = pos > 0 ? at(chain.stage_begin, pos - 1) : 0;
    if (pos > 0) {
      for (int i = prev_begin; i < begin; ++i) {
        if (f[static_cast<std::size_t>(i)] < best_prev) {
          best_prev = f[static_cast<std::size_t>(i)];
          best_prev_pos = i - prev_begin;
        }
      }
      if (best_prev_pos < 0) return ChainOutcome::infeasible;
    }

    for (int i = begin; i < end; ++i) {
      if (forced >= 0 && i != forced) continue;
      const Variable& x = vars[static_cast<std::size_t>(at(chain.var, i))];
      if (x.ub == 0.0) {
        if (forced == i) return ChainOutcome::infeasible;
        continue;
      }
      const double cx = x.cost;
      const int ri = at(chain.move_row, i);
      double pen = 0.0;
      if (ri >= 0) {
        pen = vars[static_cast<std::size_t>(at(chain.slack, i))].cost *
              std::max(0.0, 1.0 - cons[static_cast<std::size_t>(ri)].rhs);
      }
      double& fi = f[static_cast<std::size_t>(i)];
      int& bi = bp[static_cast<std::size_t>(i)];
      if (pos == 0) {
        // Root stage: move rows here are unary (no previous stage), so
        // the penalty always applies when nonzero.
        fi = cx + pen;
        continue;
      }
      if (ri < 0) {
        // No move row at all: previous choice is unconstrained and free.
        fi = cx + best_prev;
        bi = best_prev_pos;
        continue;
      }
      // A unary move row in a non-root stage has no stay branch: the
      // penalty applies regardless of the previous choice.
      const int stay_pos = at(chain.stay, i);
      const double jump = best_prev + pen;
      if (stay_pos >= 0) {
        const double stay = f[static_cast<std::size_t>(prev_begin + stay_pos)];
        if (stay <= jump) {
          fi = cx + stay;
          bi = stay_pos;
          continue;
        }
      }
      fi = cx + jump;
      bi = best_prev_pos;
    }
  }

  // Final-stage argmin, then backtrack.
  const int last_begin = at(chain.stage_begin, n_stages - 1);
  double best = kInfCost;
  int best_pos = -1;
  for (int i = last_begin; i < at(chain.stage_begin, n_stages); ++i) {
    if (f[static_cast<std::size_t>(i)] < best) {
      best = f[static_cast<std::size_t>(i)];
      best_pos = i - last_begin;
    }
  }
  if (best_pos < 0) return ChainOutcome::infeasible;
  std::vector<int>& chosen = plan.dp_chosen;
  chosen.resize(static_cast<std::size_t>(n_stages));
  for (int pos = n_stages - 1; pos >= 0; --pos) {
    chosen[static_cast<std::size_t>(pos)] = best_pos;
    best_pos = bp[static_cast<std::size_t>(at(chain.stage_begin, pos) +
                                           best_pos)];
  }

  // Materialize the block solution: chosen x = 1, the rest 0; each move
  // slack at its closed-form minimum.
  for (int pos = 0; pos < n_stages; ++pos) {
    const int begin = at(chain.stage_begin, pos);
    for (int i = begin; i < at(chain.stage_begin, pos + 1); ++i) {
      x_full[static_cast<std::size_t>(at(chain.var, i))] = 0.0;
    }
    x_full[static_cast<std::size_t>(at(
        chain.var, begin + chosen[static_cast<std::size_t>(pos)]))] = 1.0;
  }
  for (int pos = 0; pos < n_stages; ++pos) {
    const int prev_begin = pos > 0 ? at(chain.stage_begin, pos - 1) : 0;
    for (int i = at(chain.stage_begin, pos);
         i < at(chain.stage_begin, pos + 1); ++i) {
      const int ri = at(chain.move_row, i);
      if (ri < 0) continue;
      double y = 0.0;
      if (x_full[static_cast<std::size_t>(at(chain.var, i))] == 1.0) {
        const int stay_pos = at(chain.stay, i);
        const double stay =
            stay_pos >= 0 ? x_full[static_cast<std::size_t>(
                                at(chain.var, prev_begin + stay_pos))]
                          : 0.0;
        y = std::max(0.0,
                     1.0 - cons[static_cast<std::size_t>(ri)].rhs - stay);
      }
      x_full[static_cast<std::size_t>(at(chain.slack, i))] = y;
    }
  }
  return ChainOutcome::solved;
}

/// Solve a non-chain block as its own revised B&B subproblem.
MipResult solve_block_bb(const Model& model, const std::vector<Row>& rows,
                         const Block& block, const MipOptions& options,
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
    const Row& r = rows[static_cast<std::size_t>(ri)];
    std::vector<std::pair<int, double>> terms;
    terms.reserve(r.terms.size());
    for (const auto& [v, c] : r.terms) terms.emplace_back(local_of(v), c);
    sub.add_constraint(std::move(terms), r.rel,
                       model.constraints()[static_cast<std::size_t>(ri)].rhs);
  }
  MipResult r = solve_revised(sub, options);
  if (r.status == LpStatus::optimal) {
    for (std::size_t i = 0; i < block.vars.size(); ++i) {
      x_full[static_cast<std::size_t>(block.vars[i])] = r.x[i];
    }
  }
  return r;
}

}  // namespace

CompiledModel::CompiledModel(const Model& model)
    : stamp{model.structure_stamp()},
      compiled{true},
      n_vars{model.n_vars()},
      n_rows{model.n_constraints()} {
  const std::size_t n = n_vars;
  integer.reserve(n);
  for (const Variable& v : model.vars()) integer.push_back(v.integer ? 1 : 0);

  rows.reserve(n_rows);
  for (const Constraint& con : model.constraints()) {
    rows.push_back(coalesce(con));
    if (rows.back().terms.empty()) degenerate = true;
  }

  // Block detection: union-find over variables sharing a row. The same
  // partition drives engine selection and decomposition.
  Dsu dsu(n);
  std::vector<std::uint8_t> has_row(n, 0);
  for (const Row& r : rows) {
    for (std::size_t t = 0; t < r.terms.size(); ++t) {
      has_row[static_cast<std::size_t>(r.terms[t].first)] = 1;
      if (t > 0) dsu.unite(r.terms[0].first, r.terms[t].first);
    }
  }
  std::vector<int> comp_index(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    if (!has_row[v]) {
      box_vars.push_back(static_cast<int>(v));
      continue;
    }
    int& ci = comp_index[static_cast<std::size_t>(
        dsu.find(static_cast<int>(v)))];
    if (ci < 0) {
      ci = static_cast<int>(blocks.size());
      blocks.emplace_back();
    }
    blocks[static_cast<std::size_t>(ci)].vars.push_back(static_cast<int>(v));
  }
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    if (rows[ri].terms.empty()) continue;
    const int root = dsu.find(rows[ri].terms[0].first);
    blocks[static_cast<std::size_t>(comp_index[static_cast<std::size_t>(
               root)])]
        .rows.push_back(static_cast<int>(ri));
  }
  if (!degenerate) {
    for (Block& block : blocks) {
      block.chain = compile_chain(integer, rows, block, block.plan);
    }
  }

  // solve_mip's engine rule. Tiny models solve in microseconds on the
  // monolithic path; any probing or decomposition bookkeeping would
  // dominate. Several blocks always decompose. One block decomposes when
  // it carries the trajectory family's chain signature (necessary
  // conditions only — the decomposed engine verifies the real thing and
  // falls back if the probe guessed wrong): assignment-style eq rows with
  // all-unit coefficients over [0, 1] integers, every other row a short
  // coupling row. Only the [0, 1] bounds are data, so they are probed per
  // solve.
  if (n < 24 || n_rows < 12) {
    rule = EngineRule::revised;
  } else if (blocks.size() > 1) {
    rule = EngineRule::decomposed;
  } else {
    bool chainish = true;
    std::size_t eq_unit_rows = 0;
    for (const Row& r : rows) {
      if (r.rel == Rel::eq) {
        for (const auto& [v, c] : r.terms) {
          if (c != 1.0 || !integer[static_cast<std::size_t>(v)]) {
            chainish = false;
          }
          probe_vars.push_back(v);
        }
        ++eq_unit_rows;
      } else if (r.terms.size() > 3) {
        chainish = false;
      }
      if (!chainish) break;
    }
    if (chainish && eq_unit_rows >= 2) {
      rule = EngineRule::probe;
    } else {
      rule = EngineRule::revised;
      probe_vars.clear();
    }
  }
}

bool CompiledModel::current_for(const Model& model) const noexcept {
  if (!compiled || stamp != model.structure_stamp() ||
      n_vars != model.n_vars() || n_rows != model.n_constraints()) {
    return false;
  }
  const auto& vars = model.vars();
  for (std::size_t i = 0; i < n_vars; ++i) {
    if (integer[i] != (vars[i].integer ? 1 : 0)) return false;
  }
  return true;
}

void CompiledModel::refresh(const Model& model) {
  if (!current_for(model)) *this = CompiledModel{model};
}

MipEngine CompiledModel::engine(const Model& model) const {
  switch (rule) {
    case EngineRule::revised:
      return MipEngine::revised;
    case EngineRule::decomposed:
      return MipEngine::decomposed;
    case EngineRule::probe:
      break;
  }
  for (const int v : probe_vars) {
    const Variable& var = model.vars()[static_cast<std::size_t>(v)];
    if (var.lb != 0.0 || var.ub != 1.0) return MipEngine::revised;
  }
  return MipEngine::decomposed;
}

bool CompiledModel::operator==(const CompiledModel& other) const {
  return compiled == other.compiled && n_vars == other.n_vars &&
         n_rows == other.n_rows && integer == other.integer &&
         rule == other.rule && probe_vars == other.probe_vars &&
         rows == other.rows && degenerate == other.degenerate &&
         blocks == other.blocks && box_vars == other.box_vars;
}

MipResult solve_mip_decomposed(const Model& model, CompiledModel& plan,
                               const MipOptions& options) {
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
    MipResult r = solve_revised(model, options);
    r.monolithic_fallback = true;
    return r;
  };

  // Any degenerate (term-free) row means presolve-level reasoning we don't
  // replicate here — punt to the monolithic path so edge-case semantics
  // stay byte-for-byte those of the revised engine.
  if (plan.degenerate) return fallback();

  // One non-chain block spanning the whole model is not a decomposition;
  // hand it to the monolithic revised engine. Probe the chain first so the
  // headline single-app trajectory model still gets the DP master.
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

  for (const Block& block : plan.blocks) {
    if (block.chain && chain_data_holds(model, block.plan)) {
      if (run_chain(model, block.plan, plan, result.x) ==
          ChainOutcome::infeasible) {
        ++result.nodes_explored;
        return fail(LpStatus::infeasible);
      }
      if (!spend_node()) return fail(LpStatus::iteration_limit);
      ++result.blocks;
      ++result.chain_blocks;
      result.master_iterations +=
          static_cast<int>(block.plan.stage_row.size());
      continue;
    }
    if (plan.blocks.size() == 1 && plan.box_vars.empty()) return fallback();
    MipOptions block_options = options;
    block_options.max_nodes -= result.nodes_explored;
    const MipResult sub =
        solve_block_bb(model, plan.rows, block, block_options, result.x);
    result.nodes_explored += sub.nodes_explored;
    result.pivots += sub.pivots;
    ++result.blocks;
    if (sub.status != LpStatus::optimal) return fail(sub.status);
    result.proven_optimal = result.proven_optimal && sub.proven_optimal;
  }

  if (!plan.box_vars.empty()) {
    // All row-less variables form one box block: each sits at whichever
    // bound (rounded inward for integers) its cost prefers.
    if (!spend_node()) return fail(LpStatus::iteration_limit);
    ++result.blocks;
    for (const int v : plan.box_vars) {
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
