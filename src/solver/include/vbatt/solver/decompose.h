// Stage-3 decomposition layer behind MipEngine::decomposed.
//
// The scheduling MIPs are block-structured: union-find over "variables
// sharing a constraint row" splits the model into independent blocks that
// can be solved as separate subproblems and stitched by summation (the
// master problem is trivial when no row couples two blocks — it only adds
// the block objectives). Within a block, the layer additionally detects
// the stagewise chain structure the trajectory scheduler emits — per-
// bucket assignment rows (pick exactly one site) linked only by move rows
// `x[k][s] - x[k-1][s] - y[k][s] <= r` — which is exactly a shortest-path
// problem over (stage, site) states. Such blocks are solved by an exact
// dynamic-programming master that merges each stage's column proposals in
// one deterministic O(states) sweep per stage (a degenerate Dantzig-Wolfe
// step: every extreme point of a stage block is a single site choice, and
// the path recurrence prices them all simultaneously). Blocks that match
// neither pattern run through the monolithic revised B&B individually;
// a model that is one non-chain block falls back to the monolithic path
// outright (MipResult::monolithic_fallback).
//
// Compile and run. Everything above that depends only on the model's
// structure — coalesced rows, the block partition, each block's chain
// shape (stage order, per-stage states, every state's incoming move row,
// slack variable and "stay" predecessor) and auto_select's engine rule —
// is compiled once into a CompiledModel. A solve re-checks the data the
// plan cannot know (bounds, costs, rhs) and runs the DP on scratch that
// persists in the plan, so a model whose costs and rhs are patched
// between solves pays for structure once (ModelCache keeps one plan next
// to each cached model).
//
// Exactness contract: the chain DP is only used when every condition it
// needs holds on the raw model — structurally (binary x's covered by
// exactly one assignment row each, continuous y's owned by exactly one
// move row each, unit coefficients, path-shaped stage graph) at compile
// time, and on the data (x bounds binary, assignment rhs == 1, move rhs
// >= 0, y.lb == 0, y.cost >= 0, y.ub + rhs >= 1) at every solve. A block
// whose data fails takes the B&B path, exactly as a from-scratch solve
// would. Anything else — the lexicographic cap row, peak rows, arbitrary
// testkit models — fails verification and takes a B&B path, so
// decomposed objectives always match the monolithic engines to 1e-6
// (`solver.decomposed_diff` fuzzes exactly this claim, and
// `solver.compiled_identity` holds a reused plan to a fresh solve bit for
// bit).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/model.h"

namespace vbatt::solver {

/// The structure-only half of a MIP solve: auto_select's engine rule and
/// the decomposed engine's rows, blocks and chain plans, compiled from one
/// Model and valid for it as long as its structure stamp and integrality
/// flags are unchanged. Every data-dependent condition is re-checked per
/// solve, so patching costs, bounds or rhs never needs a recompile.
///
/// Not thread-safe: a solve writes the DP scratch held here.
struct CompiledModel {
  /// One coalesced row: duplicate terms summed, zero coefficients
  /// dropped, terms sorted by variable index. The rhs is data and is read
  /// from the model at solve time.
  struct Row {
    std::vector<std::pair<int, double>> terms;
    Rel rel = Rel::le;
    bool operator==(const Row&) const = default;
  };

  /// A chain block's DP plan, flattened in path order. State i of stage
  /// `pos` lives at index stage_begin[pos] + i of the per-state arrays.
  struct Chain {
    std::vector<int> stage_row;    // assignment row of each stage
    std::vector<int> stage_begin;  // n_stages + 1 offsets
    std::vector<int> var;          // x variable of each state
    std::vector<int> move_row;     // the state's incoming move row, or -1
    std::vector<int> slack;        // that row's y variable, or -1
    /// Position (within the previous stage) of the row's x[k-1] term, or
    /// -1 when the row has none — the "stay" predecessor.
    std::vector<int> stay;
    bool operator==(const Chain&) const = default;
  };

  /// One independent block: its variables and the rows they own, both in
  /// ascending original-index order, plus its chain plan when its
  /// structure is chain-shaped.
  struct Block {
    std::vector<int> vars;
    std::vector<int> rows;
    bool chain = false;
    Chain plan;
    bool operator==(const Block&) const = default;
  };

  /// How auto_select resolves: a fixed engine, or decomposed exactly when
  /// every `probe_vars` entry is a [0, 1] variable (the chain signature's
  /// only data-dependent part).
  enum class EngineRule { revised, decomposed, probe };

  CompiledModel() = default;  // compiled for no model: never current
  explicit CompiledModel(const Model& model);

  /// True when this plan was compiled from `model`'s current structure
  /// (same structure stamp, shape and integrality flags).
  bool current_for(const Model& model) const noexcept;

  /// Recompile from `model` unless the plan is already current for it.
  void refresh(const Model& model);

  /// The engine auto_select dispatches `model` to (resolve_engine).
  /// Requires current_for(model).
  MipEngine engine(const Model& model) const;

  /// Same compiled structure. Ignores the stamp and the DP scratch, so a
  /// cached plan compares equal to a recompile of its (patched) model.
  bool operator==(const CompiledModel& other) const;

  // --- identity ---
  std::uint64_t stamp = 0;
  bool compiled = false;
  std::size_t n_vars = 0;
  std::size_t n_rows = 0;
  std::vector<std::uint8_t> integer;  // integrality flags compiled against

  // --- auto_select ---
  EngineRule rule = EngineRule::revised;
  std::vector<int> probe_vars;

  // --- decomposed engine ---
  std::vector<Row> rows;
  /// Some row coalesced to no terms: the decomposed engine hands the
  /// model to the monolithic path (presolve owns that edge case).
  bool degenerate = false;
  std::vector<Block> blocks;  // row-bearing components, by first variable
  std::vector<int> box_vars;  // variables in no row

  // --- DP scratch, reused across solves (not part of the plan) ---
  std::vector<double> dp_cost;
  std::vector<int> dp_from;
  std::vector<int> dp_chosen;
};

/// The decomposed engine's run step on a plan current for `model`.
/// solve_mip refreshes the plan and dispatches MipEngine::decomposed here
/// (with a throwaway plan when the caller has none).
///
/// `warm` is sliced per block (a feasible monolithic incumbent restricted
/// to a block's variables is a feasible block incumbent). `hint` is used
/// and refreshed only on the monolithic fallback path — per-block bases
/// do not compose into a monolithic hint and chain blocks need none.
MipResult solve_mip_decomposed(const Model& model, CompiledModel& plan,
                               const MipOptions& options = {},
                               const MipWarmStart* warm = nullptr,
                               MipBasisHint* hint = nullptr);

}  // namespace vbatt::solver
