// Branch & bound MIP solver with two engines and shape-based selection.
//
// solve_mip is the one production entry point: it compiles the model's
// structure (CompiledModel, decompose.h), lets the compile pick an engine
// from the model's shape, and dispatches.
//
// solve_revised is the monolithic search: best-first on a deterministic
// (bound, push order) heap. One RevisedSolver is built per tree from the
// root presolve; each child re-solves from its parent's basis with the
// dual simplex (a single tightened bound leaves the parent basis
// dual-feasible), falling back to a cold primal solve if the dual path
// stalls. Branching uses pseudo-costs once the tree has produced
// observations and the most-fractional rule before that.
//
// solve_mip_decomposed (decompose.h) splits the model into independent
// blocks and solves the trajectory family's chain blocks with an exact
// DP. The frozen seed solver in reference.h is the oracle both engines
// are checked against (objectives to 1e-6); tests and bench_solver call
// an engine's entry point directly to compare them.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/solver/model.h"
#include "vbatt/solver/simplex.h"

namespace vbatt::solver {

/// The engine solve_mip dispatches a model to (resolve_engine).
enum class MipEngine {
  /// Revised simplex + dual-simplex warm-started B&B with presolve,
  /// pseudo-cost branching, and incumbent pruning. Objectives match the
  /// reference oracle to 1e-6; the chosen vertex may differ on degenerate
  /// (alternative-optima) models.
  revised,
  /// Stage-3 decomposition layer (decompose.h): splits the model into
  /// independent blocks (union-find over shared rows), solves stagewise
  /// chain blocks with an exact shortest-path master and the rest as
  /// separate revised B&B subproblems, and stitches the results. Any
  /// structure it cannot prove separable falls back to the monolithic
  /// revised path (MipResult::monolithic_fallback). Objectives match the
  /// revised engine to 1e-6.
  decomposed,
};

struct CompiledModel;  // decompose.h

/// The engine solve_mip dispatches `model` to: a deterministic, pure
/// function of model shape, read from the same compile (CompiledModel)
/// that the decomposed engine runs on.
///
///   - tiny models (few vars or rows): revised — the decomposition probe
///     costs more than it saves;
///   - multi-block or chain-shaped models (unit-coefficient eq rows over
///     binaries plus short coupling rows — the trajectory family's
///     signature): decomposed, whose union-find + chain-DP master beats
///     the monolithic engine on every benchmarked cell and falls back to
///     revised when the probe was wrong;
///   - everything else: revised.
///
/// BENCH_solver.json documents the shape→engine map this encodes.
MipEngine resolve_engine(const Model& model);

/// Stable lower-case name for an engine ("revised", "decomposed"), for
/// logs and bench JSON.
const char* engine_name(MipEngine engine) noexcept;

struct MipOptions {
  /// Node budget; on exhaustion the incumbent (if any) is returned with
  /// proven_optimal = false. The root (revised) and every chain or box
  /// block (decomposed) count as one node each, so 0 fails every solve.
  int max_nodes = 20000;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// Stop when bound and incumbent are within this absolute gap.
  double gap_abs = 1e-6;
  /// Pivot budget per node LP; < 0 picks an automatic budget scaled to
  /// the model size. A child LP that exhausts it is dropped and the result
  /// is marked not proven optimal, so degenerate models surface as failed
  /// or unproven solves instead of hangs.
  std::int64_t max_lp_pivots = -1;
};

struct MipResult {
  LpStatus status = LpStatus::infeasible;
  double objective = 0.0;
  std::vector<double> x;
  int nodes_explored = 0;
  /// Simplex pivots summed over every node LP (incl. the root).
  std::int64_t pivots = 0;
  bool proven_optimal = false;

  // --- stage-3 observability (zero for the revised engine) ---
  /// Independent blocks the decomposition layer detected (>= 1 when the
  /// decomposed engine actually decomposed; 0 on fallback).
  int blocks = 0;
  /// Blocks solved by the exact stagewise-chain (shortest-path) master.
  int chain_blocks = 0;
  /// Master stitch iterations (decomposed engine).
  int master_iterations = 0;
  /// Decomposed engine could not prove separable structure and solved
  /// the model monolithically with the revised engine instead.
  bool monolithic_fallback = false;
};

/// Solve `model` honoring integrality flags on the engine
/// resolve_engine(model) picks. Compiles the model's structure, then
/// runs; callers that re-solve one model with patched data keep the
/// compile across solves with the overload below.
MipResult solve_mip(const Model& model, const MipOptions& options = {});

/// Same solve, reusing `plan` (in-out): it is recompiled only when it is
/// not current for `model` (a structural edit since it was compiled, or a
/// changed integrality flag), so between patch-only solves the engine
/// choice, block partition and chain plans are paid for once. The result
/// is bit-identical to solve_mip(model, options).
MipResult solve_mip(const Model& model, CompiledModel& plan,
                    const MipOptions& options = {});

/// The revised engine's monolithic B&B, whatever the model's shape. The
/// decomposed engine runs its non-chain blocks and its fallback here.
MipResult solve_revised(const Model& model, const MipOptions& options = {});

}  // namespace vbatt::solver
