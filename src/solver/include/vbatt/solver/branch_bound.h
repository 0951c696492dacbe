// Branch & bound MIP solver with two engines and shape-based selection.
//
// MipEngine::revised is the monolithic search: best-first on a
// deterministic (bound, push order) heap. One RevisedSolver is built per
// tree from the root presolve; each child re-solves from its parent's
// basis with the dual simplex (a single tightened bound leaves the parent
// basis dual-feasible), falling back to a cold primal solve if the dual
// path stalls. Branching uses pseudo-costs once the tree has produced
// observations and the most-fractional rule before that. Warm-start
// incumbents prune the heap without changing the result.
//
// MipEngine::decomposed (decompose.h) splits the model into independent
// blocks and solves the trajectory family's chain blocks with an exact
// DP. The default, MipEngine::auto_select, picks between the two from the
// model's shape. The frozen seed solver in reference.h is the oracle both
// are checked against (objectives to 1e-6).
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/solver/basis.h"
#include "vbatt/solver/model.h"
#include "vbatt/solver/simplex.h"

namespace vbatt::solver {

enum class MipEngine {
  /// Adaptive (the default): resolve_engine(model) picks one of the
  /// concrete engines below from the model's shape, then dispatches. The
  /// choice is a pure function of the model, independent of thread count.
  auto_select,
  /// Revised simplex + dual-simplex warm-started B&B with presolve,
  /// pseudo-cost branching, and incumbent cutoffs. Objectives match the
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

/// The engine auto_select dispatches `model` to: a deterministic, pure
/// function of model shape.
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

/// Stable lower-case name for an engine ("auto", "revised",
/// "decomposed"), for logs and bench JSON.
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
  /// Which engine to use. Production callers leave the default; tests and
  /// bench_solver pin a concrete engine to compare them.
  MipEngine engine = MipEngine::auto_select;
};

struct MipWarmStart {
  /// Candidate integral solution in model variable space, e.g. the
  /// previous replanning round's schedule.
  ///
  /// Validated against bounds, integrality, and every constraint; a valid
  /// vector acts purely as a static cutoff that keeps provably useless
  /// nodes out of the open heap. solve_mip returns exactly what the cold
  /// solve returns (this vector is never the returned solution), so warm
  /// and cold runs are bit-identical. The decomposed engine slices it per
  /// block; its chain DP needs none.
  std::vector<double> x;
};

/// Cross-solve warm-start state: the root basis (and its row duals) of a
/// previous solve of a structurally identical model, persisted by callers
/// between replanning rounds (MipScheduler keeps one per app).
///
/// Consumed and refreshed in place by the revised engine (and by the
/// decomposed engine's monolithic fallback): on entry a hint whose shape matches the current presolve
/// (same variable count, same surviving row subset) primes the root LP
/// with a primal warm start, skipping phase 1; on an optimal root exit
/// the hint is overwritten with the new root basis and duals. A hint
/// that no longer matches is ignored and replaced — never an error.
///
/// `epoch` is owned by the caller: MipScheduler stamps the fault
/// subsystem's topology epoch at capture and discards hints whose epoch
/// predates a topology-changing fault (server failure, link flap).
struct MipBasisHint {
  Basis basis;
  /// Row duals (simplex multipliers) at `basis`, in presolve row order.
  std::vector<double> duals;
  /// Presolve row subset `basis` is valid for (original row indices).
  std::vector<int> rows;
  std::size_t n_vars = 0;
  std::uint64_t epoch = 0;
  bool empty() const noexcept { return basis.empty(); }
  void clear() {
    basis = Basis{};
    duals.clear();
    rows.clear();
    n_vars = 0;
    epoch = 0;
  }
};

struct MipResult {
  LpStatus status = LpStatus::infeasible;
  double objective = 0.0;
  std::vector<double> x;
  int nodes_explored = 0;
  /// Simplex pivots summed over every node LP (incl. the root).
  std::int64_t pivots = 0;
  bool proven_optimal = false;

  // --- stage-3 observability (zero for the revised engine unless
  // noted) ---
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
  /// The root LP was primed from a valid MipBasisHint.
  bool used_basis_hint = false;
};

/// Solve `model` honoring integrality flags. `hint` (optional, in-out)
/// carries a cross-solve basis warm start; see MipBasisHint.
MipResult solve_mip(const Model& model, const MipOptions& options = {},
                    const MipWarmStart* warm = nullptr,
                    MipBasisHint* hint = nullptr);

/// Lexicographic bi-objective solve: minimize the model's costs first; then
/// minimize `secondary` costs subject to primary ≤ opt * (1 + eps_rel) +
/// eps_abs. Returns the second-stage result (its `objective` is the
/// secondary objective value).
///
/// Works in place: stage 2 appends the primary-cap row and swaps the
/// costs, then restores `model` exactly before returning (no model copy).
/// Stage 2 warm-starts from stage 1: its optimum seeds the incumbent
/// cutoff, and with the revised engine its root basis also primes the
/// stage-2 root LP.
/// `warm` seeds stage 1, same semantics as solve_mip.
/// `hint` seeds stage 1, same semantics as solve_mip; the stage-2 tree
/// (with its extra cap row) never touches it.
MipResult solve_lexicographic(Model& model,
                              const std::vector<double>& secondary,
                              double eps_rel = 0.01, double eps_abs = 1e-6,
                              const MipOptions& options = {},
                              const MipWarmStart* warm = nullptr,
                              MipBasisHint* hint = nullptr);

/// N-stage lexicographic solve. Stage 0 minimizes the model's own costs;
/// stage j > 0 minimizes `stages[j-1]` subject to every earlier stage's
/// objective staying within its cap (value + |value| * eps_rel + eps_abs).
/// Returns the final stage's result (`objective` is the last stage's
/// value); `stage_values` (optional) receives each stage's achieved
/// objective, stage 0 first.
///
/// Works in place like solve_lexicographic: each stage appends one cap row
/// and swaps the costs; all rows are popped and the original costs
/// restored exactly before returning. A stage that fails to solve keeps
/// the incumbent solution evaluated under the new costs
/// (proven_optimal=false) and still caps it for later stages. `warm`
/// seeds stage 0 only; later stages warm-start from the incumbent.
MipResult solve_lexicographic_stages(
    Model& model, const std::vector<std::vector<double>>& stages,
    double eps_rel = 0.01, double eps_abs = 1e-6,
    const MipOptions& options = {}, const MipWarmStart* warm = nullptr,
    std::vector<double>* stage_values = nullptr);

}  // namespace vbatt::solver
