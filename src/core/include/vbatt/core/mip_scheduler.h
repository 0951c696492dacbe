// The power & network aware MIP co-scheduler (§3.1, steps 1-3).
//
// For each application the scheduler:
//   1. ranks k-cliques of the latency graph by combined forecast cov
//      (subgraph identification),
//   2. evaluates the best few candidates by solving a per-app MIP over a
//      bucketed horizon: binary x[s][τ] = "app resides at site s during
//      bucket τ", move indicators y[s][τ] ≥ x[s][τ] − x[s][τ−1], objective
//      O1 = Σ move_bytes + Σ predicted forced-migration bytes (subgraph +
//      site selection),
//   3. optionally (MIP-peak) re-optimizes lexicographically: subject to
//      O1 within (1+ε) of optimal, minimize the peak per-bucket migration
//      volume P ≥ committed[τ] + app's moves in τ (O2).
//
// Applications are committed sequentially against shared capacity/traffic
// ledgers — a decomposition of the paper's joint MIP that keeps every
// subproblem small (the per-app LP relaxation has interval structure and
// solves at the root node almost always). Capacity is soft (deficit cost),
// matching O1/O2's pure-overhead objectives.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "vbatt/core/cliques.h"
#include "vbatt/core/forecast_cache.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/energy/signal.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/incremental.h"

namespace vbatt::core {

struct MipSchedulerConfig {
  std::string name = "MIP";
  /// Clique size for subgraph identification (paper: k = 2..5).
  int clique_k = 4;
  /// How many top-ranked subgraphs to evaluate with the MIP.
  int candidate_subgraphs = 3;
  /// Planning bucket width in ticks (24 ticks = 6 h at 15-min resolution).
  util::Tick bucket_ticks = 24;
  /// Lookahead; < 0 means "to the end of the trace" (the paper's MIP /
  /// MIP-peak). MIP-24h sets this to one day.
  util::Tick horizon_ticks = -1;
  /// Replanning cadence (forecast-update cadence), ticks.
  util::Tick replan_period = 24;
  /// Enable the lexicographic peak objective (MIP-peak).
  bool optimize_peak = false;
  /// Allowed O1 degradation when minimizing the peak.
  double peak_eps_rel = 0.10;
  /// Secondary *economic* objective, applied lexicographically after O1
  /// (move + predicted-displacement bytes) and before the optional peak
  /// stage: subject to O1 within objective_eps_rel of optimal, minimize
  /// the app's summed electricity cost in USD (cost) or embodied grid
  /// carbon in kg (carbon) over its planned trajectory. The coefficient
  /// for residing at site s during bucket b is the signal summed over the
  /// bucket's ticks times the app's stable cores, objective_kw_per_core,
  /// and hours-per-tick (real units, deliberately undiscounted so the
  /// stage value replays exactly against a per-tick ledger).
  enum class Objective { none, cost, carbon };
  Objective objective = Objective::none;
  /// Per-(site, tick) signal backing the econ stage: electricity price in
  /// $/MWh when objective == cost, grid carbon intensity in gCO2/kWh when
  /// objective == carbon. Must be non-null (and outlive the scheduler)
  /// whenever objective != none.
  const energy::SiteSeries* objective_signal = nullptr;
  /// Power attributed to one stable core when pricing a trajectory, kW
  /// (default mirrors SitePowerModel::watts_per_active_core = 8 W).
  double objective_kw_per_core = 0.008;
  /// Allowed O1 degradation when minimizing the econ objective.
  double objective_eps_rel = 0.01;
  /// Plan against this fraction of forecast capacity (forecast headroom).
  double capacity_safety = 0.90;
  /// Weight of predicted forced-migration/displacement cost relative to a
  /// proactive move of the same bytes. > 1: sitting in a predicted deficit
  /// is worse than moving away from it (a forced move costs the same bytes
  /// *plus* availability risk).
  double deficit_penalty = 2.0;
  /// Per-bucket discount on future costs: far-horizon forecasts are blurry
  /// and far-future problems can be fixed by a later replan, so they weigh
  /// less now. 1.0 disables discounting.
  double discount_per_bucket = 0.92;
  /// Spread each planned move uniformly inside its bucket instead of firing
  /// at the bucket boundary. Enabled for MIP-peak (its whole point is to
  /// de-burst migrations); MIP / MIP-24h fire at boundaries, which is what
  /// produces their paper-reported high peaks despite low totals.
  bool spread_moves_in_bucket = false;
  /// Hard cap on buckets per solve (bounds model size).
  int max_buckets = 32;
  /// Feed the solver warm starts: each replan seeds an app's MIP with its
  /// previous round's trajectory, and the MIP-peak stage 2 is seeded with
  /// the stage-1 optimum. Warm starts are cutoff-only (solve_mip returns
  /// bit-identical results with or without them), so this is purely a
  /// performance knob; disabling it is useful for determinism tests.
  bool warm_start = true;
  /// Carry solver bases and duals across replans: each app's optimal root
  /// basis from the last replan seeds the next one (solver::MipBasisHint),
  /// so the root LP starts dual-feasible and usually re-optimizes in a
  /// handful of pivots. Unlike `warm_start` this can change which of
  /// several equal-cost optima the solver lands on, so it is a separate
  /// knob. Only the revised engine (and the decomposed engine's monolithic
  /// fallback) reads hints; the chain DP ignores them. Hints are
  /// invalidated wholesale whenever the
  /// simulator reports a topology change (on_topology_change) — a basis
  /// for a fleet that lost a link or a rack describes the wrong polytope.
  bool reuse_basis = true;
  /// Reuse the previous structurally-identical model across solves: the
  /// trajectory MIP's shape is fully determined by (buckets, candidate
  /// sites, has-current-site), so between replans only the cost vectors
  /// and the k=0 move-row rhs change. On a cache hit those are patched in
  /// place instead of rebuilding — the patched model is bitwise-identical
  /// to a scratch build (same arithmetic, same order), so every engine
  /// produces byte-identical schedules. The cache is
  /// dropped wholesale by on_topology_change.
  bool incremental_build = true;
  /// Debug cross-check: after every patch, also build from scratch and
  /// require bitwise equality (solver::models_bitwise_equal), throwing
  /// std::logic_error with the first divergence. Expensive — it negates
  /// the build savings — so it is reserved for tests and the
  /// solver.delta_model_identity fuzz property.
  bool verify_incremental_build = false;
  solver::MipOptions mip{};
};

class MipScheduler final : public Scheduler {
 public:
  explicit MipScheduler(MipSchedulerConfig config);

  std::string name() const override { return config_.name; }
  Placement place(const workload::Application& app,
                  const FleetState& state) override;
  std::vector<Move> replan(const FleetState& state) override;
  util::Tick replan_period_ticks() const override {
    return config_.replan_period;
  }

  /// Topology changed under us (link flap, server-failure start/repair):
  /// every persisted basis describes a stale polytope — drop them all and
  /// let the next replan solve cold. The cached models go too: their
  /// structure would still be right, but a from-scratch rebuild on epoch
  /// bumps keeps the invalidation story uniform and cheap to reason about.
  void on_topology_change() override {
    basis_hint_invalidations_ +=
        static_cast<std::int64_t>(basis_hints_.size());
    basis_hints_.clear();
    model_cache_invalidations_ +=
        static_cast<std::int64_t>(model_cache_.size());
    model_cache_.clear();
  }

  /// Total per-app MIP solves performed (observability / tests).
  std::int64_t solve_count() const noexcept { return solve_count_; }

  /// Cross-replan basis reuse observability: solves whose root was seeded
  /// from a persisted basis / solves that went cold despite a hint being
  /// offered / hints dropped by topology invalidation.
  std::int64_t basis_hint_hits() const noexcept { return basis_hint_hits_; }
  std::int64_t basis_hint_misses() const noexcept {
    return basis_hint_misses_;
  }
  std::int64_t basis_hint_invalidations() const noexcept {
    return basis_hint_invalidations_;
  }

  /// Incremental-build observability: models constructed from scratch /
  /// cache hits patched in place / cached models dropped by topology
  /// invalidation.
  std::int64_t model_build_count() const noexcept { return model_builds_; }
  std::int64_t model_patch_count() const noexcept { return model_patches_; }
  std::int64_t model_cache_invalidations() const noexcept {
    return model_cache_invalidations_;
  }

  /// Cumulative wall time spent constructing or patching solver models,
  /// for replan-latency decomposition (bench_svc reports it alongside
  /// total replan time). Observability only — never serialized.
  double model_build_ms() const override { return model_build_ms_; }

  /// Fallback-ladder activations: a solver failure (node budget exhausted,
  /// infeasible) first shrinks the horizon to half the buckets, then
  /// degrades to greedy behavior (greedy placement for arrivals, keep the
  /// current site on replans). Each rung taken counts once; a solver
  /// failure is never fatal.
  std::int64_t fallback_count() const override { return fallback_count_; }

  /// Serialize the placement-bearing caches: cache_now_, bucketized
  /// capacity/load/traffic ledgers, the subgraph ranking, and the
  /// prev-trajectory incumbents. The forecast cache is NOT serialized —
  /// nothing reads it between refreshes, and the next refresh_capacity
  /// rebuilds it from the graph. Cross-replan basis hints are not
  /// serialized either and save_state refuses to run with reuse_basis on:
  /// hints can steer which equal-cost optimum the solver lands on, so a
  /// restored scheduler could diverge. The service pins reuse_basis (and
  /// warm_start) off for exactly this reason.
  void save_state(util::wire::Writer& w) const override;
  void restore_state(util::wire::Reader& r) override;

  struct Trajectory {
    double cost = 0.0;                   // O1 value of the chosen plan
    /// Econ-stage value of the chosen plan (USD or kg, per config_.objective);
    /// 0 when the econ stage is off. Undiscounted real units: replaying
    /// signal(site, t) * stable_cores * kw_per_core * hours_per_tick / 1000
    /// over the trajectory's modeled ticks reproduces it exactly.
    double objective_cost = 0.0;
    util::Tick start = 0;                // tick of bucket 0
    std::vector<std::size_t> sites;      // site per bucket
  };

  /// Last committed trajectory per live app (observability: the econ
  /// accounting-identity tests replay these against the signal series).
  const std::map<std::int64_t, Trajectory>& trajectories() const noexcept {
    return prev_trajectories_;
  }

 private:
  /// Bucketized conservative capacity forecast for all sites, refreshed
  /// whenever `now` advances.
  void refresh_capacity(const FleetState& state);

  /// Solve the per-app MIP over `sites`. `current_site` engaged for live
  /// apps (moving away from it costs bytes); nullopt for new arrivals.
  /// `previous` (may be null) is the app's last committed trajectory; it is
  /// re-aligned to the new horizon and fed to the solver as a warm-start
  /// incumbent. `hint` (may be null) is the app's persisted cross-replan
  /// basis; solve_mip consumes and refreshes it in place.
  std::optional<Trajectory> solve_app(const FleetState& state,
                                      int stable_cores, double stable_mem_gb,
                                      util::Tick end_tick,
                                      const std::vector<std::size_t>& sites,
                                      std::optional<std::size_t> current_site,
                                      const Trajectory* previous,
                                      solver::MipBasisHint* hint);

  /// Commit a trajectory: add loads and planned-move volume to the ledgers
  /// and derive Moves.
  std::vector<Move> commit(std::int64_t app_id, const Trajectory& trajectory,
                           int stable_cores, double stable_mem_gb,
                           std::optional<std::size_t> current_site);

  int bucket_count(const FleetState& state, util::Tick end_tick) const;

  MipSchedulerConfig config_;
  std::int64_t solve_count_ = 0;
  std::int64_t fallback_count_ = 0;
  std::int64_t basis_hint_hits_ = 0;
  std::int64_t basis_hint_misses_ = 0;
  std::int64_t basis_hint_invalidations_ = 0;
  std::int64_t model_builds_ = 0;
  std::int64_t model_patches_ = 0;
  std::int64_t model_cache_invalidations_ = 0;
  double model_build_ms_ = 0.0;

  // Per-replan caches, keyed to the `now` they were computed at.
  util::Tick cache_now_ = -1;
  /// Materialized forecast series shared by capacity bucketing and clique
  /// ranking; invalidated (re-keyed) whenever `now` changes.
  ForecastCache forecast_cache_;
  std::vector<std::vector<double>> capacity_;   // [site][bucket]
  std::vector<std::vector<double>> load_;       // [site][bucket] cores
  std::vector<double> committed_moves_gb_;      // [bucket]
  /// Econ-stage signal summed over each bucket's ticks, [site][bucket]
  /// (same bucket boundaries as capacity_). Empty when objective == none.
  std::vector<std::vector<double>> objective_sum_;
  std::vector<RankedSubgraph> ranked_;
  /// Last committed trajectory per live app; the next replan feeds it back
  /// to the solver as a warm-start incumbent. Pruned as apps depart.
  std::map<std::int64_t, Trajectory> prev_trajectories_;
  /// Persisted per-app solver bases + duals (cross-replan warm starts for
  /// the revised-family engines). Pruned with prev_trajectories_; cleared
  /// wholesale by on_topology_change.
  std::map<std::int64_t, solver::MipBasisHint> basis_hints_;
  /// Built trajectory models keyed by structural family (buckets,
  /// candidate-set size, has-current-site), each with its compiled solver
  /// plan and econ-stage cost vector; hits are patched in place (costs,
  /// k=0 rhs, econ costs) instead of rebuilt, and solve on the cached
  /// plan. Pure derived state — never serialized; the patch makes any
  /// cached entry exact before use. Cleared wholesale by
  /// on_topology_change.
  solver::ModelCache model_cache_;
};

/// Convenience factories for the paper's four policies (Table 1).
MipSchedulerConfig make_mip_config();
MipSchedulerConfig make_mip24h_config();
MipSchedulerConfig make_mip_peak_config();
/// Econ variants: MIP with a lexicographic electricity-cost / carbon
/// stage driven by `signal` ($/MWh or gCO2/kWh per site and tick). The
/// series must outlive the scheduler.
MipSchedulerConfig make_mip_cost_config(const energy::SiteSeries* signal);
MipSchedulerConfig make_mip_carbon_config(const energy::SiteSeries* signal);

}  // namespace vbatt::core
