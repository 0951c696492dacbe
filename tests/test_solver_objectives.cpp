// The econ objective stack: staged solves built in place the way
// MipScheduler runs its econ and peak stages (cap row, swapped costs),
// each stage matching the solver/reference/ oracle through solve_revised,
// solve_mip_decomposed and the default solve_mip, and the model restored
// bitwise after the stages are undone; the econ-coefficient cache patching
// price/carbon coefficients bitwise-identically to a scratch build (the
// scheduler audits every patch itself under verify_incremental_build),
// and topology-epoch invalidation dropping the econ cache along with the
// model cache. Companion fuzz property: solver.objective_identity.
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/site.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/incremental.h"
#include "vbatt/solver/model.h"
#include "vbatt/solver/reference.h"

namespace vbatt::core {
namespace {

// --- staged solves on every entry point ----------------------------------

/// Three binaries, exactly one chosen. Primary cost ties a and b at 1
/// (c costs 2); stage 2 then prefers b; stage 3 would prefer c but the
/// stage-2 cap forbids abandoning b.
solver::Model pick_one_model() {
  solver::Model model;
  const int a = model.add_binary("a", 1.0);
  const int b = model.add_binary("b", 1.0);
  const int c = model.add_binary("c", 2.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, solver::Rel::eq, 1.0);
  return model;
}

/// One trajectory chain (3 sites x 4 buckets, start at site 0): binary
/// x[k][s] with one site per bucket, move slacks y[k][s] >= x[k][s] -
/// x[k-1][s] costing 10 each.
solver::Model chain_model() {
  solver::Model model;
  const double x_cost[4][3] = {{4, 1, 6}, {5, 2, 1}, {3, 7, 2}, {6, 2, 5}};
  for (int k = 0; k < 4; ++k) {
    std::vector<std::pair<int, double>> one;
    for (int s = 0; s < 3; ++s) {
      const int x = model.add_binary("x", x_cost[k][s]);
      const int y = model.add_var("y", 10.0, 0.0, 1.0);
      one.emplace_back(x, 1.0);
      std::vector<std::pair<int, double>> move{{x, 1.0}, {y, -1.0}};
      if (k > 0) move.emplace_back(x - 6, -1.0);  // x[k-1][s]
      model.add_constraint(std::move(move), solver::Rel::le,
                           k == 0 && s == 0 ? 1.0 : 0.0);
    }
    model.add_constraint(std::move(one), solver::Rel::eq, 1.0);
  }
  return model;
}

/// Cap the model's current costs at `value` (plus 1e-9) and swap in
/// `next`, in place, as MipScheduler's econ and peak stages do. Returns
/// the replaced costs for pop_stage.
std::vector<double> push_stage(solver::Model& model, double value,
                               const std::vector<double>& next) {
  std::vector<double> saved;
  std::vector<std::pair<int, double>> cap;
  for (std::size_t v = 0; v < model.n_vars(); ++v) {
    saved.push_back(model.vars()[v].cost);
    if (saved.back() != 0.0) cap.emplace_back(static_cast<int>(v), saved[v]);
    model.vars()[v].cost = next[v];
  }
  model.add_constraint(std::move(cap), solver::Rel::le, value + 1e-9);
  return saved;
}

void pop_stage(solver::Model& model, const std::vector<double>& saved) {
  model.pop_constraint();
  for (std::size_t v = 0; v < saved.size(); ++v) {
    model.vars()[v].cost = saved[v];
  }
}

/// The oracle's objective for `model`, after checking that the default
/// solve_mip and both pinned engines reach it within 1e-6.
double oracle_objective(const solver::Model& model) {
  const solver::MipResult want = solver::reference::solve_mip(model);
  EXPECT_EQ(want.status, solver::LpStatus::optimal);
  solver::CompiledModel plan{model};
  const solver::MipResult got[] = {solver::solve_mip(model),
                                   solver::solve_revised(model),
                                   solver::solve_mip_decomposed(model, plan)};
  for (const solver::MipResult& r : got) {
    EXPECT_EQ(r.status, want.status);
    EXPECT_NEAR(r.objective, want.objective, 1e-6);
  }
  return want.objective;
}

TEST(StagedSolve, ThreeStageChainPicksByPriorityOnEveryEngine) {
  solver::Model model = pick_one_model();
  const solver::Model before = model;
  const double o1 = oracle_objective(model);
  EXPECT_NEAR(o1, 1.0, 1e-9);
  const std::vector<double> c1 = push_stage(model, o1, {5.0, 1.0, 3.0});
  const double o2 = oracle_objective(model);
  EXPECT_NEAR(o2, 1.0, 1e-6);  // b wins stage 2
  const std::vector<double> c2 = push_stage(model, o2, {3.0, 5.0, 0.0});
  EXPECT_NEAR(oracle_objective(model), 5.0, 1e-6);  // and keeps it
  pop_stage(model, c2);
  pop_stage(model, c1);
  // Every cap row popped, every cost restored, down to the last bit.
  EXPECT_TRUE(solver::models_bitwise_equal(before, model));
  EXPECT_EQ(solver::diff_models_bitwise(before, model), "");
}

TEST(StagedSolve, EconStageOnATrajectoryChainMatchesTheOracle) {
  // Stage 1 is a pure chain (the DP master); the econ cap row couples
  // every variable, so stage 2 takes the decomposed engine's fallback.
  solver::Model model = chain_model();
  const solver::Model before = model;
  EXPECT_EQ(solver::solve_mip(model).chain_blocks, 1);
  const double o1 = oracle_objective(model);
  std::vector<double> econ(model.n_vars(), 0.0);
  for (std::size_t v = 0; v < econ.size(); v += 2) {
    econ[v] = static_cast<double>((v * 7) % 5);  // x columns only
  }
  const std::vector<double> saved = push_stage(model, o1 * 1.01, econ);
  (void)oracle_objective(model);
  pop_stage(model, saved);
  EXPECT_TRUE(solver::models_bitwise_equal(before, model));
}

// --- MipScheduler econ-coefficient cache ---------------------------------

VbGraph small_graph(std::size_t ticks) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return VbGraph{energy::generate_fleet(config, util::TimeAxis{15}, ticks),
                 graph_config};
}

workload::Application app_of(std::int64_t id, util::Tick lifetime) {
  workload::Application app;
  app.app_id = id;
  app.arrival = 0;
  app.lifetime_ticks = lifetime;
  app.shape = {4, 16.0};
  app.n_stable = 8;
  app.n_degradable = 0;
  return app;
}

MipSchedulerConfig econ_delta_config(const energy::SiteSeries* price) {
  MipSchedulerConfig config = make_mip_cost_config(price);
  config.clique_k = 2;
  config.horizon_ticks = 96;
  config.incremental_build = true;
  // Audit every patched model AND every patched econ-coefficient vector
  // against a scratch rebuild: one diverging bit throws std::logic_error.
  config.verify_incremental_build = true;
  return config;
}

/// place + two replans against hand-stepped FleetStates; returns the
/// second replan's moves. `invalidate` fires on_topology_change between
/// the replans, as the simulators do when the fault epoch advances.
std::vector<Move> drive(MipScheduler& scheduler, const VbGraph& graph,
                        bool invalidate) {
  const workload::Application app = app_of(1, 288);
  FleetState state;
  state.graph = &graph;
  state.now = 0;
  state.stable_cores.assign(graph.n_sites(), 0);
  state.degradable_cores.assign(graph.n_sites(), 0);
  const Scheduler::Placement placement = scheduler.place(app, state);

  LiveApp live;
  live.app = app;
  live.end_tick = 288;
  live.site = placement.site;
  live.allowed = placement.allowed;
  state.apps.emplace(app.app_id, live);
  state.stable_cores[placement.site] = app.stable_cores();

  state.now = 24;
  (void)scheduler.replan(state);
  if (invalidate) scheduler.on_topology_change();
  state.now = 48;
  return scheduler.replan(state);
}

TEST(EconDeltaBuild, PatchedPriceCoefficientsMatchScratchBitwise) {
  const VbGraph graph = small_graph(288);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());
  MipScheduler scheduler{econ_delta_config(&price)};
  // Replans shift b0, so the cached econ vector is re-patched with
  // drifted bucket sums each time; verify_incremental_build memcmp's it
  // against a scratch build inside solve_app and throws on divergence.
  EXPECT_NO_THROW((void)drive(scheduler, graph, /*invalidate=*/false));
  EXPECT_GE(scheduler.model_patch_count(), 1);
  EXPECT_EQ(scheduler.model_cache_invalidations(), 0);
  // The econ stage actually priced the plan.
  ASSERT_EQ(scheduler.trajectories().size(), 1u);
  EXPECT_GT(scheduler.trajectories().begin()->second.objective_cost, 0.0);
}

TEST(EconDeltaBuild, TopologyEpochInvalidationDropsTheEconCache) {
  const VbGraph graph = small_graph(288);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());

  MipScheduler invalidated{econ_delta_config(&price)};
  const std::vector<Move> after_fault =
      drive(invalidated, graph, /*invalidate=*/true);
  // The cache was populated (model families, each with its econ
  // vector), and the epoch bump dropped every entry.
  EXPECT_GE(invalidated.model_cache_invalidations(), 2);
  EXPECT_GE(invalidated.model_build_count(), 2);

  // The rebuilt schedule is bit-identical to one from a scheduler that
  // never cached anything.
  MipSchedulerConfig scratch_config = econ_delta_config(&price);
  scratch_config.incremental_build = false;
  scratch_config.verify_incremental_build = false;
  MipScheduler scratch{scratch_config};
  const std::vector<Move> scratch_moves =
      drive(scratch, graph, /*invalidate=*/true);
  EXPECT_EQ(scratch.model_patch_count(), 0);

  ASSERT_EQ(after_fault.size(), scratch_moves.size());
  for (std::size_t i = 0; i < scratch_moves.size(); ++i) {
    EXPECT_EQ(after_fault[i].app_id, scratch_moves[i].app_id);
    EXPECT_EQ(after_fault[i].to_site, scratch_moves[i].to_site);
    EXPECT_EQ(after_fault[i].at_tick, scratch_moves[i].at_tick);
  }
  // And the committed econ stage values agree exactly.
  ASSERT_EQ(invalidated.trajectories().size(), scratch.trajectories().size());
  for (const auto& [app_id, trajectory] : invalidated.trajectories()) {
    EXPECT_EQ(trajectory.objective_cost,
              scratch.trajectories().at(app_id).objective_cost);
  }
}

TEST(EconDeltaBuild, FullCostSimulationMatchesScratchBuilds) {
  const VbGraph graph = small_graph(192);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());
  const std::vector<workload::Application> apps{app_of(1, 150),
                                                app_of(2, 150)};
  ScenarioExtensions ext;
  ext.price = &price;
  VmLevelConfig config;
  config.ext = &ext;

  const auto run_with = [&](bool incremental) {
    MipSchedulerConfig mc = econ_delta_config(&price);
    mc.incremental_build = incremental;
    mc.verify_incremental_build = incremental;
    MipScheduler scheduler{mc};
    return run_fleet_simulation(graph, apps, scheduler, config);
  };
  const VmLevelResult delta = run_with(true);
  const VmLevelResult scratch = run_with(false);

  // Same schedule, same metered spend — exact doubles, not tolerances.
  EXPECT_EQ(delta.base.apps_placed, scratch.base.apps_placed);
  EXPECT_EQ(delta.base.planned_migrations, scratch.base.planned_migrations);
  EXPECT_EQ(delta.base.moved_gb, scratch.base.moved_gb);
  EXPECT_EQ(delta.base.energy_mwh, scratch.base.energy_mwh);
  EXPECT_EQ(delta.base.cost_usd, scratch.base.cost_usd);
  EXPECT_EQ(delta.base.cost_usd_per_tick, scratch.base.cost_usd_per_tick);
}

}  // namespace
}  // namespace vbatt::core
