// Incremental (delta) MIP model build: ModelCache semantics, compiled plan
// reuse and staleness, the bitwise model diff it is audited with, and
// MipScheduler's patch-vs-scratch identity across replans and
// topology-epoch invalidations.
//
// The load-bearing claim is bitwise: a patched model must equal the
// from-scratch build down to the last mantissa bit, because every solver
// engine consumes it, and any drift would silently change schedules. verify_incremental_build wires
// that check into the scheduler itself (it throws on the first diverging
// bit); these tests pin the cache mechanics around it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/site.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/incremental.h"
#include "vbatt/solver/model.h"
#include "vbatt/util/rng.h"

namespace vbatt::core {
namespace {

// --- ModelCache ----------------------------------------------------------

solver::Model tiny_model(double cost, double rhs) {
  solver::Model model;
  const int x = model.add_binary("x", cost);
  const int y = model.add_var("y", 2.0, 0.0, 1.0);
  model.add_constraint({{x, 1.0}, {y, -1.0}}, solver::Rel::le, rhs);
  return model;
}

/// The scheduler's trajectory family for one app with a current site:
/// binary x[k][s] (k-major), continuous move slacks y[k][s], one
/// assignment row per bucket, each followed by its move rows.
solver::Model chain_model(int sites, int buckets, std::uint64_t seed) {
  util::Rng rng{seed};
  solver::Model model;
  for (int v = 0; v < sites * buckets; ++v) {
    model.add_binary("x", rng.uniform(0.0, 50.0));
  }
  for (int k = 0; k < buckets; ++k) {
    for (int s = 0; s < sites; ++s) {
      model.add_var("y", 20.0 + static_cast<double>(k), 0.0, 1.0);
    }
  }
  const auto x = [sites](int k, int s) { return k * sites + s; };
  const auto y = [sites, buckets](int k, int s) {
    return sites * buckets + k * sites + s;
  };
  for (int k = 0; k < buckets; ++k) {
    std::vector<std::pair<int, double>> one;
    for (int s = 0; s < sites; ++s) one.emplace_back(x(k, s), 1.0);
    model.add_constraint(std::move(one), solver::Rel::eq, 1.0);
    for (int s = 0; s < sites; ++s) {
      std::vector<std::pair<int, double>> terms{{x(k, s), 1.0}};
      if (k > 0) terms.emplace_back(x(k - 1, s), -1.0);
      terms.emplace_back(y(k, s), -1.0);
      model.add_constraint(std::move(terms), solver::Rel::le,
                           k == 0 && s == 0 ? 1.0 : 0.0);
    }
  }
  return model;
}

TEST(ModelCache, BuildsOncePerKeyThenHits) {
  solver::ModelCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return tiny_model(1.0, 0.5);
  };

  bool fresh = false;
  solver::Model& first = cache.get({4, 7, 1}, build, &fresh).model;
  EXPECT_TRUE(fresh);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.size(), 1u);

  solver::Model& again = cache.get({4, 7, 1}, build, &fresh).model;
  EXPECT_FALSE(fresh);
  EXPECT_EQ(builds, 1);  // no rebuild on a hit
  EXPECT_EQ(&first, &again);  // the cached object itself, patchable in place

  (void)cache.get({4, 7, 0}, build, &fresh);  // any differing field misses
  EXPECT_TRUE(fresh);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.get({4, 7, 1}, build, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(builds, 3);
}

TEST(ModelCache, ClearDropsCompiledPlans) {
  solver::ModelCache cache;
  const auto build = [] { return chain_model(3, 4, 1); };
  solver::ModelCache::Entry& entry = cache.get({1, 2, 3}, build);
  (void)solver::solve_mip(entry.model, entry.plan);
  EXPECT_TRUE(entry.plan.compiled);
  EXPECT_TRUE(entry.plan.current_for(entry.model));

  // Topology invalidation clears the cache: the next get rebuilds the
  // model and starts from an uncompiled plan.
  cache.clear();
  bool fresh = false;
  solver::ModelCache::Entry& rebuilt = cache.get({1, 2, 3}, build, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_FALSE(rebuilt.plan.compiled);
  EXPECT_FALSE(rebuilt.plan.current_for(rebuilt.model));
  EXPECT_TRUE(rebuilt.econ.empty());
}

// --- compiled plans ------------------------------------------------------

/// Bitwise equality on every MipResult field a caller can observe.
void expect_same_result(const solver::MipResult& got,
                        const solver::MipResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(want.objective));
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x[i]),
              std::bit_cast<std::uint64_t>(want.x[i]))
        << "x[" << i << "]";
  }
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
  EXPECT_EQ(got.pivots, want.pivots);
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.chain_blocks, want.chain_blocks);
  EXPECT_EQ(got.master_iterations, want.master_iterations);
  EXPECT_EQ(got.monolithic_fallback, want.monolithic_fallback);
}

TEST(CompiledPlan, StructuralEditsNeverSolveOnAStalePlan) {
  solver::Model model = chain_model(3, 5, 7);
  solver::CompiledModel plan{model};
  const solver::MipResult chain = solver::solve_mip(model, plan);
  expect_same_result(chain, solver::solve_mip(model));
  EXPECT_EQ(chain.chain_blocks, 1);

  // A cap row over every x couples the chain: the plan goes stale, the
  // planned solve recompiles and matches a fresh solve (no chain DP).
  std::vector<std::pair<int, double>> cap;
  for (std::size_t v = 0; v < model.n_vars(); ++v) {
    if (model.vars()[v].integer) cap.emplace_back(static_cast<int>(v), 1.0);
  }
  model.add_constraint(std::move(cap), solver::Rel::le, 5.0);
  EXPECT_FALSE(plan.current_for(model));
  const solver::MipResult capped = solver::solve_mip(model, plan);
  expect_same_result(capped, solver::solve_mip(model));
  EXPECT_EQ(capped.chain_blocks, 0);
  EXPECT_TRUE(plan.current_for(model));

  // Popping the row restores the structure but not the stamp: recompile,
  // and the chain DP answer comes back bit for bit.
  model.pop_constraint();
  EXPECT_FALSE(plan.current_for(model));
  expect_same_result(solver::solve_mip(model, plan), chain);

  // Same row count, different structure: swapping the last move row for
  // a non-unit variant is caught by the stamp alone.
  solver::Constraint last = model.constraints().back();
  last.terms.front().second = 2.0;
  model.pop_constraint();
  model.add_constraint(last.terms, last.rel, last.rhs);
  EXPECT_FALSE(plan.current_for(model));
  const solver::MipResult swapped = solver::solve_mip(model, plan);
  expect_same_result(swapped, solver::solve_mip(model));
  EXPECT_EQ(swapped.chain_blocks, 0);

  // An integrality flip is structure to the plan, too.
  solver::CompiledModel flipped_plan{model};
  model.vars()[0].integer = false;
  EXPECT_FALSE(flipped_plan.current_for(model));
}

TEST(CompiledPlan, DataPatchesKeepThePlanAndMatchFreshSolves) {
  solver::Model model = chain_model(3, 5, 11);
  solver::CompiledModel plan{model};
  const std::uint64_t stamp = model.structure_stamp();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t v = 0; v < model.n_vars(); ++v) {
      model.vars()[v].cost += static_cast<double>((v * 7 + round) % 5);
    }
    model.set_rhs(1, round % 2 == 0 ? 1.0 : 0.0);
    EXPECT_TRUE(plan.current_for(model));
    expect_same_result(solver::solve_mip(model, plan),
                       solver::solve_mip(model));
  }
  EXPECT_EQ(model.structure_stamp(), stamp);
  // A planned solve is also the same whatever its plan's history: equal
  // to a recompile of the patched model.
  EXPECT_TRUE(plan == solver::CompiledModel{model});
}

TEST(CompiledPlan, SpentNodeBudgetStillFails) {
  solver::Model model = chain_model(3, 5, 3);
  solver::CompiledModel plan{model};
  (void)solver::solve_mip(model, plan);  // compile + warm the scratch
  solver::MipOptions options;
  options.max_nodes = 0;
  const solver::MipResult got = solver::solve_mip(model, plan, options);
  EXPECT_EQ(got.status, solver::LpStatus::iteration_limit);
  EXPECT_FALSE(got.proven_optimal);
  expect_same_result(got, solver::solve_mip(model, options));
}

TEST(CompiledPlan, TwoForcedStatesStayInfeasible) {
  solver::Model model = chain_model(3, 5, 5);
  solver::CompiledModel plan{model};
  (void)solver::solve_mip(model, plan);
  // Stage 1's first two sites both forced on (x layout is k-major).
  model.vars()[3].lb = 1.0;
  model.vars()[4].lb = 1.0;
  const solver::MipResult got = solver::solve_mip(model, plan);
  EXPECT_EQ(got.status, solver::LpStatus::infeasible);
  expect_same_result(got, solver::solve_mip(model));
  // The decomposed engine pinned on the same plan.
  const solver::MipResult pinned = solver::solve_mip_decomposed(model, plan);
  EXPECT_EQ(pinned.status, solver::LpStatus::infeasible);
  solver::CompiledModel fresh{model};
  expect_same_result(pinned, solver::solve_mip_decomposed(model, fresh));
}

// --- bitwise model diff --------------------------------------------------

TEST(ModelDiff, IdenticalModelsDiffEmpty) {
  const solver::Model a = tiny_model(1.0, 0.5);
  const solver::Model b = tiny_model(1.0, 0.5);
  EXPECT_TRUE(solver::models_bitwise_equal(a, b));
  EXPECT_EQ(solver::diff_models_bitwise(a, b), "");
}

TEST(ModelDiff, CatchesEveryFieldKind) {
  const solver::Model base = tiny_model(1.0, 0.5);

  {
    solver::Model cost = tiny_model(1.0, 0.5);
    cost.vars()[0].cost = 1.0000000000000002;  // one ulp off

    EXPECT_FALSE(solver::models_bitwise_equal(base, cost));
    EXPECT_NE(solver::diff_models_bitwise(base, cost), "");
  }
  {
    // -0.0 == 0.0 under operator== but differs bitwise; the diff must see
    // it (an engine branching on signbit would).
    solver::Model zero_a = tiny_model(0.0, 0.5);
    solver::Model zero_b = tiny_model(-0.0, 0.5);
    EXPECT_FALSE(solver::models_bitwise_equal(zero_a, zero_b));
  }
  {
    solver::Model rhs = tiny_model(1.0, 0.5);
    rhs.set_rhs(0, 0.25);
    EXPECT_NE(solver::diff_models_bitwise(base, rhs), "");
  }
  {
    solver::Model bound = tiny_model(1.0, 0.5);
    bound.vars()[1].ub = 0.75;
    EXPECT_NE(solver::diff_models_bitwise(base, bound), "");
  }
  {
    solver::Model integrality = tiny_model(1.0, 0.5);
    integrality.vars()[1].integer = true;
    EXPECT_NE(solver::diff_models_bitwise(base, integrality), "");
  }
  {
    // Different term coefficient (built, constraints are append-only).
    solver::Model coeff;
    const int x = coeff.add_binary("x", 1.0);
    const int y = coeff.add_var("y", 2.0, 0.0, 1.0);
    coeff.add_constraint({{x, 1.0}, {y, -2.0}}, solver::Rel::le, 0.5);
    EXPECT_NE(solver::diff_models_bitwise(base, coeff), "");
  }
  {
    solver::Model counts = tiny_model(1.0, 0.5);
    counts.add_constraint({{0, 1.0}}, solver::Rel::le, 1.0);
    EXPECT_NE(solver::diff_models_bitwise(base, counts), "");
  }
  EXPECT_THROW(solver::Model{}.set_rhs(0, 1.0), std::out_of_range);
}

// --- MipScheduler integration -------------------------------------------

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

MipSchedulerConfig delta_config() {
  MipSchedulerConfig config = make_mip24h_config();
  config.clique_k = 2;
  config.incremental_build = true;
  // Audit every patched model against a scratch rebuild: any diverging
  // bit throws std::logic_error out of the solve.
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

TEST(DeltaModelBuild, SecondSolveOfAFamilyPatchesInsteadOfBuilding) {
  const VbGraph graph = small_graph(288);
  MipScheduler scheduler{delta_config()};
  (void)drive(scheduler, graph, /*invalidate=*/false);
  // The placement builds each family once; both replans re-solve the
  // same families and must take the patch path, bitwise-audited.
  EXPECT_GE(scheduler.model_build_count(), 1);
  EXPECT_GE(scheduler.model_patch_count(), 1);
  EXPECT_EQ(scheduler.model_cache_invalidations(), 0);
  // Every replan's model construction is metered.
  EXPECT_GT(scheduler.model_build_ms(), 0.0);
}

TEST(DeltaModelBuild, TopologyChangeDropsTheCacheWholesale) {
  const VbGraph graph = small_graph(288);

  MipScheduler invalidated{delta_config()};
  const std::vector<Move> after_fault =
      drive(invalidated, graph, /*invalidate=*/true);
  EXPECT_GE(invalidated.model_cache_invalidations(), 1);
  // The post-fault replan found an empty cache: at least two scratch
  // builds total (initial + rebuilt family).
  EXPECT_GE(invalidated.model_build_count(), 2);

  // And the rebuilt schedule is bit-identical to one computed by a
  // scheduler that never cached anything.
  MipSchedulerConfig scratch_config = delta_config();
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
}

TEST(DeltaModelBuild, FullSimulationMatchesScratchBuilds) {
  const VbGraph graph = small_graph(192);
  const std::vector<workload::Application> apps{app_of(1, 150),
                                                app_of(2, 150)};

  const auto run_with = [&](bool incremental) {
    MipSchedulerConfig config = delta_config();
    config.incremental_build = incremental;
    config.verify_incremental_build = incremental;
    MipScheduler scheduler{config};
    return run_fleet_simulation(graph, apps, scheduler);
  };
  const VmLevelResult delta = run_with(true);
  const VmLevelResult scratch = run_with(false);

  // Bit-identical headline counters; energy compared as exact doubles
  // (same arithmetic in the same order, not a tolerance match).
  EXPECT_EQ(delta.base.apps_placed, scratch.base.apps_placed);
  EXPECT_EQ(delta.base.planned_migrations, scratch.base.planned_migrations);
  EXPECT_EQ(delta.base.forced_migrations, scratch.base.forced_migrations);
  EXPECT_EQ(delta.vm_migrations, scratch.vm_migrations);
  EXPECT_EQ(delta.base.displaced_stable_core_ticks,
            scratch.base.displaced_stable_core_ticks);
  EXPECT_EQ(delta.powered_server_ticks, scratch.powered_server_ticks);
  EXPECT_EQ(delta.base.energy_mwh, scratch.base.energy_mwh);
  EXPECT_EQ(delta.base.moved_gb, scratch.base.moved_gb);
}

}  // namespace
}  // namespace vbatt::core
