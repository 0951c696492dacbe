// Cross-replan solver warm starts and their fault invalidation.
//
// The MIP scheduler persists each app's optimal root basis between replans
// (MipSchedulerConfig::reuse_basis) and seeds the next solve with it. A
// topology change — link flap, server-failure start or repair — makes every
// persisted basis describe the wrong polytope, so the simulators watch
// FaultHooks::topology_epoch and call Scheduler::on_topology_change, which
// must leave the scheduler bit-identical to one that never kept bases.
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/injector.h"

namespace vbatt::core {
namespace {

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

MipSchedulerConfig reuse_config() {
  MipSchedulerConfig config = make_mip24h_config();
  config.clique_k = 2;
  config.mip.engine = solver::MipEngine::revised;
  config.reuse_basis = true;
  return config;
}

/// place + two replans against hand-stepped FleetStates; returns the
/// second replan's moves. `invalidate` fires on_topology_change between
/// the replans (what the simulators do when the epoch advances).
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

TEST(BasisReuse, SecondReplanHitsThePersistedBasis) {
  const VbGraph graph = small_graph(288);
  MipScheduler scheduler{reuse_config()};
  (void)drive(scheduler, graph, /*invalidate=*/false);
  // Replan 1 offers an empty hint (miss) and persists the basis; replan 2
  // re-solves the same-shaped model and must seed from it.
  EXPECT_GE(scheduler.basis_hint_hits(), 1);
  EXPECT_EQ(scheduler.basis_hint_invalidations(), 0);
}

TEST(BasisReuse, InvalidationMatchesAColdSolve) {
  const VbGraph graph = small_graph(288);

  MipScheduler invalidated{reuse_config()};
  const std::vector<Move> after_fault =
      drive(invalidated, graph, /*invalidate=*/true);
  // The persisted basis was dropped, not used.
  EXPECT_GE(invalidated.basis_hint_invalidations(), 1);
  EXPECT_EQ(invalidated.basis_hint_hits(), 0);

  MipSchedulerConfig cold_config = reuse_config();
  cold_config.reuse_basis = false;
  MipScheduler cold{cold_config};
  const std::vector<Move> cold_moves =
      drive(cold, graph, /*invalidate=*/false);
  EXPECT_EQ(cold.basis_hint_hits() + cold.basis_hint_misses(), 0);

  // Bit-identical schedules: the invalidated scheduler went cold too.
  ASSERT_EQ(after_fault.size(), cold_moves.size());
  for (std::size_t i = 0; i < cold_moves.size(); ++i) {
    EXPECT_EQ(after_fault[i].app_id, cold_moves[i].app_id);
    EXPECT_EQ(after_fault[i].to_site, cold_moves[i].to_site);
    EXPECT_EQ(after_fault[i].at_tick, cold_moves[i].at_tick);
  }
}

TEST(BasisReuse, InjectorEpochBumpsOnLinkFlapAndServerFailure) {
  const VbGraph graph = small_graph(96);
  fault::FaultSchedule schedule;
  fault::FaultEvent link;
  link.kind = fault::FaultKind::link_down;
  link.site = 0;
  link.peer = 1;
  link.start = 5;
  link.end = 10;
  schedule.events.push_back(link);
  fault::FaultEvent servers;
  servers.kind = fault::FaultKind::server_failure;
  servers.site = 2;
  servers.count = 1;
  servers.start = 3;
  servers.end = 7;
  schedule.events.push_back(servers);

  fault::FaultInjector injector{graph, schedule};
  EXPECT_EQ(injector.topology_epoch(), 0u);
  std::vector<std::uint64_t> trace;
  for (util::Tick t = 0; t < 12; ++t) {
    injector.begin_tick(t);
    trace.push_back(injector.topology_epoch());
  }
  // Bumps at 3 (failure start), 5 (link down), 7 (repair), 10 (link up).
  const std::vector<std::uint64_t> want{0, 0, 0, 1, 1, 2,
                                        2, 3, 3, 3, 4, 4};
  EXPECT_EQ(trace, want);
}

TEST(BasisReuse, SimulatorsInvalidateWhenTheEpochAdvances) {
  const VbGraph graph = small_graph(192);
  fault::FaultSchedule schedule;
  fault::FaultEvent link;
  link.kind = fault::FaultKind::link_down;
  link.site = 0;
  link.peer = 1;
  link.start = 30;   // after the first replan primed the bases
  link.end = 40;
  schedule.events.push_back(link);
  fault::FaultInjector injector{graph, schedule};
  FaultConfig faults;
  faults.hooks = &injector;

  const std::vector<workload::Application> apps{app_of(1, 150), app_of(2, 150)};

  // App-level simulator.
  {
    MipScheduler scheduler{reuse_config()};
    (void)run_simulation(injector.graph(), apps, scheduler, {}, &faults);
    EXPECT_GE(scheduler.basis_hint_invalidations(), 1);
  }
  // VM-level simulator (also covers the fail_servers plumbing: the epoch
  // source is shared, only the call site differs).
  {
    fault::FaultInjector vm_injector{graph, schedule};
    MipScheduler scheduler{reuse_config()};
    VmLevelConfig config;
    config.faults.hooks = &vm_injector;
    (void)run_fleet_simulation(vm_injector.graph(), apps, scheduler, config);
    EXPECT_GE(scheduler.basis_hint_invalidations(), 1);
  }
}

}  // namespace
}  // namespace vbatt::core
