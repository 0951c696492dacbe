// Topology-change invalidation of the MIP scheduler's model cache.
//
// A topology change — link flap, server-failure start or repair — bumps
// FaultHooks::topology_epoch. The simulators watch it and call
// Scheduler::on_topology_change, which makes MipScheduler drop every cached
// trajectory model. The rebuilt models must schedule exactly as a scheduler
// that never cached anything.
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/stream.h"

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

MipSchedulerConfig small_config() {
  MipSchedulerConfig config = make_mip24h_config();
  config.clique_k = 2;
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

TEST(TopologyInvalidation, InvalidationMatchesAScratchBuild) {
  const VbGraph graph = small_graph(288);

  MipScheduler invalidated{small_config()};
  const std::vector<Move> after_fault =
      drive(invalidated, graph, /*invalidate=*/true);
  // The cached models were dropped and rebuilt, not patched.
  EXPECT_GE(invalidated.model_cache_invalidations(), 1);

  MipSchedulerConfig scratch_config = small_config();
  scratch_config.incremental_build = false;
  MipScheduler scratch{scratch_config};
  const std::vector<Move> scratch_moves =
      drive(scratch, graph, /*invalidate=*/true);
  EXPECT_EQ(scratch.model_patch_count(), 0);

  // Move for move: the invalidated scheduler schedules as one that never
  // cached a model.
  ASSERT_EQ(after_fault.size(), scratch_moves.size());
  for (std::size_t i = 0; i < scratch_moves.size(); ++i) {
    EXPECT_EQ(after_fault[i].app_id, scratch_moves[i].app_id);
    EXPECT_EQ(after_fault[i].to_site, scratch_moves[i].to_site);
    EXPECT_EQ(after_fault[i].at_tick, scratch_moves[i].at_tick);
  }
}

TEST(TopologyInvalidation, InjectorEpochBumpsOnLinkFlapAndServerFailure) {
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

  fault::StreamInjector injector{graph, 0, schedule};
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

TEST(TopologyInvalidation, SimulatorsInvalidateWhenTheEpochAdvances) {
  const VbGraph graph = small_graph(192);
  fault::FaultSchedule schedule;
  fault::FaultEvent link;
  link.kind = fault::FaultKind::link_down;
  link.site = 0;
  link.peer = 1;
  link.start = 30;   // after the first replan filled the model cache
  link.end = 40;
  schedule.events.push_back(link);
  fault::StreamInjector injector{graph, 0, schedule};
  FaultConfig faults;
  faults.hooks = &injector;

  const std::vector<workload::Application> apps{app_of(1, 150), app_of(2, 150)};

  // App-level simulator.
  {
    MipScheduler scheduler{small_config()};
    (void)run_simulation(injector.graph(), apps, scheduler, {}, &faults);
    EXPECT_GE(scheduler.model_cache_invalidations(), 1);
  }
  // VM-level simulator (also covers the fail_servers plumbing: the epoch
  // source is shared, only the call site differs).
  {
    fault::StreamInjector vm_injector{graph, 0, schedule};
    MipScheduler scheduler{small_config()};
    VmLevelConfig config;
    config.faults.hooks = &vm_injector;
    (void)run_fleet_simulation(vm_injector.graph(), apps, scheduler, config);
    EXPECT_GE(scheduler.model_cache_invalidations(), 1);
  }
}

}  // namespace
}  // namespace vbatt::core
