// Failure-injection / edge-case tests across the core simulators.
#include <gtest/gtest.h>

#include <numeric>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/replication.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"

namespace vbatt::core {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

VbGraph graph_of(int solar, int wind, std::size_t ticks,
                 double cores_per_mw = 5.0) {
  energy::FleetConfig config;
  config.n_solar = solar;
  config.n_wind = wind;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = cores_per_mw;
  return VbGraph{energy::generate_fleet(config, axis15(), ticks),
                 graph_config};
}

workload::Application app_of(std::int64_t id, util::Tick arrival,
                             util::Tick lifetime, int stable,
                             int degradable) {
  workload::Application app;
  app.app_id = id;
  app.arrival = arrival;
  app.lifetime_ticks = lifetime;
  app.shape = {4, 16.0};
  app.n_stable = stable;
  app.n_degradable = degradable;
  return app;
}

TEST(EdgeCases, SingleSiteFleet) {
  const VbGraph graph = graph_of(0, 1, 96);
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 0, 48, 4, 2)}, greedy);
  EXPECT_EQ(r.apps_placed, 1);
  // With one site there is nowhere to migrate to.
  EXPECT_EQ(r.forced_migrations, 0);
}

TEST(EdgeCases, AppLargerThanAnySite) {
  const VbGraph graph = graph_of(1, 1, 96, 0.05);  // 20-core sites
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 0, 96, 50, 0)}, greedy);
  EXPECT_EQ(r.apps_placed, 1);
  EXPECT_GT(r.displaced_stable_core_ticks, 0);  // can never fully run
}

TEST(EdgeCases, AppArrivingAtLastTick) {
  const VbGraph graph = graph_of(1, 1, 96);
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 95, 1000, 2, 0)}, greedy);
  EXPECT_EQ(r.apps_placed, 1);
}

TEST(EdgeCases, AppArrivingAfterTraceEndIgnored) {
  const VbGraph graph = graph_of(1, 1, 96);
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 500, 10, 2, 0)}, greedy);
  EXPECT_EQ(r.apps_placed, 0);
}

TEST(EdgeCases, ImmortalAppSurvivesWholeRun) {
  const VbGraph graph = graph_of(0, 2, 96 * 2);
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 0, -1, 2, 0)}, greedy);
  EXPECT_EQ(r.apps_placed, 1);
}

TEST(EdgeCases, ZeroVmAppIsHarmless) {
  const VbGraph graph = graph_of(1, 1, 96);
  GreedyScheduler greedy;
  workload::Application empty = app_of(0, 0, 48, 0, 0);
  const SimResult r = run_simulation(graph, {empty}, greedy);
  EXPECT_EQ(r.apps_placed, 1);
  EXPECT_DOUBLE_EQ(
      std::accumulate(r.moved_gb.begin(), r.moved_gb.end(), 0.0), 0.0);
}

TEST(EdgeCases, MipSchedulerOnAllDarkFleet) {
  // Solar-only fleet queried at midnight: every forecastable capacity is
  // zero; scheduling must still terminate and place somewhere.
  const VbGraph graph = graph_of(2, 0, 96);
  MipSchedulerConfig config = make_mip_config();
  config.clique_k = 2;
  MipScheduler scheduler{config};
  const SimResult r =
      run_simulation(graph, {app_of(0, 0, 96, 2, 0)}, scheduler);
  EXPECT_EQ(r.apps_placed, 1);
}

TEST(EdgeCases, ManySimultaneousArrivals) {
  const VbGraph graph = graph_of(1, 2, 96);
  std::vector<workload::Application> burst;
  for (int i = 0; i < 40; ++i) burst.push_back(app_of(i, 10, 48, 2, 1));
  GreedyScheduler greedy;
  const SimResult r = run_simulation(graph, burst, greedy);
  EXPECT_EQ(r.apps_placed, 40);
}

TEST(EdgeCases, VmLevelHandlesFragmentationGracefully) {
  // Sites with 8-core servers and 6-core VMs: heavy fragmentation.
  const VbGraph graph = graph_of(0, 1, 96, 0.5);  // 200 cores
  VmLevelConfig config;
  config.server = {8, 32.0};
  GreedyScheduler greedy;
  std::vector<workload::Application> apps;
  for (int i = 0; i < 20; ++i) {
    workload::Application app = app_of(i, 0, 96, 2, 0);
    app.shape = {6, 24.0};
    apps.push_back(app);
  }
  const VmLevelResult r =
      run_fleet_simulation(graph, apps, greedy, config);
  EXPECT_EQ(r.base.apps_placed, 20);
  // 200/8 = 25 servers x 1 VM each max -> 40 VMs cannot all fit.
  EXPECT_GT(r.fragmentation_failures + r.base.displaced_stable_core_ticks,
            0);
}

TEST(EdgeCases, ReplicationWithoutNeighbors) {
  // Two sites too far apart for the 50 ms threshold: no standby possible;
  // the simulator must still run (no standby, no sync traffic).
  energy::FleetConfig config;
  config.n_solar = 1;
  config.n_wind = 1;
  config.region_km = 30000.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  const VbGraph graph{
      energy::generate_fleet(config, axis15(), 96), graph_config};
  ASSERT_EQ(graph.latency().edge_count(), 0u);
  const SimResult r = run_replication_simulation(
      graph, {app_of(0, 0, 96, 2, 0)}, ReplicationConfig{});
  EXPECT_EQ(r.apps_placed, 1);
  EXPECT_DOUBLE_EQ(
      std::accumulate(r.moved_gb.begin(), r.moved_gb.end(), 0.0), 0.0);
}

TEST(EdgeCases, HarvestMetricCountsActiveDegradable) {
  const VbGraph graph = graph_of(0, 1, 96);
  GreedyScheduler greedy;
  const SimResult r =
      run_simulation(graph, {app_of(0, 0, 96, 0, 4)}, greedy);
  // 4 degradable VMs for ~96 ticks, minus any paused ticks.
  EXPECT_GT(r.degradable_active_vm_ticks, 0);
  EXPECT_LE(r.degradable_active_vm_ticks, 4 * 96);
  // Placed at tick 0 and enforced every tick of the 96-tick trace.
  EXPECT_EQ(r.degradable_active_vm_ticks + r.paused_degradable_vm_ticks,
            4 * 96);
}

}  // namespace
}  // namespace vbatt::core
