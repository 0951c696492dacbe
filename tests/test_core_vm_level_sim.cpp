// Directed behaviour tests for the VM-level engine (run_fleet_simulation
// at its default single shard): placement, eviction, energy and ledger
// accounting at server granularity.
#include "vbatt/core/fleet_sim.h"

#include <gtest/gtest.h>

#include <numeric>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/site.h"

namespace vbatt::core {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

VbGraph small_graph(std::size_t ticks = 96 * 2) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;  // 2,000 cores / 50 servers per site
  return VbGraph{energy::generate_fleet(config, axis15(), ticks),
                 graph_config};
}

std::vector<workload::Application> apps_of(int count, int stable = 6,
                                           int degradable = 3,
                                           util::Tick lifetime = 96) {
  std::vector<workload::Application> apps;
  for (int i = 0; i < count; ++i) {
    workload::Application app;
    app.app_id = i;
    app.arrival = i * 3;
    app.lifetime_ticks = lifetime;
    app.shape = {4, 16.0};
    app.n_stable = stable;
    app.n_degradable = degradable;
    apps.push_back(app);
  }
  return apps;
}

TEST(VmLevelSim, PlacesAllApps) {
  const VbGraph graph = small_graph();
  GreedyScheduler greedy;
  const VmLevelResult r =
      run_fleet_simulation(graph, apps_of(8), greedy);
  EXPECT_EQ(r.base.apps_placed, 8);
  EXPECT_EQ(r.fragmentation_failures, 0);
}

TEST(VmLevelSim, LedgerConservation) {
  const VbGraph graph = small_graph(96 * 3);
  GreedyScheduler greedy;
  const VmLevelResult r =
      run_fleet_simulation(graph, apps_of(25, 8, 4, 96 * 2), greedy);
  double out_total = 0.0;
  double in_total = 0.0;
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    for (const double v : r.base.ledger.out_series(s)) out_total += v;
    for (const double v : r.base.ledger.in_series(s)) in_total += v;
  }
  EXPECT_NEAR(out_total, in_total, 1e-6);
  EXPECT_NEAR(out_total,
              std::accumulate(r.base.moved_gb.begin(),
                              r.base.moved_gb.end(), 0.0),
              1e-6);
}

TEST(VmLevelSim, EnergyCountsOnlyPoweredServers) {
  const VbGraph graph = small_graph();
  GreedyScheduler greedy;
  // A single tiny app: best-fit packs it onto one server, so at most one
  // powered server-tick per tick.
  const VmLevelResult r =
      run_fleet_simulation(graph, apps_of(1, 1, 0), greedy);
  EXPECT_GT(r.base.energy_mwh, 0.0);
  EXPECT_LE(r.powered_server_ticks, static_cast<std::int64_t>(96 * 2));
}

TEST(VmLevelSim, ConsolidationPowersFewerServersThanSpreading) {
  const VbGraph graph = small_graph();
  const auto apps = apps_of(10, 4, 2);
  VmLevelConfig best;
  best.placement = VmLevelConfig::Placement::best_fit;
  VmLevelConfig worst;
  worst.placement = VmLevelConfig::Placement::worst_fit;
  GreedyScheduler g1;
  GreedyScheduler g2;
  const VmLevelResult consolidated =
      run_fleet_simulation(graph, apps, g1, best);
  const VmLevelResult spread =
      run_fleet_simulation(graph, apps, g2, worst);
  EXPECT_LT(consolidated.powered_server_ticks, spread.powered_server_ticks);
  EXPECT_LT(consolidated.base.energy_mwh, spread.base.energy_mwh);
}

TEST(VmLevelSim, PowerDipEvictsIndividualVms) {
  // All-solar fleet, app placed at noon and running through the night:
  // per-VM evictions with nowhere to go -> displaced core-ticks.
  energy::FleetConfig config;
  config.n_solar = 1;
  config.n_wind = 0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  const VbGraph graph{
      energy::generate_fleet(config, axis15(), 96 * 2), graph_config};
  GreedyScheduler greedy;
  std::vector<workload::Application> apps = apps_of(1, 8, 0, 96);
  apps[0].arrival = 48;
  const VmLevelResult r = run_fleet_simulation(graph, apps, greedy);
  EXPECT_GT(r.base.displaced_stable_core_ticks, 0);
}

TEST(VmLevelSim, DegradableVmsPauseAndResume) {
  energy::FleetConfig config;
  config.n_solar = 1;
  config.n_wind = 0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  const VbGraph graph{
      energy::generate_fleet(config, axis15(), 96 * 2), graph_config};
  GreedyScheduler greedy;
  std::vector<workload::Application> apps = apps_of(1, 0, 8, 96);
  apps[0].arrival = 48;  // noon day one, runs to noon day two
  const VmLevelResult r = run_fleet_simulation(graph, apps, greedy);
  EXPECT_GT(r.base.paused_degradable_vm_ticks, 0);  // paused overnight
  EXPECT_EQ(r.base.displaced_stable_core_ticks, 0);
  EXPECT_DOUBLE_EQ(
      std::accumulate(r.base.moved_gb.begin(), r.base.moved_gb.end(), 0.0),
      0.0);  // degradable churn is traffic-free
}

TEST(VmLevelSim, MipSchedulerWorksAtVmGranularity) {
  const VbGraph graph = small_graph(96 * 3);
  MipSchedulerConfig config = make_mip_config();
  config.clique_k = 2;
  MipScheduler scheduler{config};
  const VmLevelResult r = run_fleet_simulation(
      graph, apps_of(12, 8, 4, 96 * 2), scheduler);
  EXPECT_EQ(r.base.apps_placed, 12);
  // Proactive app moves translate into per-VM migrations.
  if (r.base.planned_migrations > 0) {
    EXPECT_GE(r.vm_migrations, r.base.planned_migrations);
  }
}

TEST(VmLevelSim, ParallelRunIsBitIdenticalToSerial) {
  // The pool runs the per-shard phases; every lane writes only its own
  // shard's slots, so the thread count must never change the answer.
  const VbGraph graph = small_graph(96 * 3);
  const auto apps = apps_of(25, 8, 4, 96 * 2);
  GreedyScheduler g1;
  GreedyScheduler g2;
  util::ThreadPool pool{3};
  const VmLevelResult serial = run_fleet_simulation(graph, apps, g1);
  const VmLevelResult parallel =
      run_fleet_simulation(graph, apps, g2, {}, {.pool = &pool});

  EXPECT_EQ(serial.vm_migrations, parallel.vm_migrations);
  EXPECT_EQ(serial.fragmentation_failures, parallel.fragmentation_failures);
  EXPECT_EQ(serial.powered_server_ticks, parallel.powered_server_ticks);
  EXPECT_EQ(serial.base.apps_placed, parallel.base.apps_placed);
  EXPECT_EQ(serial.base.planned_migrations, parallel.base.planned_migrations);
  EXPECT_EQ(serial.base.forced_migrations, parallel.base.forced_migrations);
  EXPECT_EQ(serial.base.displaced_stable_core_ticks,
            parallel.base.displaced_stable_core_ticks);
  EXPECT_EQ(serial.base.paused_degradable_vm_ticks,
            parallel.base.paused_degradable_vm_ticks);
  EXPECT_EQ(serial.base.degradable_active_vm_ticks,
            parallel.base.degradable_active_vm_ticks);
  EXPECT_EQ(serial.base.energy_mwh, parallel.base.energy_mwh);  // bit-equal
  ASSERT_EQ(serial.base.moved_gb.size(), parallel.base.moved_gb.size());
  for (std::size_t i = 0; i < serial.base.moved_gb.size(); ++i) {
    EXPECT_EQ(serial.base.moved_gb[i], parallel.base.moved_gb[i]);
    EXPECT_EQ(serial.base.energy_mwh_per_tick[i],
              parallel.base.energy_mwh_per_tick[i]);
  }
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    EXPECT_EQ(serial.base.ledger.out_series(s), parallel.base.ledger.out_series(s));
    EXPECT_EQ(serial.base.ledger.in_series(s), parallel.base.ledger.in_series(s));
  }
}

TEST(VmLevelSim, AggregateAgreesWithAppLevelSim) {
  // The two simulators model the same system at different granularity:
  // totals should agree within a small factor for a calm scenario.
  const VbGraph graph = small_graph(96 * 3);
  const auto apps = apps_of(20, 6, 3, 96 * 2);
  GreedyScheduler g1;
  GreedyScheduler g2;
  const SimResult app_level = run_simulation(graph, apps, g1);
  const VmLevelResult vm_level = run_fleet_simulation(graph, apps, g2);
  const double a = std::accumulate(app_level.moved_gb.begin(),
                                   app_level.moved_gb.end(), 0.0);
  const double b = std::accumulate(vm_level.base.moved_gb.begin(),
                                   vm_level.base.moved_gb.end(), 0.0);
  if (a > 0.0 || b > 0.0) {
    EXPECT_LT(std::abs(a - b), std::max(a, b) * 0.9 + 1000.0);
  }
  EXPECT_EQ(app_level.apps_placed, vm_level.base.apps_placed);
}

}  // namespace
}  // namespace vbatt::core
