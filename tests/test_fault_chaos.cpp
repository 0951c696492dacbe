// End-to-end chaos: seeded fault schedules driven through both simulators.
// The contracts under test: an empty schedule reproduces the no-fault run
// field for field, seeded chaos is deterministic and thread-count
// invariant, invariants hold on every tick, and a crippled MIP solver
// degrades through its fallback ladder instead of failing.
#include <gtest/gtest.h>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/stream.h"

namespace vbatt::fault {
namespace {

core::VbGraph small_graph(std::size_t ticks = 96 * 2) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return core::VbGraph{
      energy::generate_fleet(config, util::TimeAxis{15}, ticks),
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

void expect_same_sim(const core::SimResult& a, const core::SimResult& b) {
  EXPECT_EQ(a.apps_placed, b.apps_placed);
  EXPECT_EQ(a.planned_migrations, b.planned_migrations);
  EXPECT_EQ(a.forced_migrations, b.forced_migrations);
  EXPECT_EQ(a.displaced_stable_core_ticks, b.displaced_stable_core_ticks);
  EXPECT_EQ(a.paused_degradable_vm_ticks, b.paused_degradable_vm_ticks);
  EXPECT_EQ(a.degradable_active_vm_ticks, b.degradable_active_vm_ticks);
  EXPECT_EQ(a.energy_mwh, b.energy_mwh);  // bitwise, not approximate
  EXPECT_EQ(a.moved_gb, b.moved_gb);
  EXPECT_EQ(a.energy_mwh_per_tick, b.energy_mwh_per_tick);
  EXPECT_EQ(a.displaced_by_app, b.displaced_by_app);
  EXPECT_EQ(a.displaced_stable_cores_per_tick,
            b.displaced_stable_cores_per_tick);
  EXPECT_EQ(a.retried_moves, b.retried_moves);
  EXPECT_EQ(a.abandoned_moves, b.abandoned_moves);
  EXPECT_EQ(a.faulted_site_ticks, b.faulted_site_ticks);
  EXPECT_EQ(a.stable_vm_downtime_ticks, b.stable_vm_downtime_ticks);
}

void expect_same_vm(const core::VmLevelResult& a,
                    const core::VmLevelResult& b) {
  expect_same_sim(a.base, b.base);
  EXPECT_EQ(a.vm_migrations, b.vm_migrations);
  EXPECT_EQ(a.fragmentation_failures, b.fragmentation_failures);
  EXPECT_EQ(a.powered_server_ticks, b.powered_server_ticks);
}

TEST(FaultChaos, EmptyScheduleMatchesNoFaultRunGreedy) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(12);

  core::GreedyScheduler plain_sched;
  const core::SimResult plain = run_simulation(graph, apps, plain_sched);

  StreamInjector injector{graph, 0, FaultSchedule{}};
  core::FaultConfig faults;
  faults.hooks = &injector;
  core::GreedyScheduler hooked_sched;
  const core::SimResult hooked =
      run_simulation(injector.graph(), apps, hooked_sched, {}, &faults);
  expect_same_sim(plain, hooked);

  core::GreedyScheduler vm_plain;
  const core::VmLevelResult vp =
      run_fleet_simulation(graph, apps, vm_plain);
  core::GreedyScheduler vm_hooked;
  core::VmLevelConfig vm_config;
  vm_config.faults.hooks = &injector;
  const core::VmLevelResult vh =
      run_fleet_simulation(injector.graph(), apps, vm_hooked, vm_config);
  expect_same_vm(vp, vh);
}

TEST(FaultChaos, EmptyScheduleMatchesNoFaultRunMip) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(10);

  core::MipScheduler plain_sched{core::make_mip_config()};
  const core::SimResult plain = run_simulation(graph, apps, plain_sched);

  StreamInjector injector{graph, 0, FaultSchedule{}};
  core::FaultConfig faults;
  faults.hooks = &injector;
  core::MipScheduler hooked_sched{core::make_mip_config()};
  const core::SimResult hooked =
      run_simulation(injector.graph(), apps, hooked_sched, {}, &faults);
  expect_same_sim(plain, hooked);
}

TEST(FaultChaos, ChaosRunIsDeterministic) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(15);
  ChaosConfig chaos;
  chaos.intensity = 2.0;
  const FaultSchedule schedule = make_chaos_schedule(graph, chaos, 11);
  ASSERT_FALSE(schedule.empty());

  const auto run = [&] {
    StreamInjector injector{graph, 11, schedule};
    core::GreedyScheduler sched;
    core::VmLevelConfig config;
    config.faults.hooks = &injector;
    return run_fleet_simulation(injector.graph(), apps, sched, config);
  };

  const core::VmLevelResult a = run();
  const core::VmLevelResult b = run();  // repeat, same seed
  expect_same_vm(a, b);
  // Chaos at this intensity must actually bite.
  EXPECT_GT(a.base.faulted_site_ticks, 0);
}

TEST(FaultChaos, InvariantsHoldOnEveryTick) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(15);
  ChaosConfig chaos;
  chaos.intensity = 2.0;
  StreamInjector injector{graph, 3, make_chaos_schedule(graph, chaos, 3)};
  core::GreedyScheduler sched;
  core::VmLevelConfig config;
  config.faults.hooks = &injector;
  const core::VmLevelResult r =
      run_fleet_simulation(injector.graph(), apps, sched, config);
  EXPECT_EQ(injector.checked_ticks(),
            static_cast<std::int64_t>(graph.n_ticks()));
  EXPECT_EQ(r.base.fallback_activations, 0);  // greedy has no ladder
}

TEST(FaultChaos, AppLevelChaosRunsAndCounts) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(15);
  ChaosConfig chaos;
  chaos.intensity = 2.0;
  StreamInjector injector{graph, 5, make_chaos_schedule(graph, chaos, 5)};
  core::FaultConfig faults;
  faults.hooks = &injector;
  core::MipScheduler sched{core::make_mip24h_config()};
  const core::SimResult r =
      run_simulation(injector.graph(), apps, sched, {}, &faults);
  EXPECT_GT(r.faulted_site_ticks, 0);
  EXPECT_EQ(injector.checked_ticks(),
            static_cast<std::int64_t>(graph.n_ticks()));
}

TEST(FaultChaos, CrippledMipSolverFallsBackNeverFatal) {
  const core::VbGraph graph = small_graph();
  const auto apps = apps_of(10);
  core::MipSchedulerConfig config = core::make_mip24h_config();
  config.mip.max_nodes = 0;  // every solve fails: forces the whole ladder
  core::MipScheduler sched{config};
  const core::SimResult r = run_simulation(graph, apps, sched);
  EXPECT_EQ(r.apps_placed, 10);  // greedy fallback placed everything
  EXPECT_GT(r.fallback_activations, 0);
  EXPECT_EQ(r.fallback_activations, sched.fallback_count());
}

}  // namespace
}  // namespace vbatt::fault
