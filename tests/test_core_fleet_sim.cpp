// Directed differentials for the fleet engine: it must reproduce the frozen
// oracle (testkit::reference_vm_run) bit for bit, fault counters included. The
// random-scenario versions of these checks live in the testkit "sim" and
// "fleet" suites; these pin the small deterministic cases.
#include "vbatt/core/fleet_sim.h"

#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/stream.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/testkit/generators.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/signal.h"

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

/// Runs the oracle and the fleet engine on the same scenario and expects
/// bit-identity.
void expect_engines_agree(const VbGraph& graph,
                          const std::vector<workload::Application>& apps,
                          const VmLevelConfig& config = {}) {
  GreedyScheduler reference_sched;
  const VmLevelResult reference =
      testkit::reference_vm_run(graph, apps, reference_sched, config);
  GreedyScheduler sched;
  const VmLevelResult fleet = run_fleet_simulation(graph, apps, sched, config);
  EXPECT_EQ("", testkit::diff_vm_results(reference, fleet, graph.n_sites()));
}

TEST(FleetSim, MatchesOracleGreedy) {
  expect_engines_agree(small_graph(), apps_of(12));
}

TEST(FleetSim, MatchesOracleUnderPressure) {
  // Oversubscribed fleet: displacement, pausing, and re-home rotation all
  // fire, so the whole coordinator path is exercised.
  expect_engines_agree(small_graph(96 * 3), apps_of(40, 10, 6, 96 * 2));
}

TEST(FleetSim, MatchesOracleAllPlacements) {
  for (const auto placement : {dcsim::BlockPolicy::best_fit,
                               dcsim::BlockPolicy::first_fit,
                               dcsim::BlockPolicy::worst_fit}) {
    VmLevelConfig config;
    config.placement = placement;
    expect_engines_agree(small_graph(), apps_of(15, 6, 4), config);
  }
}

TEST(FleetSim, MatchesOracleWithMipScheduler) {
  const VbGraph graph = small_graph();
  const auto apps = apps_of(10);
  MipScheduler reference_sched{make_mip24h_config()};
  const VmLevelResult reference =
      testkit::reference_vm_run(graph, apps, reference_sched);
  MipScheduler sched{make_mip24h_config()};
  const VmLevelResult fleet = run_fleet_simulation(graph, apps, sched);
  EXPECT_EQ("", testkit::diff_vm_results(reference, fleet, graph.n_sites()));
}

TEST(FleetSim, MatchesOracleUnderChaos) {
  const VbGraph graph = small_graph(96 * 2);
  const auto apps = apps_of(20, 8, 4);
  fault::ChaosConfig chaos;
  chaos.intensity = 2.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(graph, chaos, /*seed=*/7);

  // The injector is stateful (noise streams, repair bookkeeping): each run
  // gets its own instance seeded identically.
  const auto faulted = [&](auto&& run) {
    fault::StreamInjector injector{graph, /*noise_seed=*/11, schedule};
    VmLevelConfig config;
    config.faults.hooks = &injector;
    return run(injector.graph(), config);
  };
  const VmLevelResult reference =
      faulted([&](const VbGraph& g, const VmLevelConfig& config) {
        GreedyScheduler sched;
        return testkit::reference_vm_run(g, apps, sched, config);
      });
  const VmLevelResult fleet =
      faulted([&](const VbGraph& g, const VmLevelConfig& config) {
        GreedyScheduler sched;
        return run_fleet_simulation(g, apps, sched, config);
      });
  EXPECT_EQ("", testkit::diff_vm_results(reference, fleet, graph.n_sites()));
}

TEST(FleetSim, MatchesOracleOnBlockedMoveRetries) {
  // Two square-wave sites under heavy chaos with the 24h MIP: proactive
  // moves hit downed sites, so the retry/backoff path fires. A generous
  // and a tight retry policy (the latter abandons) must both match the
  // oracle, fault counters included.
  const testkit::Spec spec = testkit::Spec::parse(
      "seed=1589903009166988750;sites=2;wind=0;days=1;peak=1;trace=square;"
      "amp=0;period=1;aph100=54;maxvms=4;deg100=0;life=5;i100=282");
  const testkit::Scenario sc = testkit::make_scenario(spec);
  fault::ChaosConfig chaos;
  chaos.intensity = 2.82;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, chaos, spec.child_seed("chaos"));
  for (const int max_attempts : {5, 2}) {
    const auto faulted = [&](auto&& run) {
      fault::StreamInjector injector{sc.graph, spec.child_seed("noise"),
                                     schedule};
      VmLevelConfig config;
      config.faults.hooks = &injector;
      config.faults.retry.max_attempts = max_attempts;
      MipScheduler sched{make_mip24h_config()};
      return run(injector.graph(), sched, config);
    };
    const VmLevelResult reference = faulted(
        [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
          return testkit::reference_vm_run(g, sc.apps, sched, config);
        });
    EXPECT_GT(reference.base.retried_moves, 0);
    if (max_attempts == 2) {
      EXPECT_GT(reference.base.abandoned_moves, 0);
    }
    const VmLevelResult fleet = faulted(
        [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
          return run_fleet_simulation(g, sc.apps, sched, config);
        });
    EXPECT_EQ("", testkit::diff_vm_results(reference, fleet,
                                           sc.graph.n_sites()))
        << "max_attempts=" << max_attempts;
  }
}

TEST(FleetSim, ShutdownMetersTheLastCompletedTick) {
  // Requests shutdown from the arrival at tick 30, so the engine stops at
  // the top of tick 31: ticks 0..30 completed, and tick 30's energy must
  // land in its own slot, not in the axis's last one.
  struct StopAtTick30 final : Scheduler {
    GreedyScheduler greedy;
    std::string name() const override { return "StopAtTick30"; }
    Placement place(const workload::Application& app,
                    const FleetState& state) override {
      if (state.now >= 30) util::request_shutdown();
      return greedy.place(app, state);
    }
  };
  const VbGraph graph = small_graph();
  StopAtTick30 sched;
  const VmLevelResult r = run_fleet_simulation(graph, apps_of(12), sched);
  util::reset_shutdown_flag();
  ASSERT_EQ(r.base.completed_ticks, 31);
  const std::vector<double>& energy = r.base.energy_mwh_per_tick;
  EXPECT_GT(energy[30], 0.0);
  for (std::size_t i = 31; i < energy.size(); ++i) {
    EXPECT_EQ(energy[i], 0.0) << "tick " << i;
  }
}

TEST(FleetSim, EmptyWorkload) {
  const VbGraph graph = small_graph();
  GreedyScheduler sched;
  const VmLevelResult r = run_fleet_simulation(graph, {}, sched);
  EXPECT_EQ(r.base.apps_placed, 0);
  EXPECT_EQ(r.powered_server_ticks, 0);
  EXPECT_EQ(r.vm_migrations, 0);
}

TEST(FleetSim, RejectsDuplicateAppIds) {
  const VbGraph graph = small_graph();
  auto apps = apps_of(2);
  apps[1].app_id = apps[0].app_id;
  GreedyScheduler sched;
  EXPECT_THROW((void)run_fleet_simulation(graph, apps, sched),
               std::invalid_argument);
}

}  // namespace
}  // namespace vbatt::core
