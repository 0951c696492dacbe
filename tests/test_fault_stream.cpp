#include "vbatt/fault/stream.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "vbatt/energy/site.h"
#include "vbatt/testkit/ref_fault_injector.h"
#include "vbatt/util/wire.h"

namespace vbatt::fault {
namespace {

core::VbGraph small_graph(std::size_t ticks = 96) {
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

/// Equality of the full baked surface: series bit for bit, then every
/// hook output over the whole horizon.
void expect_parity(StreamInjector& stream, testkit::RefFaultInjector& batch,
                   std::size_t n_ticks) {
  const core::VbGraph& a = stream.graph();
  const core::VbGraph& b = batch.graph();
  ASSERT_EQ(a.n_sites(), b.n_sites());
  for (std::size_t s = 0; s < a.n_sites(); ++s) {
    EXPECT_EQ(a.sites()[s].power_norm, b.sites()[s].power_norm)
        << "site " << s << " power series diverges";
    EXPECT_EQ(a.sites()[s].forecast_norm, b.sites()[s].forecast_norm)
        << "site " << s << " forecast series diverges";
  }
  for (util::Tick t = 0; t < static_cast<util::Tick>(n_ticks); ++t) {
    stream.begin_tick(t);
    batch.begin_tick(t);
    EXPECT_EQ(stream.topology_epoch(), batch.topology_epoch())
        << "epoch at tick " << t;
    for (std::size_t s = 0; s < a.n_sites(); ++s) {
      EXPECT_EQ(stream.site_down(s, t), batch.site_down(s, t))
          << "site " << s << " tick " << t;
      EXPECT_EQ(stream.site_degraded(s, t), batch.site_degraded(s, t))
          << "site " << s << " tick " << t;
    }
    const auto oa = stream.server_outages_at(t);
    const auto ob = batch.server_outages_at(t);
    ASSERT_EQ(oa.size(), ob.size()) << "outages at tick " << t;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].site, ob[i].site);
      EXPECT_EQ(oa[i].count, ob[i].count);
      EXPECT_EQ(oa[i].repair_tick, ob[i].repair_tick);
    }
  }
}

FaultSchedule one_of_each() {
  FaultSchedule schedule;
  schedule.events.push_back(
      {FaultKind::site_blackout, 10, 20, 0, 0, 0.0, 0.0, 0});
  schedule.events.push_back(
      {FaultKind::site_brownout, 5, 40, 1, 0, 0.6, 0.0, 0});
  schedule.events.push_back(
      {FaultKind::forecast_error, 8, 30, 2, 0, 0.3, 0.15, 0});
  schedule.events.push_back({FaultKind::link_down, 12, 24, 0, 1, 0.0, 0.0, 0});
  schedule.events.push_back(
      {FaultKind::server_failure, 16, 48, 3, 0, 0.0, 0.0, 3});
  return schedule;
}

/// The schedule constructor and per-event inject() before tick 0 must both
/// match the frozen oracle.
void expect_parity_both_ways(const core::VbGraph& graph,
                             const FaultSchedule& schedule,
                             std::uint64_t noise_seed) {
  {
    testkit::RefFaultInjector batch{graph, schedule, noise_seed};
    StreamInjector stream{graph, noise_seed, schedule};
    EXPECT_EQ(stream.accepted_events(), schedule.events.size());
    expect_parity(stream, batch, graph.n_ticks());
  }
  {
    testkit::RefFaultInjector batch{graph, schedule, noise_seed};
    StreamInjector stream{graph, noise_seed};
    for (const FaultEvent& e : schedule.events) stream.inject(e, -1);
    expect_parity(stream, batch, graph.n_ticks());
  }
}

TEST(FaultStream, OneOfEachKindMatchesOracle) {
  const core::VbGraph graph = small_graph();
  const FaultSchedule schedule = one_of_each();
  schedule.validate(graph.n_sites(), graph.n_ticks());
  // Forecast noise draws from per-event child streams of the same seed, so
  // parity must hold including the noisy forecast series.
  expect_parity_both_ways(graph, schedule, /*noise_seed=*/99);
}

TEST(FaultStream, ChaosScheduleMatchesOracle) {
  const core::VbGraph graph = small_graph();
  ChaosConfig config;
  config.intensity = 2.5;
  const FaultSchedule schedule = make_chaos_schedule(graph, config, 11);
  ASSERT_FALSE(schedule.empty());
  expect_parity_both_ways(graph, schedule, /*noise_seed=*/7);
}

TEST(FaultStream, RejectsEventsThatRewriteHistory) {
  const core::VbGraph graph = small_graph();
  StreamInjector stream{graph, 0};
  FaultEvent e{FaultKind::site_blackout, 5, 10, 0, 0, 0.0, 0.0, 0};
  // now = 5: the event would change the tick being/already simulated.
  EXPECT_THROW(stream.inject(e, 5), std::runtime_error);
  EXPECT_THROW(stream.inject(e, 7), std::runtime_error);
  stream.inject(e, 4);  // strictly in the future: fine
  EXPECT_EQ(stream.accepted_events(), 1u);
}

TEST(FaultStream, RejectsMalformedEvents) {
  const core::VbGraph graph = small_graph();
  StreamInjector stream{graph, 0};
  FaultEvent bad_site{FaultKind::site_blackout, 5, 10, 99, 0, 0.0, 0.0, 0};
  EXPECT_THROW(stream.inject(bad_site, -1), std::runtime_error);
  FaultEvent bad_window{FaultKind::site_blackout, 10, 10, 0, 0, 0.0, 0.0, 0};
  EXPECT_THROW(stream.inject(bad_window, -1), std::runtime_error);
  EXPECT_EQ(stream.accepted_events(), 0u);
}

TEST(FaultStream, AdminDownZeroesPowerAndBumpsEpoch) {
  const core::VbGraph graph = small_graph();
  StreamInjector stream{graph, 0};
  const std::uint64_t epoch0 = stream.topology_epoch();

  stream.admin_down(0, 10);
  EXPECT_TRUE(stream.admin_is_down(0));
  for (util::Tick t = 10; t < 20; ++t) {
    EXPECT_EQ(stream.graph().sites()[0].power_norm[static_cast<std::size_t>(t)],
              0.0);
    EXPECT_TRUE(stream.site_down(0, t));
    EXPECT_TRUE(stream.site_degraded(0, t));
  }
  EXPECT_FALSE(stream.site_down(0, 9));
  // Epoch bumps land when the window's start tick begins, not at accept.
  for (util::Tick t = 0; t <= 10; ++t) stream.begin_tick(t);
  EXPECT_GT(stream.topology_epoch(), epoch0);

  stream.admin_up(0, 30);
  EXPECT_FALSE(stream.admin_is_down(0));
  EXPECT_TRUE(stream.site_down(0, 29));
  EXPECT_FALSE(stream.site_down(0, 30));
  // Power restored to the pristine baseline after the window.
  EXPECT_EQ(stream.graph().sites()[0].power_norm[40],
            graph.sites()[0].power_norm[40]);
}

TEST(FaultStream, DrainZeroesPowerWithoutFaultMasks) {
  const core::VbGraph graph = small_graph();
  StreamInjector stream{graph, 0};
  const std::uint64_t epoch0 = stream.topology_epoch();

  stream.drain(1, 10);
  EXPECT_TRUE(stream.is_draining(1));
  EXPECT_EQ(stream.graph().sites()[1].power_norm[15], 0.0);
  // A drain is administrative, not a fault: no down/degraded, no epoch bump.
  EXPECT_FALSE(stream.site_down(1, 15));
  EXPECT_FALSE(stream.site_degraded(1, 15));
  EXPECT_EQ(stream.topology_epoch(), epoch0);

  stream.undrain(1, 20);
  EXPECT_FALSE(stream.is_draining(1));
  EXPECT_EQ(stream.graph().sites()[1].power_norm[25],
            graph.sites()[1].power_norm[25]);
}

TEST(FaultStream, TelemetryOverridesBaselineFromTickOnward) {
  const core::VbGraph graph = small_graph();
  StreamInjector stream{graph, 0};
  const std::vector<double> plateau(8, 0.5);
  stream.set_power(0, 10, plateau, /*now=*/4);
  for (std::size_t t = 10; t < 18; ++t) {
    EXPECT_EQ(stream.graph().sites()[0].power_norm[t], 0.5) << "tick " << t;
  }
  EXPECT_EQ(stream.graph().sites()[0].power_norm[9],
            graph.sites()[0].power_norm[9]);
  // History is immutable for telemetry too.
  EXPECT_THROW(stream.set_power(0, 3, plateau, 4), std::runtime_error);
}

TEST(FaultStream, SaveRestoreReproducesBakedStateExactly) {
  const core::VbGraph graph = small_graph();
  ChaosConfig config;
  config.intensity = 2.0;
  const FaultSchedule schedule = make_chaos_schedule(graph, config, 3);
  ASSERT_FALSE(schedule.empty());

  StreamInjector a{graph, 5, schedule};
  a.admin_down(0, 4);
  a.drain(1, 6);
  a.set_power(2, 8, {0.1, 0.2, 0.3}, 2);

  util::wire::Writer wa;
  a.save(wa);
  StreamInjector b{graph, 5};
  util::wire::Reader r{wa.data()};
  b.restore(r);
  EXPECT_TRUE(r.done());

  // Same serialized state, and the re-baked graph is bit-identical.
  util::wire::Writer wb;
  b.save(wb);
  EXPECT_EQ(wa.data(), wb.data());
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    EXPECT_EQ(a.graph().sites()[s].power_norm, b.graph().sites()[s].power_norm);
    EXPECT_EQ(a.graph().sites()[s].forecast_norm,
              b.graph().sites()[s].forecast_norm);
  }
  EXPECT_EQ(a.topology_epoch(), b.topology_epoch());
}

}  // namespace
}  // namespace vbatt::fault
