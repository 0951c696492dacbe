// The schedule constructor of StreamInjector: each fault kind baked from a
// whole FaultSchedule, plus the InvariantChecker laws it enforces per tick.
#include "vbatt/fault/stream.h"

#include <gtest/gtest.h>

#include "vbatt/energy/site.h"

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

FaultEvent event(FaultKind kind, std::size_t site, util::Tick start,
                 util::Tick end) {
  FaultEvent e;
  e.kind = kind;
  e.site = site;
  e.start = start;
  e.end = end;
  return e;
}

TEST(StreamInjectorSchedule, BlackoutZerosPowerOnlyInWindow) {
  const core::VbGraph graph = small_graph();
  FaultSchedule s;
  s.events.push_back(event(FaultKind::site_blackout, 1, 40, 48));
  const StreamInjector injector{graph, 0, s};

  for (util::Tick t = 40; t < 48; ++t) {
    EXPECT_EQ(injector.graph().available_cores(1, t), 0) << t;
    EXPECT_TRUE(injector.site_down(1, t));
    EXPECT_TRUE(injector.site_degraded(1, t));
  }
  EXPECT_FALSE(injector.site_down(1, 39));
  EXPECT_FALSE(injector.site_down(1, 48));
  EXPECT_FALSE(injector.site_down(0, 44));
  // Other sites and other ticks untouched.
  for (util::Tick t = 0; t < 40; ++t) {
    EXPECT_EQ(injector.graph().available_cores(1, t),
              graph.available_cores(1, t));
  }
  for (util::Tick t = 0; t < 96; ++t) {
    EXPECT_EQ(injector.graph().available_cores(0, t),
              graph.available_cores(0, t));
  }
}

TEST(StreamInjectorSchedule, BrownoutDeratesPower) {
  const core::VbGraph graph = small_graph();
  FaultSchedule s;
  FaultEvent e = event(FaultKind::site_brownout, 0, 30, 50);
  e.alpha = 0.5;
  s.events.push_back(e);
  const StreamInjector injector{graph, 0, s};
  for (util::Tick t = 30; t < 50; ++t) {
    EXPECT_NEAR(
        injector.graph().site(0).power_norm[static_cast<std::size_t>(t)],
        0.5 * graph.site(0).power_norm[static_cast<std::size_t>(t)], 1e-12);
    EXPECT_FALSE(injector.site_down(0, t));  // derated, not dead
    EXPECT_TRUE(injector.site_degraded(0, t));
  }
}

TEST(StreamInjectorSchedule, ForecastErrorLeavesActualsAlone) {
  const core::VbGraph graph = small_graph();
  FaultSchedule s;
  FaultEvent e = event(FaultKind::forecast_error, 2, 0, 96);
  e.alpha = 0.4;
  e.sigma = 0.05;
  s.events.push_back(e);
  const StreamInjector injector{graph, /*noise_seed=*/9, s};

  // Actual power identical; at least one forecast entry must differ.
  bool forecast_changed = false;
  for (util::Tick t = 0; t < 96; ++t) {
    EXPECT_EQ(injector.graph().available_cores(2, t),
              graph.available_cores(2, t));
  }
  const auto& faulted = injector.graph().forecast_norm(2);
  const auto& clean = graph.forecast_norm(2);
  for (std::size_t lead = 0; lead < clean.size(); ++lead) {
    for (std::size_t t = 0; t < clean[lead].size(); ++t) {
      if (faulted[lead][t] != clean[lead][t]) forecast_changed = true;
    }
  }
  EXPECT_TRUE(forecast_changed);
  EXPECT_FALSE(injector.site_degraded(2, 10));  // forecasts lie silently

  // Same seed, same corruption.
  const StreamInjector again{graph, 9, s};
  EXPECT_EQ(again.graph().forecast_norm(2), faulted);
}

TEST(StreamInjectorSchedule, LinkFlapSeversAndRestores) {
  const core::VbGraph graph = small_graph();
  // Find a connected pair.
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i < graph.n_sites() && b == 0; ++i) {
    for (std::size_t j = i + 1; j < graph.n_sites(); ++j) {
      if (graph.latency().connected(i, j)) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_NE(a, b) << "test fleet has no connected pair";

  FaultSchedule s;
  FaultEvent e = event(FaultKind::link_down, a, 10, 20);
  e.peer = b;
  s.events.push_back(e);
  StreamInjector injector{graph, 0, s};

  injector.begin_tick(9);
  EXPECT_TRUE(injector.graph().latency().connected(a, b));
  injector.begin_tick(10);
  EXPECT_FALSE(injector.graph().latency().connected(a, b));
  EXPECT_TRUE(injector.graph().latency().link_exists(a, b));
  for (util::Tick t = 11; t < 20; ++t) injector.begin_tick(t);
  EXPECT_FALSE(injector.graph().latency().connected(a, b));
  injector.begin_tick(20);
  EXPECT_TRUE(injector.graph().latency().connected(a, b));
}

TEST(StreamInjectorSchedule, ServerOutagesDeliveredAtStart) {
  const core::VbGraph graph = small_graph();
  FaultSchedule s;
  FaultEvent e = event(FaultKind::server_failure, 3, 12, 60);
  e.count = 4;
  s.events.push_back(e);
  StreamInjector injector{graph, 0, s};

  EXPECT_TRUE(injector.server_outages_at(11).empty());
  const auto at12 = injector.server_outages_at(12);
  ASSERT_EQ(at12.size(), 1u);
  EXPECT_EQ(at12[0].site, 3u);
  EXPECT_EQ(at12[0].count, 4);
  EXPECT_EQ(at12[0].repair_tick, 60);
  EXPECT_TRUE(injector.site_degraded(3, 30));
  EXPECT_FALSE(injector.site_down(3, 30));
}

TEST(StreamInjectorSchedule, RejectsInvalidSchedule) {
  const core::VbGraph graph = small_graph();
  FaultSchedule s;
  s.events.push_back(event(FaultKind::site_blackout, 99, 0, 4));
  EXPECT_THROW((StreamInjector{graph, 0, s}), std::runtime_error);
}

TEST(InvariantChecker, PassesConsistentTickAndCountsIt) {
  InvariantChecker checker;
  core::TickSnapshot snap;
  const std::vector<int> avail{100, 0};
  const std::vector<int> stable{60, 0};
  const std::vector<int> degradable{20, 0};
  snap.t = 5;
  snap.available = &avail;
  snap.stable_cores = &stable;
  snap.degradable_cores = &degradable;
  snap.displaced_stable_cores = 0;
  checker.check(snap, {0, 1});
  EXPECT_EQ(checker.checked_ticks(), 1);
}

TEST(InvariantChecker, ThrowsNamingTheViolatedLaw) {
  InvariantChecker checker;
  core::TickSnapshot snap;
  std::vector<int> avail{0};
  std::vector<int> stable{40};
  std::vector<int> degradable{0};
  snap.t = 7;
  snap.available = &avail;
  snap.stable_cores = &stable;
  snap.degradable_cores = &degradable;
  snap.displaced_stable_cores = 0;  // 40 cores running on 0 power, unbooked
  try {
    checker.check(snap, {0});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("displaced"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("tick 7"), std::string::npos);
  }

  // Degradable VMs alive on a blacked-out site.
  degradable[0] = 8;
  stable[0] = 0;
  snap.displaced_stable_cores = 100;
  try {
    checker.check(snap, {1});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("blacked-out"), std::string::npos);
  }
  EXPECT_EQ(checker.checked_ticks(), 0);
}

}  // namespace
}  // namespace vbatt::fault
