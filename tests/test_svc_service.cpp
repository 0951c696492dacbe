#include "vbatt/svc/service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "vbatt/core/simulation.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/scenario.h"

namespace vbatt::svc {
namespace {

ScenarioConfig tiny_scenario() {
  ScenarioConfig config;
  config.days = 1;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 800.0;
  config.apps_per_hour = 1.5;
  return config;
}

ServiceConfig greedy_config() {
  ServiceConfig config;
  config.policy = "greedy";
  return config;
}

Event tick_event() {
  Event e;
  e.kind = EventKind::tick_advance;
  return e;
}

TEST(SvcService, StreamedScenarioMatchesBatchEngine) {
  const Scenario scenario = make_scenario(tiny_scenario());
  const ServiceConfig config = greedy_config();

  ControlPlane service{scenario.graph, config};
  for (Event& e : scenario_events(scenario)) service.submit(std::move(e));
  const core::SimResult streamed = service.finish();

  const core::SimResult batch = run_batch_engine(scenario, config);

  EXPECT_EQ(result_fingerprint(streamed), result_fingerprint(batch));
  EXPECT_GT(streamed.apps_placed, 0);
  EXPECT_EQ(streamed.completed_ticks,
            static_cast<std::int64_t>(scenario.graph.n_ticks()));
}

TEST(SvcService, SequenceNumbersAreDenseAndOrdered) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};
  std::uint64_t expect = 0;
  for (Event& e : scenario_events(scenario)) {
    EXPECT_EQ(service.submit(std::move(e)), ++expect);
  }
  EXPECT_EQ(service.last_seq(), expect);
  EXPECT_EQ(service.applied_events(), expect);
}

TEST(SvcService, PauseFreezesTheClock) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};

  Event pause;
  pause.kind = EventKind::pause;
  service.submit(pause);
  EXPECT_TRUE(service.paused());
  // tick_advance is rejected while paused; time must not move.
  EXPECT_THROW(service.submit(tick_event()), std::runtime_error);
  EXPECT_EQ(service.now(), -1);

  Event resume;
  resume.kind = EventKind::resume;
  service.submit(resume);
  EXPECT_FALSE(service.paused());
  service.submit(tick_event());
  EXPECT_EQ(service.now(), 0);
}

TEST(SvcService, RejectedEventsMutateNothing) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};
  const std::uint64_t seq0 = service.last_seq();

  Event bad_arrival;
  bad_arrival.kind = EventKind::vm_arrival;
  bad_arrival.app.app_id = 1;
  bad_arrival.app.shape.cores = 0;  // zero-core VMs are meaningless
  bad_arrival.app.n_stable = 1;
  EXPECT_THROW(service.submit(bad_arrival), std::runtime_error);

  Event stale_fault;
  stale_fault.kind = EventKind::fault_report;
  stale_fault.fault = {fault::FaultKind::site_blackout, -3, 4, 0, 0, 0, 0, 0};
  EXPECT_THROW(service.submit(stale_fault), std::runtime_error);

  Event bad_site;
  bad_site.kind = EventKind::drain_site;
  bad_site.site = 99;
  EXPECT_THROW(service.submit(bad_site), std::runtime_error);

  EXPECT_EQ(service.last_seq(), seq0);
  EXPECT_EQ(service.status().pending_arrivals, 0u);
  EXPECT_EQ(service.status().accepted_faults, 0u);
}

TEST(SvcService, DrainShowsUpInStatusAndEvictsResidents) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};

  Event drain;
  drain.kind = EventKind::drain_site;
  drain.site = 0;
  service.submit(drain);
  EXPECT_EQ(service.status().sites_draining, 1u);
  EXPECT_TRUE(service.injector().is_draining(0));
  // Drain is graceful: no fault mask, no epoch bump.
  EXPECT_EQ(service.status().topology_epoch, 0u);

  Event undrain;
  undrain.kind = EventKind::undrain_site;
  undrain.site = 0;
  service.submit(undrain);
  EXPECT_EQ(service.status().sites_draining, 0u);
}

TEST(SvcService, HeartbeatSilenceKillsAndRecoversSites) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ServiceConfig config = greedy_config();
  config.health.enabled = true;
  config.health.suspect_after = 2;
  config.health.dead_after = 4;
  config.health.recovering_ticks = 2;
  ControlPlane service{scenario.graph, config};

  const auto beat_all_but = [&](std::size_t silent) {
    for (std::size_t s = 0; s < service.n_sites(); ++s) {
      if (s == silent) continue;
      Event beat;
      beat.kind = EventKind::heartbeat;
      beat.site = s;
      service.submit(beat);
    }
  };

  // Site 0 never beats: Alive -> Suspect -> Dead, which must surface as an
  // admin_down (epoch bump + down mask) on the tick after death.
  for (int t = 0; t < 8; ++t) {
    beat_all_but(0);
    service.submit(tick_event());
  }
  EXPECT_EQ(service.health().state(0), SiteHealth::dead);
  EXPECT_EQ(service.status().sites_dead, 1u);
  EXPECT_TRUE(service.injector().admin_is_down(0));
  EXPECT_GT(service.status().topology_epoch, 0u);

  // Sustained beats resurrect it.
  const std::uint64_t epoch_dead = service.status().topology_epoch;
  for (int t = 0; t < 4; ++t) {
    beat_all_but(service.n_sites());  // everyone beats
    service.submit(tick_event());
  }
  EXPECT_EQ(service.health().state(0), SiteHealth::alive);
  EXPECT_FALSE(service.injector().admin_is_down(0));
  EXPECT_GT(service.status().topology_epoch, epoch_dead);
}

TEST(SvcService, ReconfigureValidatesAndNamesFields) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};

  Event reconf;
  reconf.kind = EventKind::reconfigure;
  reconf.text = "health.enabled=1;health.suspect_after=6;health.dead_after=9";
  service.submit(reconf);
  EXPECT_TRUE(service.config().health.enabled);
  EXPECT_EQ(service.config().health.suspect_after, 6);
  EXPECT_EQ(service.config().health.dead_after, 9);

  // dead_after must exceed suspect_after; the error names the field and the
  // staged config is discarded wholesale.
  reconf.text = "health.dead_after=3";
  try {
    service.submit(reconf);
    FAIL() << "invalid reconfigure accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("health.dead_after"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.config().health.dead_after, 9);

  // Non-reconfigurable fields are rejected by name.
  reconf.text = "policy=mip";
  try {
    service.submit(reconf);
    FAIL() << "policy reconfigure accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("policy"), std::string::npos);
  }
}

TEST(SvcService, ConstructionRejectsInvalidConfigByName) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ServiceConfig config = greedy_config();
  config.policy = "quantum";
  try {
    ControlPlane service{scenario.graph, config};
    FAIL() << "bogus policy accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("policy"), std::string::npos)
        << e.what();
  }

  config = greedy_config();
  config.health.enabled = true;
  config.health.suspect_after = 8;
  config.health.dead_after = 8;  // must be strictly greater
  EXPECT_THROW((ControlPlane{scenario.graph, config}), std::runtime_error);
}

TEST(SvcService, FinishIsTerminal) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane service{scenario.graph, greedy_config()};
  service.submit(tick_event());
  (void)service.finish();
  EXPECT_THROW(service.submit(tick_event()), std::runtime_error);
}

}  // namespace
}  // namespace vbatt::svc
