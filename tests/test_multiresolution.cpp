// End-to-end at non-default time resolutions: everything in the stack is
// parameterized by TimeAxis; these tests catch hidden 96-ticks-per-day
// assumptions by running whole pipelines at 30- and 60-minute ticks.
#include <gtest/gtest.h>

#include <numeric>

#include "vbatt/core/evaluation.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/dcsim/site_sim.h"
#include "vbatt/energy/aggregate.h"
#include "vbatt/energy/forecast.h"
#include "vbatt/energy/site.h"
#include "vbatt/workload/generator.h"

namespace vbatt {
namespace {

class MultiResolution : public ::testing::TestWithParam<int> {
 protected:
  util::TimeAxis axis() const { return util::TimeAxis{GetParam()}; }
  std::size_t day() const {
    return static_cast<std::size_t>(axis().ticks_per_day());
  }
};

TEST_P(MultiResolution, SolarStillDiurnal) {
  energy::SolarConfig config;
  const auto trace = energy::SolarModel{config}.generate(axis(), day() * 5);
  // Zero at 2am, positive around noon on at least one day.
  const auto two_am = static_cast<std::size_t>(axis().from_hours(2.0));
  EXPECT_DOUBLE_EQ(trace.normalized_series()[two_am], 0.0);
  double noon_max = 0.0;
  for (std::size_t d = 0; d < 5; ++d) {
    noon_max = std::max(
        noon_max,
        trace.normalized_series()[d * day() + static_cast<std::size_t>(
                                                  axis().from_hours(12.5))]);
  }
  EXPECT_GT(noon_max, 0.1);
}

TEST_P(MultiResolution, EnergyIntegralsResolutionInvariant) {
  // The same physical scenario at different resolutions must deliver
  // approximately the same energy.
  energy::SolarConfig config;
  const auto coarse = energy::SolarModel{config}.generate(axis(), day() * 30);
  const auto fine =
      energy::SolarModel{config}.generate(util::TimeAxis{15}, 96 * 30);
  EXPECT_NEAR(coarse.total_energy_mwh() / fine.total_energy_mwh(), 1.0,
              0.05);
}

TEST_P(MultiResolution, ForecasterRuns) {
  energy::WindConfig config;
  const auto trace = energy::WindModel{config}.generate(axis(), day() * 30);
  const energy::Forecaster forecaster;
  const double short_mape = forecaster.measured_mape(trace, 3.0);
  const double long_mape = forecaster.measured_mape(trace, 96.0);
  EXPECT_GT(short_mape, 0.0);
  EXPECT_LT(short_mape, long_mape);
}

TEST_P(MultiResolution, SiteSimConserves) {
  energy::WindConfig wind_config;
  const auto power = energy::WindModel{wind_config}.generate(axis(), day() * 7);
  workload::GeneratorConfig gen;
  gen.arrivals_per_hour = 10.0;
  const auto vms = workload::VmTraceGenerator{gen}.generate(axis(), power.size());
  dcsim::SiteSimConfig config;
  config.site.n_servers = 60;
  const auto r = dcsim::simulate_site(power, vms, config);
  EXPECT_EQ(r.out_gb.size(), power.size());
  for (std::size_t i = 0; i < power.size(); ++i) {
    EXPECT_LE(r.allocated_cores[i], 60 * 40);
    EXPECT_GE(r.out_gb[i], 0.0);
  }
}

TEST_P(MultiResolution, FullSchedulingPipelineRuns) {
  energy::FleetConfig fleet_config;
  fleet_config.n_solar = 1;
  fleet_config.n_wind = 2;
  fleet_config.region_km = 500.0;
  const energy::Fleet fleet =
      energy::generate_fleet(fleet_config, axis(), day() * 3);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  const core::VbGraph graph{fleet, graph_config};

  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = 1.0;
  const auto apps = workload::generate_apps(app_config, axis(), day() * 3);

  core::MipSchedulerConfig mip_config = core::make_mip_config();
  mip_config.clique_k = 2;
  // Bucket width scales with resolution: keep ~6 h.
  mip_config.bucket_ticks = axis().from_hours(6.0);
  mip_config.replan_period = axis().from_hours(6.0);
  core::MipScheduler scheduler{mip_config};
  const core::SimResult result = core::run_simulation(graph, apps, scheduler);
  EXPECT_EQ(result.apps_placed, static_cast<std::int64_t>(apps.size()));
  // Ledger conservation holds at any resolution.
  double out_total = 0.0;
  double in_total = 0.0;
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    for (const double v : result.ledger.out_series(s)) out_total += v;
    for (const double v : result.ledger.in_series(s)) in_total += v;
  }
  EXPECT_NEAR(out_total, in_total, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, MultiResolution,
                         ::testing::Values(30, 60));

}  // namespace
}  // namespace vbatt
