#include "vbatt/core/vb_graph.h"

#include <gtest/gtest.h>

#include "vbatt/energy/site.h"

namespace vbatt::core {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

energy::Fleet small_fleet(std::size_t ticks = 96 * 2) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 800.0;
  return energy::generate_fleet(config, axis15(), ticks);
}

TEST(VbGraph, BuildsSitesWithCapacity) {
  VbGraphConfig config;
  config.cores_per_mw = 10.0;
  const VbGraph graph{small_fleet(), config};
  ASSERT_EQ(graph.n_sites(), 4u);
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    const VbSite& site = graph.site(s);
    EXPECT_EQ(site.capacity_cores, 4000);  // 400 MW x 10 cores/MW
    EXPECT_EQ(site.power_norm.size(), graph.n_ticks());
    EXPECT_EQ(graph.forecast_norm(s).size(),
              config.forecast_leads_hours.size());
  }
}

TEST(VbGraph, AvailableCoresFollowsPower) {
  VbGraphConfig config;
  config.cores_per_mw = 10.0;
  const VbGraph graph{small_fleet(), config};
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    for (util::Tick t = 0; t < 50; ++t) {
      const int cores = graph.available_cores(s, t);
      EXPECT_GE(cores, 0);
      EXPECT_LE(cores, graph.site(s).capacity_cores);
      EXPECT_EQ(cores, static_cast<int>(std::floor(
                           graph.site(s).power_norm[static_cast<std::size_t>(
                               t)] *
                           graph.site(s).capacity_cores)));
    }
  }
  EXPECT_THROW(graph.available_cores(0, -1), std::out_of_range);
  EXPECT_THROW(graph.available_cores(0, 100000), std::out_of_range);
}

TEST(VbGraph, ForecastIsOracleForPast) {
  const VbGraph graph{small_fleet(), VbGraphConfig{}};
  for (util::Tick t = 0; t < 20; ++t) {
    EXPECT_EQ(graph.forecast_cores(0, t, 50), graph.available_cores(0, t));
  }
}

TEST(VbGraph, ForecastBoundedByCapacity) {
  const VbGraph graph{small_fleet(), VbGraphConfig{}};
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    for (util::Tick t = 100; t < 150; ++t) {
      const int f = graph.forecast_cores(s, t, 0);
      EXPECT_GE(f, 0);
      EXPECT_LE(f, graph.site(s).capacity_cores);
    }
  }
}

TEST(VbGraph, ForecastLeadSnapping) {
  // Queries beyond the longest precomputed lead still answer (snap to the
  // last series).
  const VbGraph graph{small_fleet(96 * 10), VbGraphConfig{}};
  EXPECT_NO_THROW(graph.forecast_cores(0, 96 * 9, 0));
}

TEST(VbGraph, ValidatesLeads) {
  VbGraphConfig config;
  config.forecast_leads_hours = {24.0, 3.0};  // not ascending
  EXPECT_THROW(VbGraph(small_fleet(), config), std::invalid_argument);
}

TEST(VbGraph, LatencyGraphReflectsGeography) {
  energy::FleetConfig fleet_config;
  fleet_config.n_solar = 2;
  fleet_config.n_wind = 2;
  fleet_config.region_km = 100.0;  // tight cluster: complete graph
  const energy::Fleet fleet =
      energy::generate_fleet(fleet_config, axis15(), 96);
  const VbGraph graph{fleet, VbGraphConfig{}};
  EXPECT_EQ(graph.latency().edge_count(), 6u);  // K4
}

}  // namespace
}  // namespace vbatt::core
