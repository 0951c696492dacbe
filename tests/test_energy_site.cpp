#include "vbatt/energy/site.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "vbatt/stats/series.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::energy {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

TEST(SiteSpec, GenerateDispatchesBySource) {
  SiteSpec solar_spec;
  solar_spec.source = Source::solar;
  solar_spec.solar.seed = 5;
  const PowerTrace solar = solar_spec.generate(axis15(), 96);
  EXPECT_EQ(solar.source(), Source::solar);
  // Night must be zero for solar...
  EXPECT_DOUBLE_EQ(solar.normalized(0), 0.0);

  SiteSpec wind_spec;
  wind_spec.source = Source::wind;
  wind_spec.wind.seed = 5;
  const PowerTrace wind = wind_spec.generate(axis15(), 96);
  EXPECT_EQ(wind.source(), Source::wind);
  // ...while wind at midnight is almost surely not.
  EXPECT_GT(wind.normalized(0), 0.0);
}

TEST(SiteSpec, GenerateMatchesDirectModelCall) {
  SiteSpec spec;
  spec.source = Source::wind;
  spec.wind.seed = 77;
  const PowerTrace via_spec = spec.generate(axis15(), 200);
  const PowerTrace direct = WindModel{spec.wind}.generate(axis15(), 200);
  EXPECT_EQ(via_spec.normalized_series(), direct.normalized_series());
}

TEST(Fleet, WindSitesShareFrontsWithAlternatingSign) {
  FleetConfig config;
  config.n_solar = 0;
  config.n_wind = 4;
  config.n_fronts = 2;
  const Fleet fleet = generate_fleet(config, axis15(), 96 * 10);
  // Sites 0 and 2 load the same front with opposite sign (i % n_fronts
  // picks the front, i / n_fronts alternates the sign): anti-correlated.
  const double opposite = stats::correlation(
      fleet.traces[0].normalized_series(),
      fleet.traces[2].normalized_series());
  EXPECT_LT(opposite, 0.0);
  // Front loading signs are what the spec records.
  EXPECT_GT(fleet.specs[0].wind.front_loading_speed, 0.0);
  EXPECT_LT(fleet.specs[2].wind.front_loading_speed, 0.0);
  EXPECT_EQ(fleet.specs[0].wind.front.seed, fleet.specs[2].wind.front.seed);
  EXPECT_NE(fleet.specs[0].wind.front.seed, fleet.specs[1].wind.front.seed);
}

// generate_fleet generates each regional front once and hands it to every
// site loading on it; each trace must equal its own spec's generate().
TEST(Fleet, SharedFrontsMatchPerSiteGeneration) {
  FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 7;
  config.n_fronts = 3;
  config.enable_storms = true;
  const Fleet fleet = generate_fleet(config, axis15(), 96 * 6);
  ASSERT_EQ(fleet.size(), 9u);
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    EXPECT_EQ(fleet.traces[s].normalized_series(),
              fleet.specs[s].generate(axis15(), 96 * 6).normalized_series())
        << fleet.specs[s].name;
  }
}

// generate_fleet fans the per-site traces over a pool; any lane count
// (serial, a zero-worker pool, one worker, three, the shared pool) must
// give the serial bytes.
TEST(Fleet, SameOnAnyPool) {
  FleetConfig config;
  config.n_solar = 4;
  config.n_wind = 9;
  config.n_fronts = 3;
  config.enable_storms = true;
  const std::size_t n = 96 * 5 + 7;
  const Fleet serial = generate_fleet(config, axis15(), n, nullptr);
  const auto same = [&](const Fleet& fleet, const std::string& label) {
    ASSERT_EQ(fleet.size(), serial.size()) << label;
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      const PowerTrace& a = fleet.traces[s];
      const PowerTrace& b = serial.traces[s];
      EXPECT_EQ(a.source(), b.source()) << label << " site " << s;
      EXPECT_EQ(a.peak_mw(), b.peak_mw()) << label << " site " << s;
      ASSERT_EQ(a.size(), n) << label << " site " << s;
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.normalized_series()[t]),
                  std::bit_cast<std::uint64_t>(b.normalized_series()[t]))
            << label << " site " << s << " tick " << t;
      }
    }
  };
  for (const std::size_t workers : {0u, 1u, 3u}) {
    util::ThreadPool pool{workers};
    same(generate_fleet(config, axis15(), n, &pool),
         std::to_string(workers) + " workers");
  }
  same(generate_fleet(config, axis15(), n), "shared pool");
}

TEST(Fleet, SolarNoonVariesWithLongitude) {
  FleetConfig config;
  config.n_solar = 6;
  config.n_wind = 0;
  const Fleet fleet = generate_fleet(config, axis15(), 96);
  double min_noon = 24.0;
  double max_noon = 0.0;
  for (const SiteSpec& spec : fleet.specs) {
    min_noon = std::min(min_noon, spec.solar.noon_hour);
    max_noon = std::max(max_noon, spec.solar.noon_hour);
  }
  EXPECT_GT(max_noon - min_noon, 0.3);  // the fleet spans time-of-day phase
}

TEST(Fleet, LocationsInsideRegion) {
  FleetConfig config;
  config.region_km = 700.0;
  const Fleet fleet = generate_fleet(config, axis15(), 96);
  for (const SiteSpec& spec : fleet.specs) {
    EXPECT_GE(spec.location.x_km, 0.0);
    EXPECT_LE(spec.location.x_km, 700.0);
    EXPECT_GE(spec.location.y_km, 0.0);
    EXPECT_LE(spec.location.y_km, 700.0);
  }
}

}  // namespace
}  // namespace vbatt::energy
