#include "vbatt/energy/carbon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <string>

#include "vbatt/util/rng.h"

namespace vbatt::energy {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

TEST(Carbon, IntensityPeaksInTheEvening) {
  CarbonConfig config;
  const double evening =
      grid_intensity_gco2(config, axis15(), axis15().from_hours(19.0));
  const double morning =
      grid_intensity_gco2(config, axis15(), axis15().from_hours(7.0));
  EXPECT_GT(evening, morning);
  EXPECT_NEAR(evening, config.grid_base_gco2_per_kwh +
                           config.grid_swing_gco2_per_kwh,
              1.0);
}

TEST(Carbon, IntensityAlwaysPositive) {
  CarbonConfig config;
  for (util::Tick t = 0; t < 96; ++t) {
    EXPECT_GT(grid_intensity_gco2(config, axis15(), t), 0.0);
  }
}

TEST(Carbon, ValidatesConfig) {
  CarbonConfig bad;
  bad.grid_swing_gco2_per_kwh = bad.grid_base_gco2_per_kwh + 1.0;
  EXPECT_THROW(compare_carbon(bad, axis15(), {1.0}), std::invalid_argument);
  CarbonConfig neg;
  neg.renewable_gco2_per_kwh = -1.0;
  EXPECT_THROW(compare_carbon(neg, axis15(), {1.0}), std::invalid_argument);
}

TEST(Carbon, HandComputedComparison) {
  // 1 MWh consumed in a single tick at exactly the evening peak.
  CarbonConfig config;
  std::vector<double> consumption(96, 0.0);
  const auto peak_tick =
      static_cast<std::size_t>(axis15().from_hours(19.0));
  consumption[peak_tick] = 1.0;
  const CarbonReport report = compare_carbon(config, axis15(), consumption);
  // 1000 kWh x 410 g/kWh = 0.410 t on grid; 1000 x 15 g = 0.015 t on VB.
  EXPECT_NEAR(report.grid_tco2, 0.410, 0.002);
  EXPECT_NEAR(report.vb_tco2, 0.015, 1e-9);
  EXPECT_NEAR(report.avoided_fraction(), 1.0 - 0.015 / 0.410, 0.01);
}

TEST(Carbon, EmptyConsumptionIsZero) {
  const CarbonReport report = compare_carbon({}, axis15(), {});
  EXPECT_DOUBLE_EQ(report.grid_tco2, 0.0);
  EXPECT_DOUBLE_EQ(report.avoided_fraction(), 0.0);
}

TEST(Carbon, VbAlwaysCleanerWithDefaults) {
  std::vector<double> consumption(96 * 7, 0.5);
  const CarbonReport report =
      compare_carbon(CarbonConfig{}, axis15(), consumption);
  EXPECT_GT(report.avoided_fraction(), 0.90);  // ~95% avoided
  EXPECT_GT(report.grid_tco2, report.vb_tco2);
}

// --- intensity series ----------------------------------------------------

TEST(CarbonSeries, DeterministicNonNegativeAndBounded) {
  CarbonSeriesConfig config;
  config.site_spread_gco2_per_kwh = 500.0;  // force the clamp to engage
  const SiteSeries a = make_carbon_series(config, axis15(), 4, 96);
  const SiteSeries b = make_carbon_series(config, axis15(), 4, 96);
  EXPECT_TRUE(a == b);

  const double hi = config.grid.grid_base_gco2_per_kwh +
                    config.grid.grid_swing_gco2_per_kwh +
                    config.site_spread_gco2_per_kwh;
  bool clamped = false;
  for (std::size_t s = 0; s < a.n_sites(); ++s) {
    for (std::size_t t = 0; t < a.n_ticks(); ++t) {
      EXPECT_GE(a.at(s, t), 0.0);
      EXPECT_LE(a.at(s, t), hi);
      clamped = clamped || a.at(s, t) == 0.0;
    }
  }
  EXPECT_TRUE(clamped);  // a ±500 spread on a 320-base curve must floor

  CarbonSeriesConfig bad;
  bad.site_spread_gco2_per_kwh = -1.0;
  EXPECT_THROW(make_carbon_series(bad, axis15(), 1, 4),
               std::invalid_argument);
}

// One grid curve plus each site's offset, clamped at zero: every sample
// must equal the per-site formula written out, bit for bit, with the
// spread wide enough that the clamp engages.
TEST(CarbonSeries, MatchesPerSiteFormulaBitForBit) {
  const util::TimeAxis axis{5};
  CarbonSeriesConfig config;
  config.seed = 91;
  config.grid.grid_peak_hour = 6.5;
  config.site_spread_gco2_per_kwh = 450.0;
  const std::size_t n_sites = 6;
  const std::size_t n_ticks = 288 * 2 + 13;
  const SiteSeries series = make_carbon_series(config, axis, n_sites, n_ticks);
  std::size_t clamped = 0;
  for (std::size_t s = 0; s < n_sites; ++s) {
    util::Rng rng{util::seed_for(config.seed, "carbon-site", s)};
    const double offset = rng.uniform(-config.site_spread_gco2_per_kwh,
                                      config.site_spread_gco2_per_kwh);
    for (std::size_t t = 0; t < n_ticks; ++t) {
      const double hour = axis.hour_of_day(static_cast<util::Tick>(t));
      const double intensity =
          config.grid.grid_base_gco2_per_kwh +
          config.grid.grid_swing_gco2_per_kwh *
              std::cos(2.0 * std::numbers::pi *
                       (hour - config.grid.grid_peak_hour) / 24.0) +
          offset;
      const double want = std::max(0.0, intensity);
      clamped += intensity < 0.0 ? 1 : 0;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(series.at(s, t)),
                std::bit_cast<std::uint64_t>(want))
          << "site " << s << " tick " << t;
    }
  }
  EXPECT_GT(clamped, 0u);  // the clamp was exercised
}

TEST(CarbonSeries, CsvRoundTripIsBitExact) {
  const std::string path =
      ::testing::TempDir() + "vbatt_carbon_series.csv";
  const SiteSeries original = make_carbon_series({}, axis15(), 3, 48);
  save_series_csv(original, path);
  const SiteSeries loaded = load_series_csv(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded == original);
}

TEST(CarbonSeries, InterpolationClampsAtTheTraceEdges) {
  const SiteSeries series = make_carbon_series({}, axis15(), 2, 8);
  EXPECT_EQ(series.value(1, -1.0), series.at(1, 0));
  EXPECT_EQ(series.value(1, 99.0), series.at(1, 7));
  EXPECT_EQ(series.value(1, 3.0), series.at(1, 3));
  EXPECT_DOUBLE_EQ(series.value(1, 3.5),
                   series.at(1, 3) + 0.5 * (series.at(1, 4) - series.at(1, 3)));
}

TEST(CarbonSeries, LoaderNamesLineAndColumnOnMalformedRows) {
  const std::string path =
      ::testing::TempDir() + "vbatt_carbon_series_bad.csv";
  const auto load_error = [&](const std::string& text) {
    {
      std::ofstream out{path};
      out << text;
    }
    std::string what;
    try {
      load_series_csv(path);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    std::remove(path.c_str());
    return what;
  };
  EXPECT_NE(load_error("site,tick,value\n0,0,1\n0,1,nan\n")
                .find("non-numeric value at line 3, column 2"),
            std::string::npos);
  EXPECT_NE(load_error("site,tick,value\n1,0,1\n")
                .find("expected site 0 at line 2, column 0"),
            std::string::npos);
}

}  // namespace
}  // namespace vbatt::energy
