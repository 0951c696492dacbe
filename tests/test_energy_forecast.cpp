#include "vbatt/energy/forecast.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "vbatt/energy/solar.h"
#include "vbatt/energy/wind.h"
#include "vbatt/stats/series.h"
#include "vbatt/testkit/forecast_reference.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::energy {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

PowerTrace year_solar() {
  SolarConfig config;
  config.start_day_of_year = 0;
  return SolarModel{config}.generate(axis15(), 96u * 365u);
}

PowerTrace year_wind() {
  WindConfig config;
  config.start_day_of_year = 0;
  return WindModel{config}.generate(axis15(), 96u * 365u);
}

TEST(Forecaster, ValidatesConfig) {
  ForecastConfig bad;
  bad.window_per_lead = 0.0;
  EXPECT_THROW(Forecaster{bad}, std::invalid_argument);
}

TEST(Forecaster, Deterministic) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  EXPECT_EQ(fc.forecast(solar, 24.0), fc.forecast(solar, 24.0));
}

TEST(Forecaster, OutputInUnitRange) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  for (const double v : fc.forecast(wind, 168.0)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Forecaster, SolarForecastKnowsNight) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const auto forecast = fc.forecast(solar, 168.0);
  // Wherever actual is zero across the whole climatology (deep night),
  // the forecast must be ~zero too, even a week out.
  const auto clim =
      Forecaster::climatology(solar.normalized_series(), solar.axis());
  for (std::size_t i = 0; i < forecast.size(); ++i) {
    if (clim[i % 96] <= 0.02) {
      EXPECT_LE(forecast[i], 0.03);
    }
  }
}

TEST(Forecaster, ClimatologyHasDiurnalShape) {
  const PowerTrace solar = year_solar();
  const auto clim =
      Forecaster::climatology(solar.normalized_series(), solar.axis());
  ASSERT_EQ(clim.size(), 96u);
  // Noon bucket far above midnight bucket.
  EXPECT_GT(clim[50], 10.0 * std::max(1e-9, clim[0]));
}

TEST(Forecaster, ErrorGrowsWithLead) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const PowerTrace wind = year_wind();
  for (const PowerTrace* trace : {&solar, &wind}) {
    const double short_lead = fc.measured_mape(*trace, 3.0);
    const double day = fc.measured_mape(*trace, 24.0);
    const double week = fc.measured_mape(*trace, 168.0);
    EXPECT_LT(short_lead, day);
    EXPECT_LT(day, week);
  }
}

// Fig. 5 calibration bands (paper: 8.5-9% @3h, 18-25% @day, 44-75% @week).
// Our synthetic weather is somewhat less regime-persistent than Europe's,
// so the long-lead bands are wider; EXPERIMENTS.md records the exact
// measured values.
TEST(Forecaster, MapeBandsNearPaper) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const PowerTrace wind = year_wind();

  const double solar3 = fc.measured_mape(solar, 3.0);
  const double wind3 = fc.measured_mape(wind, 3.0);
  EXPECT_GT(solar3, 5.0);
  EXPECT_LT(solar3, 14.0);
  EXPECT_GT(wind3, 5.0);
  EXPECT_LT(wind3, 14.0);

  const double solar24 = fc.measured_mape(solar, 24.0);
  const double wind24 = fc.measured_mape(wind, 24.0);
  EXPECT_GT(solar24, 14.0);
  EXPECT_LT(solar24, 32.0);
  EXPECT_GT(wind24, 14.0);
  EXPECT_LT(wind24, 36.0);

  const double solar168 = fc.measured_mape(solar, 168.0);
  const double wind168 = fc.measured_mape(wind, 168.0);
  EXPECT_GT(solar168, 35.0);
  EXPECT_LT(solar168, 90.0);
  EXPECT_GT(wind168, 50.0);
  EXPECT_LT(wind168, 110.0);
}

TEST(Forecaster, ZeroLeadTracksActualClosely) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  // Lead 0: no smoothing beyond one tick, no climatology blend, minimal
  // noise. MAPE should be far below the 3-hour figure.
  EXPECT_LT(fc.measured_mape(wind, 0.0), 7.0);
}

TEST(Forecaster, NegativeLeadThrows) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  EXPECT_THROW(fc.forecast(wind, -1.0), std::invalid_argument);
}

TEST(Forecaster, EmptyTraceGivesEmptyForecast) {
  // An empty trace is not constructible (peak>0 requires samples? it
  // doesn't), so exercise the n==0 path directly.
  const PowerTrace empty{axis15(), 100.0, {}, Source::wind};
  const Forecaster fc;
  EXPECT_TRUE(fc.forecast(empty, 24.0).empty());
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A year-long trace per source at the default leads: the bulk path (one
// noise draw per source and lead, per-trace work shared by the leads,
// blocked smoothing) must reproduce the frozen one-call forecaster
// byte for byte, as must the single-lead wrapper.
TEST(Forecaster, MatchesFrozenReferenceOverAYear) {
  const Forecaster fc;
  const std::vector<PowerTrace> traces{year_solar(), year_wind()};
  const std::vector<double> leads{0.0, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0,
                                  168.0};
  const auto bulk =
      fc.forecast(testkit::forecast_inputs(traces), axis15(), leads);
  ASSERT_EQ(bulk.size(), traces.size());
  for (std::size_t s = 0; s < traces.size(); ++s) {
    ASSERT_EQ(bulk[s].size(), leads.size());
    for (std::size_t l = 0; l < leads.size(); ++l) {
      const auto want = testkit::reference_forecast(traces[s], leads[l]);
      EXPECT_TRUE(same_bytes(bulk[s][l], want))
          << "trace " << s << " lead " << leads[l];
      EXPECT_TRUE(same_bytes(fc.forecast(traces[s], leads[l]), want))
          << "trace " << s << " lead " << leads[l];
    }
  }
}

// The bulk forecast fans its per-trace work over a pool; any lane count
// (none, a zero-worker pool, one worker, three) must give the serial bytes.
TEST(Forecaster, BulkIsTheSameOnAnyPool) {
  const Forecaster fc;
  std::vector<PowerTrace> traces;
  for (std::uint64_t i = 0; i < 7; ++i) {
    SolarConfig solar;
    solar.seed = 100 + i;
    WindConfig wind;
    wind.seed = 200 + i;
    traces.push_back(i % 3 == 0 ? SolarModel{solar}.generate(axis15(), 96u * 9u)
                                : WindModel{wind}.generate(axis15(), 96u * 9u));
  }
  const std::vector<double> leads{0.0, 3.0, 24.0, 96.0, 168.0};
  const auto inputs = testkit::forecast_inputs(traces);
  const auto serial = fc.forecast(inputs, axis15(), leads);
  for (const std::size_t workers : {0u, 1u, 3u}) {
    util::ThreadPool pool{workers};
    const auto pooled = fc.forecast(inputs, axis15(), leads, &pool);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t s = 0; s < traces.size(); ++s) {
      ASSERT_EQ(pooled[s].size(), leads.size());
      for (std::size_t l = 0; l < leads.size(); ++l) {
        EXPECT_TRUE(same_bytes(pooled[s][l], serial[s][l]))
            << workers << " workers, trace " << s << " lead " << leads[l];
      }
    }
  }
}

TEST(Forecaster, BulkValidatesInputs) {
  const Forecaster fc;
  const std::vector<double> leads{3.0, 24.0};
  EXPECT_TRUE(
      fc.forecast(std::vector<ForecastInput>{}, axis15(), leads).empty());

  WindConfig wind;
  std::vector<PowerTrace> traces{WindModel{wind}.generate(axis15(), 96u),
                                 WindModel{wind}.generate(axis15(), 97u)};
  std::vector<ForecastInput> inputs = testkit::forecast_inputs(traces);
  EXPECT_THROW(fc.forecast(inputs, axis15(), leads), std::invalid_argument);
  util::ThreadPool pool{2};
  EXPECT_THROW(fc.forecast(inputs, axis15(), leads, &pool),
               std::invalid_argument);
  inputs.pop_back();
  EXPECT_THROW(fc.forecast(inputs, axis15(), std::vector<double>{3.0, -1.0}),
               std::invalid_argument);

  const std::vector<PowerTrace> empty{
      PowerTrace{axis15(), 100.0, {}, Source::wind}};
  const auto out =
      fc.forecast(testkit::forecast_inputs(empty), axis15(), leads);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), leads.size());
  for (const auto& series : out[0]) EXPECT_TRUE(series.empty());
}

}  // namespace
}  // namespace vbatt::energy
