#include "vbatt/energy/wind.h"

#include <gtest/gtest.h>

#include "vbatt/stats/percentile.h"
#include "vbatt/stats/series.h"

namespace vbatt::energy {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

TEST(PowerCurve, Shape) {
  PowerCurve curve;
  EXPECT_DOUBLE_EQ(curve.power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.power(2.9), 0.0);          // below cut-in
  EXPECT_DOUBLE_EQ(curve.power(curve.rated), 1.0);  // rated
  EXPECT_DOUBLE_EQ(curve.power(20.0), 1.0);         // rated plateau
  EXPECT_DOUBLE_EQ(curve.power(25.0), 0.0);         // cut-out
  EXPECT_DOUBLE_EQ(curve.power(30.0), 0.0);
  // Cubic and monotone on the ramp.
  double prev = 0.0;
  for (double v = 3.0; v <= 11.5; v += 0.25) {
    const double p = curve.power(v);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(WindModel, ValidatesConfig) {
  WindConfig bad;
  bad.peak_mw = -1.0;
  EXPECT_THROW(WindModel{bad}, std::invalid_argument);
  WindConfig curve_bad;
  curve_bad.curve.rated = curve_bad.curve.cut_in;
  EXPECT_THROW(WindModel{curve_bad}, std::invalid_argument);
}

TEST(WindModel, Deterministic) {
  WindConfig config;
  const WindModel model{config};
  EXPECT_EQ(model.generate(axis15(), 1000).normalized_series(),
            model.generate(axis15(), 1000).normalized_series());
}

// A caller-supplied front (how generate_fleet shares one front between
// the sites loading on it) yields the very trace the model makes alone.
TEST(WindModel, SuppliedFrontMatchesOwnFront) {
  WindConfig config;
  config.front.seed = 9;
  config.front_loading_speed = -2.0;
  const WindModel model{config};
  const std::vector<double> front =
      generate_front(config.front, axis15(), 2000);
  std::vector<double> out(2000);
  model.generate_into(axis15(), front, out);
  EXPECT_EQ(out, model.generate(axis15(), 2000).normalized_series());
  std::vector<double> short_out(1999);
  EXPECT_THROW(model.generate_into(axis15(), front, short_out),
               std::invalid_argument);
}

// Fig. 2b calibration: median <= ~20% of peak, rarely exactly zero,
// 99th/75th ratio ≈2x.
TEST(WindModel, YearCalibrationMatchesPaperBands) {
  WindConfig config;
  config.start_day_of_year = 0;
  const auto trace = WindModel{config}.generate(axis15(), 96u * 365u);
  stats::Sampler s{trace.normalized_series()};
  EXPECT_LT(s.median(), 0.25);
  EXPECT_GT(s.median(), 0.10);
  EXPECT_LT(s.zero_fraction(), 0.06);  // "rarely go down to zero"
  const double ratio = s.percentile(99) / s.percentile(75);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 4.0);
}

TEST(WindModel, SeasonalWinterIsWindier) {
  WindConfig config;
  config.start_day_of_year = 0;
  config.storm_mean_gap_days = 0.0;
  const WindModel model{config};
  const util::TimeAxis axis = axis15();
  // Mean (noise-free) speed mid-January vs mid-July.
  EXPECT_GT(model.mean_speed(axis, axis.from_days(15)),
            model.mean_speed(axis, axis.from_days(196)));
}

TEST(WindModel, DiurnalComponentPeaksWhenConfigured) {
  WindConfig config;
  config.diurnal_amplitude_speed = 1.0;
  config.diurnal_peak_hour = 2.0;
  const WindModel model{config};
  const util::TimeAxis axis = axis15();
  EXPECT_GT(model.mean_speed(axis, axis.from_hours(2.0)),
            model.mean_speed(axis, axis.from_hours(14.0)));
}

TEST(WindModel, OppositeFrontLoadingsAnticorrelate) {
  WindConfig up;
  up.front.seed = 777;
  up.front_loading_speed = 2.0;
  up.gust_sigma = 0.1;
  up.storm_mean_gap_days = 0.0;
  WindConfig down = up;
  down.front_loading_speed = -2.0;
  down.seed = up.seed + 1;
  const auto a = WindModel{up}.generate(axis15(), 96 * 20);
  const auto b = WindModel{down}.generate(axis15(), 96 * 20);
  EXPECT_LT(stats::correlation(a.normalized_series(), b.normalized_series()),
            -0.5);
}

TEST(WindModel, StormsCutOutToZero) {
  WindConfig stormy;
  stormy.storm_mean_gap_days = 1.0;  // frequent for the test
  stormy.seed = 31337;
  const auto trace = WindModel{stormy}.generate(axis15(), 96 * 60);
  WindConfig calm = stormy;
  calm.storm_mean_gap_days = 0.0;
  const auto calm_trace = WindModel{calm}.generate(axis15(), 96 * 60);
  stats::Sampler s{trace.normalized_series()};
  stats::Sampler c{calm_trace.normalized_series()};
  // Storms add exact-zero (cut-out) samples relative to the calm config.
  EXPECT_GT(s.zero_fraction(), c.zero_fraction() + 0.01);
}

}  // namespace
}  // namespace vbatt::energy
