#include "vbatt/energy/cost.h"

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

PowerTrace flat_trace() {
  // 10 hours at 0.5 of 400 MW = 2000 MWh.
  return PowerTrace{util::TimeAxis{60}, 400.0,
                    std::vector<double>(10, 0.5), Source::wind};
}

TEST(CostModel, PaperHeadlineSaving) {
  // §2.1: 20% of DC cost is power, 50% of power cost is transmission
  // -> co-location saves ≈10% of total cost.
  const CostSummary summary = evaluate_economics({}, flat_trace());
  EXPECT_DOUBLE_EQ(summary.opex_saving_fraction, 0.10);
}

TEST(CostModel, CurtailmentRecovery) {
  CostModelConfig config;
  config.curtailment_fraction = 0.06;
  config.wholesale_usd_per_mwh = 40.0;
  const CostSummary summary = evaluate_economics(config, flat_trace());
  EXPECT_DOUBLE_EQ(summary.recoverable_curtailed_mwh, 120.0);  // 6% of 2000
  EXPECT_DOUBLE_EQ(summary.recoverable_value_usd, 4800.0);
}

TEST(CostModel, ValidatesFractions) {
  CostModelConfig bad;
  bad.power_share_of_opex = 1.5;
  EXPECT_THROW(evaluate_economics(bad, flat_trace()), std::invalid_argument);
  CostModelConfig neg;
  neg.curtailment_fraction = -0.1;
  EXPECT_THROW(evaluate_economics(neg, flat_trace()), std::invalid_argument);
}

TEST(CostModel, ZeroSharesZeroSavings) {
  CostModelConfig config;
  config.power_share_of_opex = 0.0;
  const CostSummary summary = evaluate_economics(config, flat_trace());
  EXPECT_DOUBLE_EQ(summary.opex_saving_fraction, 0.0);
}

// --- price series --------------------------------------------------------

TEST(PriceSeries, DeterministicAndBoundedBySpread) {
  const util::TimeAxis axis{15};
  PriceSeriesConfig config;
  const SiteSeries a = make_price_series(config, axis, 3, 96);
  const SiteSeries b = make_price_series(config, axis, 3, 96);
  EXPECT_TRUE(a == b);
  ASSERT_EQ(a.n_sites(), 3u);
  ASSERT_EQ(a.n_ticks(), 96u);

  // Every sample stays inside base ± swing ± spread.
  const double lo = config.base_usd_per_mwh - config.swing_usd_per_mwh -
                    config.site_spread_usd_per_mwh;
  const double hi = config.base_usd_per_mwh + config.swing_usd_per_mwh +
                    config.site_spread_usd_per_mwh;
  for (std::size_t s = 0; s < a.n_sites(); ++s) {
    for (std::size_t t = 0; t < a.n_ticks(); ++t) {
      EXPECT_GE(a.at(s, t), lo);
      EXPECT_LE(a.at(s, t), hi);
    }
  }
  // The per-site basis offset separates sites at any fixed tick.
  EXPECT_NE(a.at(0, 0), a.at(1, 0));
}

// The series computes the diurnal curve once and adds each site's
// offset; every sample must equal the formula written out per site and
// tick, bit for bit.
TEST(PriceSeries, MatchesPerSiteFormulaBitForBit) {
  const util::TimeAxis axis{5};
  PriceSeriesConfig config;
  config.seed = 77;
  config.peak_hour = 17.25;
  config.site_spread_usd_per_mwh = 31.0;
  const std::size_t n_sites = 5;
  const std::size_t n_ticks = 288 * 2 + 11;
  const SiteSeries series = make_price_series(config, axis, n_sites, n_ticks);
  for (std::size_t s = 0; s < n_sites; ++s) {
    util::Rng rng{util::seed_for(config.seed, "price-site", s)};
    const double offset = rng.uniform(-config.site_spread_usd_per_mwh,
                                      config.site_spread_usd_per_mwh);
    for (std::size_t t = 0; t < n_ticks; ++t) {
      const double hour = axis.hour_of_day(static_cast<util::Tick>(t));
      const double want =
          config.base_usd_per_mwh +
          config.swing_usd_per_mwh *
              std::cos(2.0 * std::numbers::pi *
                       (hour - config.peak_hour) / 24.0) +
          offset;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(series.at(s, t)),
                std::bit_cast<std::uint64_t>(want))
          << "site " << s << " tick " << t;
    }
  }
}

TEST(SiteSeries, InterpolationClampsAndHitsSamplesExactly) {
  SiteSeries series{2, 4};
  series.at(0, 0) = 10.0;
  series.at(0, 1) = 20.0;
  series.at(0, 2) = -5.0;
  series.at(0, 3) = 7.0;

  // Clamped outside [0, n_ticks - 1] — including far out of range.
  EXPECT_EQ(series.value(0, -3.5), 10.0);
  EXPECT_EQ(series.value(0, 0.0), 10.0);
  EXPECT_EQ(series.value(0, 3.0), 7.0);
  EXPECT_EQ(series.value(0, 1000.0), 7.0);
  // Integer ticks return the sample itself (no arithmetic drift).
  EXPECT_EQ(series.value(0, 1.0), 20.0);
  EXPECT_EQ(series.value(0, 2.0), -5.0);
  // Fractional ticks interpolate linearly, sign changes included.
  EXPECT_DOUBLE_EQ(series.value(0, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(series.value(0, 1.75), 20.0 + 0.75 * (-25.0));
  // Sites are independent.
  EXPECT_EQ(series.value(1, 0.5), 0.0);

  EXPECT_THROW((SiteSeries{0, 4}), std::invalid_argument);
  EXPECT_THROW((SiteSeries{2, 0}), std::invalid_argument);
}

// --- CSV round-trip + malformed corpus -----------------------------------

class SeriesCsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "vbatt_price_series.csv";
  void TearDown() override { std::remove(path_.c_str()); }

  void write(const std::string& text) {
    std::ofstream out{path_};
    out << text;
  }

  std::string load_error() {
    try {
      load_series_csv(path_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  }
};

TEST_F(SeriesCsvTest, RoundTripIsBitExact) {
  const SiteSeries original =
      make_price_series({}, util::TimeAxis{15}, 4, 30);
  save_series_csv(original, path_);
  const SiteSeries loaded = load_series_csv(path_);
  // Shortest-round-trip decimals on save: equality is exact, not NEAR.
  EXPECT_TRUE(loaded == original);
}

TEST_F(SeriesCsvTest, RoundTripKeepsNegativePrices) {
  SiteSeries original{1, 3};
  original.at(0, 0) = -12.625;  // negative prices are legal
  original.at(0, 1) = 0.0;
  original.at(0, 2) = 1.0 / 3.0;  // needs all 17 significant digits
  save_series_csv(original, path_);
  EXPECT_TRUE(load_series_csv(path_) == original);
}

TEST_F(SeriesCsvTest, RejectsBadHeaderNamingLine) {
  write("site,tick,price\n0,0,1.0\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("bad header"), std::string::npos) << what;
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsWrongColumnCount) {
  write("site,tick,value\n0,0,1.0\n0,1\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("expected 3 columns"), std::string::npos) << what;
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsNonNumericValueNamingColumn) {
  write("site,tick,value\n0,0,1.0\n0,1,cheap\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("non-numeric value"), std::string::npos) << what;
  EXPECT_NE(what.find("line 3, column 2"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsNonFiniteValue) {
  write("site,tick,value\n0,0,inf\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("non-finite value"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2, column 2"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsNegativeSiteAndTick) {
  write("site,tick,value\n-1,0,1.0\n");
  EXPECT_NE(load_error().find("negative site"), std::string::npos);
  write("site,tick,value\n0,-1,1.0\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("negative tick"), std::string::npos) << what;
  EXPECT_NE(what.find("column 1"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsOutOfOrderRows) {
  write("site,tick,value\n0,0,1.0\n0,2,1.0\n");
  EXPECT_NE(load_error().find("expected tick 1"), std::string::npos);
  // A skipped site is not a rollover (those advance one site at a time),
  // so the loader still expects site 0's next row.
  write("site,tick,value\n0,0,1.0\n2,0,1.0\n");
  EXPECT_NE(load_error().find("expected site 0"), std::string::npos);
}

TEST_F(SeriesCsvTest, RejectsRaggedSiteGrid) {
  // Site 0 has 2 ticks, site 1 only 1: the dense grid is violated at the
  // rollover into site 2.
  write("site,tick,value\n0,0,1.0\n0,1,1.0\n1,0,1.0\n2,0,1.0\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("site 1 has 1 of 2 ticks"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsRaggedFinalSite) {
  write("site,tick,value\n0,0,1.0\n0,1,1.0\n1,0,1.0\n");
  const std::string what = load_error();
  EXPECT_NE(what.find("site 1 has 1 of 2 ticks"), std::string::npos) << what;
}

TEST_F(SeriesCsvTest, RejectsEmptyAndHeaderOnlyFiles) {
  write("");
  EXPECT_NE(load_error().find("empty file"), std::string::npos);
  write("site,tick,value\n");
  EXPECT_NE(load_error().find("no samples"), std::string::npos);
}

TEST_F(SeriesCsvTest, RejectsMissingFile) {
  std::remove(path_.c_str());
  EXPECT_NE(load_error().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace vbatt::energy
