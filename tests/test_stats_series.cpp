#include "vbatt/stats/series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "vbatt/util/rng.h"

namespace vbatt::stats {
namespace {

TEST(Series, AddAndScale) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{10.0, 20.0};
  EXPECT_EQ(add(a, b), (std::vector<double>{11.0, 22.0}));
  EXPECT_EQ(scale(a, 3.0), (std::vector<double>{3.0, 6.0}));
  EXPECT_THROW(add(a, {1.0}), std::invalid_argument);
}

TEST(Series, MovingAverageConstantIsIdentity) {
  const std::vector<double> a(20, 4.0);
  for (const std::size_t w : {1u, 3u, 7u, 100u}) {
    for (const double v : moving_average(a, w)) EXPECT_DOUBLE_EQ(v, 4.0);
  }
  EXPECT_THROW(moving_average(a, 0), std::invalid_argument);
}

TEST(Series, MovingAverageSmooths) {
  std::vector<double> a(100);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = (i % 2) ? 1.0 : -1.0;
  const auto smoothed = moving_average(a, 11);
  for (std::size_t i = 10; i + 10 < a.size(); ++i) {
    EXPECT_NEAR(smoothed[i], 0.0, 0.1);
  }
}

TEST(Series, MovingAverageWindowOneIsIdentity) {
  const std::vector<double> a{3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(moving_average(a, 1), a);
}

// The blocked kernel must reproduce the naive loop byte for byte: same
// clipped windows, each summed from 0.0 left to right, divided by the
// window size. Lengths straddle every edge case of the interior split
// (empty, shorter than the window, exactly one full window, one short of
// and one past a whole block of interior outputs) and a 90-day trace.
TEST(Series, MovingAverageMatchesNaiveLoopBytewise) {
  const auto naive = [](const std::vector<double>& a, std::size_t w) {
    const std::size_t n = a.size();
    const std::size_t half = w / 2;
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = i >= half ? i - half : 0;
      const std::size_t hi = std::min(n - 1, i + half);
      double sum = 0.0;
      for (std::size_t j = lo; j <= hi; ++j) sum += a[j];
      out[i] = sum / static_cast<double>(hi - lo + 1);
    }
    return out;
  };
  util::Rng rng{17};
  std::vector<double> pool(8640);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Signed zeros, exact zeros, tiny and huge magnitudes: the values
    // where a reordered sum would round (or sign a zero) differently.
    switch (i % 7) {
      case 0: pool[i] = -0.0; break;
      case 1: pool[i] = 0.0; break;
      case 2: pool[i] = rng.uniform(-1.0, 1.0) * 1e-300; break;
      case 3: pool[i] = rng.uniform(-1.0, 1.0) * 1e16; break;
      default: pool[i] = rng.uniform(-1.0, 1.0); break;
    }
  }
  const std::vector<double> zeros(64, -0.0);
  for (std::size_t w = 1; w <= 300; ++w) {
    const std::size_t h = w / 2;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, h, 2 * h, 2 * h + 1, 2 * h + 8,
          2 * h + 9, std::size_t{8640}}) {
      const std::vector<double> a(pool.begin(),
                                  pool.begin() + static_cast<std::ptrdiff_t>(n));
      const std::vector<double> want = naive(a, w);
      const std::vector<double> got = moving_average(a, w);
      ASSERT_EQ(got.size(), n);
      ASSERT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                        n * sizeof(double)) == 0)
          << "w=" << w << " n=" << n;
    }
    // Every sum starts from +0.0, so an all-negative-zero series averages
    // to +0.0 (a kernel seeding its sums with the first element would
    // keep the sign).
    for (const double v : moving_average(zeros, w)) {
      ASSERT_FALSE(std::signbit(v)) << "w=" << w;
    }
  }
}

TEST(Series, EwmaConvergesToConstant) {
  std::vector<double> a(200, 7.0);
  a[0] = 0.0;
  const auto e = ewma(a, 0.2);
  EXPECT_NEAR(e.back(), 7.0, 1e-6);
  EXPECT_THROW(ewma(a, 0.0), std::invalid_argument);
  EXPECT_THROW(ewma(a, 1.5), std::invalid_argument);
}

TEST(Series, Diff) {
  EXPECT_EQ(diff({1.0, 4.0, 2.0}), (std::vector<double>{3.0, -2.0}));
  EXPECT_TRUE(diff({1.0}).empty());
  EXPECT_TRUE(diff({}).empty());
}

TEST(Series, CovMatchesDefinition) {
  EXPECT_DOUBLE_EQ(cov({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 0.4);
  EXPECT_DOUBLE_EQ(cov({5.0, 5.0, 5.0}), 0.0);
}

TEST(Series, MapeBasics) {
  // forecast off by +10% everywhere -> MAPE 10%.
  const std::vector<double> actual{1.0, 2.0, 4.0};
  const std::vector<double> forecast{1.1, 2.2, 4.4};
  EXPECT_NEAR(mape(actual, forecast), 10.0, 1e-9);
}

TEST(Series, MapeSkipsBelowFloor) {
  const std::vector<double> actual{0.0, 1.0};   // zero actual would blow up
  const std::vector<double> forecast{5.0, 1.2};
  EXPECT_NEAR(mape(actual, forecast, 0.5), 20.0, 1e-9);
}

TEST(Series, MapeAllBelowFloorIsZero) {
  EXPECT_DOUBLE_EQ(mape({0.0, 0.0}, {1.0, 1.0}), 0.0);
}

TEST(Series, WindowMin) {
  const std::vector<double> a{5.0, 3.0, 8.0, 1.0, 9.0};
  EXPECT_EQ(window_min(a, 2), (std::vector<double>{3.0, 1.0, 9.0}));
  EXPECT_EQ(window_min(a, 5), (std::vector<double>{1.0}));
  EXPECT_THROW(window_min(a, 0), std::invalid_argument);
}

TEST(Series, CorrelationExtremes) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(correlation(a, a), 1.0, 1e-12);
  EXPECT_NEAR(correlation(a, scale(a, -1.0)), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(correlation(a, {2.0, 2.0, 2.0, 2.0}), 0.0);
}

TEST(Series, CorrelationOfIndependentNoiseIsSmall) {
  util::Rng rng{3};
  std::vector<double> a(5000);
  std::vector<double> b(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  EXPECT_LT(std::abs(correlation(a, b)), 0.05);
}

}  // namespace
}  // namespace vbatt::stats
