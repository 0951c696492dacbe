#include "vbatt/core/forecast_cache.h"

#include <gtest/gtest.h>

#include "vbatt/core/cliques.h"
#include "vbatt/energy/site.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::core {
namespace {

constexpr std::size_t kTicks = 96u * 8u;  // 8 days: beyond the 168 h lead

VbGraph make_graph(int n_solar = 2, int n_wind = 3,
                   std::size_t n_ticks = kTicks) {
  energy::FleetConfig config;
  config.n_solar = n_solar;
  config.n_wind = n_wind;
  config.region_km = 900.0;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, n_ticks);
  return VbGraph{fleet, VbGraphConfig{}};
}

TEST(ForecastSeries, MatchesPerTickForecastCoresEverywhere) {
  const VbGraph graph = make_graph();
  const auto n_ticks = static_cast<util::Tick>(graph.n_ticks());
  // `now` values probing the oracle boundary (begin < now), the shortest
  // lead, and leads beyond the last precomputed horizon (168 h = tick 672
  // from `now`, well inside the 768-tick trace for now = 0).
  for (const util::Tick now : {util::Tick{0}, util::Tick{7}, util::Tick{96},
                               n_ticks - 1}) {
    for (std::size_t s = 0; s < graph.n_sites(); ++s) {
      const std::vector<int> bulk =
          graph.forecast_series(s, now, 0, n_ticks);
      ASSERT_EQ(bulk.size(), static_cast<std::size_t>(n_ticks));
      for (util::Tick t = 0; t < n_ticks; ++t) {
        ASSERT_EQ(bulk[static_cast<std::size_t>(t)],
                  graph.forecast_cores(s, t, now))
            << "site " << s << " tick " << t << " now " << now;
      }
    }
  }
}

TEST(ForecastSeries, OracleBoundaryIsExactlyTargetLeNow) {
  const VbGraph graph = make_graph(1, 1);
  const util::Tick now = 50;
  const std::vector<int> bulk = graph.forecast_series(0, now, 40, 60);
  for (util::Tick t = 40; t <= now; ++t) {
    EXPECT_EQ(bulk[static_cast<std::size_t>(t - 40)],
              graph.available_cores(0, t));
  }
}

TEST(ForecastSeries, RejectsBadRanges) {
  const VbGraph graph = make_graph(1, 1, 96);
  EXPECT_THROW(graph.forecast_series(0, 0, -1, 10), std::out_of_range);
  EXPECT_THROW(graph.forecast_series(0, 0, 10, 5), std::out_of_range);
  EXPECT_THROW(graph.forecast_series(0, 0, 0, 97), std::out_of_range);
  EXPECT_NO_THROW(graph.forecast_series(0, 0, 0, 96));
  EXPECT_TRUE(graph.forecast_series(0, 0, 10, 10).empty());
}

TEST(ForecastCache, MaterializesOncePerKeyAndInvalidatesOnNow) {
  util::ThreadPool serial{0};
  const VbGraph graph = make_graph();
  ForecastCache cache;
  EXPECT_TRUE(cache.empty());
  cache.refresh(graph, 0, 0, 96, serial);
  EXPECT_TRUE(cache.matches(&graph, 0, 0, 96));
  EXPECT_FALSE(cache.matches(&graph, 24, 0, 96));  // `now` moved on

  const int first = cache.series(0)[0];
  cache.refresh(graph, 0, 0, 96, serial);  // same key: no-op
  EXPECT_EQ(cache.series(0)[0], first);

  cache.refresh(graph, 24, 24, 120, serial);
  EXPECT_TRUE(cache.matches(&graph, 24, 24, 120));
  EXPECT_EQ(cache.series(0).size(), 96u);
}

TEST(ForecastCache, SeriesAndPrefixSumsMatchPerTickApi) {
  util::ThreadPool serial{0};
  const VbGraph graph = make_graph();
  const util::Tick now = 12;
  const util::Tick end = 96 * 4;
  ForecastCache cache;
  cache.refresh(graph, now, now, end, serial);
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    std::int64_t rolling = 0;
    for (util::Tick t = now; t < end; ++t) {
      const int expected = graph.forecast_cores(s, t, now);
      ASSERT_EQ(cache.series(s)[static_cast<std::size_t>(t - now)], expected);
      rolling += expected;
      ASSERT_EQ(cache.range_sum(s, now, t + 1), rolling);
    }
    EXPECT_EQ(cache.range_sum(s, now, now), 0);
  }
  EXPECT_THROW(cache.range_sum(0, now - 1, end), std::out_of_range);
  EXPECT_THROW(cache.range_sum(0, now, end + 1), std::out_of_range);
}

TEST(ForecastCache, ParallelRefreshMatchesSerial) {
  util::ThreadPool serial_pool{0};
  const VbGraph graph = make_graph(3, 4);
  ForecastCache serial;
  serial.refresh(graph, 0, 0, 96 * 4, serial_pool);
  util::ThreadPool pool{3};
  ForecastCache parallel;
  parallel.refresh(graph, 0, 0, 96 * 4, pool);
  ASSERT_EQ(serial.n_sites(), parallel.n_sites());
  for (std::size_t s = 0; s < serial.n_sites(); ++s) {
    EXPECT_EQ(serial.series(s), parallel.series(s));
  }
}

TEST(RankSubgraphs, ParallelIsBitIdenticalToSerial) {
  util::ThreadPool serial_pool{0};
  const VbGraph graph = make_graph(3, 5);  // C(8,3) = 56 cliques
  const util::Tick now = 0;
  const util::Tick window = 96 * 3;
  ForecastCache cache;
  cache.refresh(graph, now, now, now + window, serial_pool);

  const std::vector<RankedSubgraph> serial =
      rank_subgraphs(graph, 3, now, window, cache, serial_pool);
  util::ThreadPool pool{4};
  const std::vector<RankedSubgraph> parallel =
      rank_subgraphs(graph, 3, now, window, cache, pool);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].sites, parallel[i].sites) << "rank " << i;
    // Bit-for-bit: exact double equality, not a tolerance.
    EXPECT_EQ(serial[i].cov, parallel[i].cov) << "rank " << i;
    EXPECT_EQ(serial[i].mean_cores, parallel[i].mean_cores) << "rank " << i;
  }
}

TEST(RankSubgraphs, CacheOverloadMatchesConvenienceOverload) {
  util::ThreadPool serial{0};
  const VbGraph graph = make_graph(2, 3);
  const util::Tick window = 96 * 2;
  const std::vector<RankedSubgraph> convenience =
      rank_subgraphs(graph, 2, 0, window);
  ForecastCache cache;
  cache.refresh(graph, 0, 0, window, serial);
  const std::vector<RankedSubgraph> cached =
      rank_subgraphs(graph, 2, 0, window, cache, serial);
  ASSERT_EQ(convenience.size(), cached.size());
  for (std::size_t i = 0; i < convenience.size(); ++i) {
    EXPECT_EQ(convenience[i].sites, cached[i].sites);
    EXPECT_EQ(convenience[i].cov, cached[i].cov);
    EXPECT_EQ(convenience[i].mean_cores, cached[i].mean_cores);
  }
}

TEST(RankSubgraphs, RejectsMismatchedCache) {
  util::ThreadPool serial{0};
  const VbGraph graph = make_graph(2, 2);
  ForecastCache cache;
  cache.refresh(graph, 24, 24, 96, serial);
  // Window as seen from a different `now` than the cache was keyed to.
  EXPECT_THROW(rank_subgraphs(graph, 2, 0, 48, cache, serial),
               std::invalid_argument);
  // Cache too short for the requested window.
  EXPECT_THROW(rank_subgraphs(graph, 2, 24, 96 * 4, cache, serial),
               std::invalid_argument);
}

}  // namespace
}  // namespace vbatt::core
