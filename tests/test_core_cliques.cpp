#include "vbatt/core/cliques.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "vbatt/energy/site.h"
#include "vbatt/stats/running_stats.h"
#include "vbatt/util/rng.h"

namespace vbatt::core {
namespace {

/// Latency graph from explicit points.
net::LatencyGraph graph_of(const std::vector<util::GeoPoint>& pts,
                           double threshold_ms = 50.0) {
  return net::LatencyGraph{pts, net::RttModel{}, threshold_ms};
}

TEST(Cliques, SinglesAndPairs) {
  // Triangle 0-1-2 plus isolated 3.
  const auto g = graph_of({{0, 0}, {100, 0}, {0, 100}, {90000, 90000}});
  EXPECT_EQ(find_k_cliques(g, 1).size(), 4u);
  const auto pairs = find_k_cliques(g, 2);
  EXPECT_EQ(pairs.size(), 3u);
  const auto triangles = find_k_cliques(g, 3);
  ASSERT_EQ(triangles.size(), 1u);
  EXPECT_EQ(triangles[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(find_k_cliques(g, 4).empty());
  EXPECT_THROW(find_k_cliques(g, 0), std::invalid_argument);
}

TEST(Cliques, CompleteGraphCounts) {
  // 6 nearby sites: C(6,k) cliques.
  std::vector<util::GeoPoint> pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({static_cast<double>(i) * 10.0, 0.0});
  }
  const auto g = graph_of(pts);
  EXPECT_EQ(find_k_cliques(g, 2).size(), 15u);
  EXPECT_EQ(find_k_cliques(g, 3).size(), 20u);
  EXPECT_EQ(find_k_cliques(g, 4).size(), 15u);
  EXPECT_EQ(find_k_cliques(g, 5).size(), 6u);
}

TEST(Cliques, MatchesBruteForceOnRandomGraphs) {
  // Property check: enumerate subsets directly and compare counts.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng{seed};
    std::vector<util::GeoPoint> pts;
    for (int i = 0; i < 9; ++i) {
      pts.push_back({rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)});
    }
    const auto g = graph_of(pts);
    for (int k = 2; k <= 4; ++k) {
      const auto found = find_k_cliques(g, k);
      // Brute force.
      std::size_t expected = 0;
      const int n = static_cast<int>(pts.size());
      for (int mask = 0; mask < (1 << n); ++mask) {
        if (__builtin_popcount(static_cast<unsigned>(mask)) != k) continue;
        bool clique = true;
        for (int a = 0; a < n && clique; ++a) {
          if (!(mask & (1 << a))) continue;
          for (int b = a + 1; b < n && clique; ++b) {
            if (!(mask & (1 << b))) continue;
            clique = g.connected(static_cast<std::size_t>(a),
                                 static_cast<std::size_t>(b));
          }
        }
        if (clique) ++expected;
      }
      EXPECT_EQ(found.size(), expected) << "seed " << seed << " k " << k;
      // Each returned clique truly is one.
      for (const auto& clique : found) {
        for (std::size_t a = 0; a < clique.size(); ++a) {
          for (std::size_t b = a + 1; b < clique.size(); ++b) {
            EXPECT_TRUE(g.connected(clique[a], clique[b]));
          }
        }
      }
    }
  }
}

TEST(RankSubgraphs, SortedByCovAndComplementaryFirst) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 4;
  config.region_km = 400.0;  // complete graph
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, 96 * 4);
  const VbGraph graph{fleet, VbGraphConfig{}};
  const auto ranked = rank_subgraphs(graph, 2, 0, 96 * 3);
  ASSERT_EQ(ranked.size(), 15u);  // C(6,2)
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].cov, ranked[i].cov);
  }
  // The best pair should beat a solar+solar pair (both sites die at night).
  double solar_pair_cov = -1.0;
  for (const RankedSubgraph& r : ranked) {
    if (r.sites == std::vector<std::size_t>{0, 1}) solar_pair_cov = r.cov;
  }
  ASSERT_GE(solar_pair_cov, 0.0);
  EXPECT_LT(ranked.front().cov, solar_pair_cov);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The lane kernel against one RunningStats per clique, bit for bit, for
/// every clique count from empty through two full groups plus a tail.
void expect_lanes_match_running_stats(
    const std::vector<std::vector<int>>& sites, std::size_t n_ticks) {
  std::vector<const int*> series;
  for (const std::vector<int>& s : sites) series.push_back(s.data());
  // Mixed sizes and repeated members: lanes must not assume equal k.
  std::vector<std::vector<std::size_t>> all;
  for (std::size_t c = 0; c < 9; ++c) {
    std::vector<std::size_t> clique;
    for (std::size_t m = 0; m <= c % 3; ++m) {
      clique.push_back((c + 2 * m) % sites.size());
    }
    all.push_back(clique);
  }
  for (const std::size_t count : {0u, 1u, 3u, 4u, 5u, 9u}) {
    const std::vector<std::vector<std::size_t>> cliques(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
    std::vector<CliqueStats> got(count);
    combined_series_stats(cliques, series, n_ticks, 0, count, got);
    for (std::size_t c = 0; c < count; ++c) {
      stats::RunningStats rs;
      for (std::size_t i = 0; i < n_ticks; ++i) {
        double cores = 0.0;
        for (const std::size_t s : cliques[c]) cores += series[s][i];
        rs.add(cores);
      }
      EXPECT_TRUE(same_bits(got[c].cov, rs.cov()))
          << "count " << count << " clique " << c << ": " << got[c].cov
          << " vs " << rs.cov();
      EXPECT_TRUE(same_bits(got[c].mean, rs.mean()))
          << "count " << count << " clique " << c << ": " << got[c].mean
          << " vs " << rs.mean();
    }
  }
}

TEST(CliqueStatsLanes, MatchRunningStatsOnRandomSeries) {
  util::Rng rng{17};
  std::vector<std::vector<int>> sites(6, std::vector<int>(200));
  for (std::vector<int>& s : sites) {
    for (int& v : s) v = static_cast<int>(rng.below(5000));
  }
  expect_lanes_match_running_stats(sites, 200);
  expect_lanes_match_running_stats(sites, 1);  // one sample: variance 0
  expect_lanes_match_running_stats(sites, 0);  // empty window
}

TEST(CliqueStatsLanes, ConstantSeriesHaveZeroCov) {
  std::vector<std::vector<int>> sites(4, std::vector<int>(96, 37));
  expect_lanes_match_running_stats(sites, 96);
  std::vector<const int*> series{sites[0].data(), sites[1].data()};
  std::vector<CliqueStats> got(1);
  combined_series_stats({{0, 1}}, series, 96, 0, 1, got);
  EXPECT_EQ(got[0].cov, 0.0);
  EXPECT_EQ(got[0].mean, 74.0);
}

TEST(CliqueStatsLanes, AllZeroSeriesTakeTheZeroMeanBranch) {
  std::vector<std::vector<int>> sites(3, std::vector<int>(50, 0));
  expect_lanes_match_running_stats(sites, 50);
  std::vector<const int*> series{sites[0].data()};
  std::vector<CliqueStats> got(1);
  combined_series_stats({{0}}, series, 50, 0, 1, got);
  EXPECT_EQ(got[0].cov, 0.0);
  EXPECT_EQ(got[0].mean, 0.0);
}

TEST(RankSubgraphs, WindowValidation) {
  energy::FleetConfig config;
  config.n_solar = 1;
  config.n_wind = 1;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, 96);
  const VbGraph graph{fleet, VbGraphConfig{}};
  EXPECT_THROW(rank_subgraphs(graph, 2, -1, 10), std::out_of_range);
  EXPECT_THROW(rank_subgraphs(graph, 2, 96, 10), std::out_of_range);
}

}  // namespace
}  // namespace vbatt::core
