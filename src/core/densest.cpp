#include "vbatt/core/densest.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "vbatt/core/forecast_cache.h"
#include "vbatt/stats/running_stats.h"

namespace vbatt::core {

std::vector<std::size_t> densest_subgraph(const net::LatencyGraph& graph) {
  const std::size_t n = graph.size();
  if (n == 0) return {};

  std::vector<bool> alive(n, true);
  std::vector<int> degree(n, 0);
  int edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (graph.connected(i, j)) {
        ++degree[i];
        ++degree[j];
        ++edges;
      }
    }
  }

  std::vector<std::size_t> removal_order;
  removal_order.reserve(n);
  double best_density = -1.0;
  std::size_t best_prefix = 0;  // number of removals before the best set
  int remaining_edges = edges;
  std::size_t remaining = n;

  // Evaluate the full graph, then peel.
  std::vector<int> deg = degree;
  for (std::size_t step = 0; step < n; ++step) {
    const double density =
        static_cast<double>(remaining_edges) / static_cast<double>(remaining);
    if (density > best_density) {
      best_density = density;
      best_prefix = step;
    }
    // Remove the minimum-degree alive vertex (ties: smallest index).
    std::size_t victim = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v] && (victim == n || deg[v] < deg[victim])) victim = v;
    }
    alive[victim] = false;
    removal_order.push_back(victim);
    for (std::size_t u = 0; u < n; ++u) {
      if (alive[u] && graph.connected(victim, u)) {
        --deg[u];
        --remaining_edges;
      }
    }
    --remaining;
    if (remaining == 0) break;
  }

  // The best set is everything not removed in the first `best_prefix`
  // steps.
  std::vector<bool> removed(n, false);
  for (std::size_t i = 0; i < best_prefix; ++i) {
    removed[removal_order[i]] = true;
  }
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < n; ++v) {
    if (!removed[v]) out.push_back(v);
  }
  return out;
}

std::vector<RankedSubgraph> peel_candidate_groups(const VbGraph& graph,
                                                  int k, int count,
                                                  util::Tick now,
                                                  util::Tick window_ticks) {
  if (k < 1 || count < 1) {
    throw std::invalid_argument{"peel_candidate_groups: k/count < 1"};
  }
  const util::Tick end = std::min<util::Tick>(
      static_cast<util::Tick>(graph.n_ticks()), now + window_ticks);
  if (now < 0 || now >= end) {
    throw std::out_of_range{"peel_candidate_groups: bad window"};
  }

  // One forecast materialization for the whole peel instead of a
  // forecast_cores call per (site, tick, candidate-evaluation).
  ForecastCache cache;
  util::ThreadPool serial{0};
  cache.refresh(graph, now, now, end, serial);
  const std::size_t window = static_cast<std::size_t>(end - now);

  const auto group_stats = [&](const std::vector<std::size_t>& sites) {
    stats::RunningStats rs;
    for (std::size_t i = 0; i < window; ++i) {
      double cores = 0.0;
      for (const std::size_t s : sites) {
        cores += cache.series(s)[i];
      }
      rs.add(cores);
    }
    return rs;
  };

  std::vector<bool> used(graph.n_sites(), false);
  std::vector<RankedSubgraph> groups;
  for (int g = 0; g < count; ++g) {
    // Build the residual latency graph's dense core.
    std::vector<std::size_t> pool;
    for (std::size_t v = 0; v < graph.n_sites(); ++v) {
      if (!used[v]) pool.push_back(v);
    }
    if (static_cast<int>(pool.size()) < k) break;

    // Greedy complementarity selection inside the pool: start from the
    // unused site with the highest mean forecast, then repeatedly add the
    // *connected* site that minimizes the combined cov.
    std::vector<std::size_t> group;
    {
      // Seed scan over single sites: prefix sums give each mean in O(1).
      std::size_t seed = pool.front();
      double best_mean = -1.0;
      for (const std::size_t v : pool) {
        const double mean = static_cast<double>(cache.range_sum(v, now, end)) /
                            static_cast<double>(window);
        if (mean > best_mean) {
          best_mean = mean;
          seed = v;
        }
      }
      group.push_back(seed);
    }
    while (static_cast<int>(group.size()) < k) {
      std::size_t best = graph.n_sites();
      double best_cov = std::numeric_limits<double>::infinity();
      for (const std::size_t v : pool) {
        if (std::find(group.begin(), group.end(), v) != group.end()) continue;
        bool connected_to_all = true;
        for (const std::size_t u : group) {
          if (!graph.latency().connected(u, v)) {
            connected_to_all = false;
            break;
          }
        }
        if (!connected_to_all) continue;
        std::vector<std::size_t> candidate = group;
        candidate.push_back(v);
        const double cov = group_stats(candidate).cov();
        if (cov < best_cov) {
          best_cov = cov;
          best = v;
        }
      }
      if (best == graph.n_sites()) break;  // no connected extension
      group.push_back(best);
    }
    if (static_cast<int>(group.size()) < k) break;

    std::sort(group.begin(), group.end());
    const stats::RunningStats rs = group_stats(group);
    for (const std::size_t v : group) used[v] = true;
    groups.push_back(RankedSubgraph{std::move(group), rs.cov(), rs.mean()});
  }
  std::sort(groups.begin(), groups.end(),
            [](const RankedSubgraph& a, const RankedSubgraph& b) {
              return a.cov < b.cov;
            });
  return groups;
}

}  // namespace vbatt::core
