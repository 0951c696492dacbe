// Subgraph identification (§3.1 step 1).
//
// Find all k-cliques of the latency graph (k = 2..5 in the paper) and rank
// them by combined coefficient of variation of predicted power — low-cov
// subgraphs have complementary sites and give the scheduler headroom to
// absorb dips without migrating.
#pragma once

#include <cstddef>
#include <vector>

#include "vbatt/core/forecast_cache.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::core {

/// All cliques of exactly `k` vertices, each sorted ascending; the list is
/// in lexicographic order (deterministic).
std::vector<std::vector<std::size_t>> find_k_cliques(
    const net::LatencyGraph& graph, int k);

struct RankedSubgraph {
  std::vector<std::size_t> sites;
  /// Coefficient of variation of the subgraph's combined forecast power
  /// over the ranking window (lower = more complementary).
  double cov = 0.0;
  /// Mean combined cores over the window (used as a capacity tiebreak).
  double mean_cores = 0.0;
};

/// Mean and cov of one clique's combined series.
struct CliqueStats {
  double cov = 0.0;
  double mean = 0.0;
};

/// Statistics of the combined series of cliques [first, last): for each,
/// the per-tick sum of its members' `site_series[s][0, n_ticks)`, written
/// to out[c]. Runs Welford over four cliques per pass (tail lanes padded),
/// each lane doing exactly stats::RunningStats::add's arithmetic, so the
/// four dependent divide chains overlap and every value is bit-identical
/// to one RunningStats per clique.
void combined_series_stats(
    const std::vector<std::vector<std::size_t>>& cliques,
    const std::vector<const int*>& site_series, std::size_t n_ticks,
    std::size_t first, std::size_t last, std::vector<CliqueStats>& out);

/// Rank all k-cliques by combined *forecast* cov over [now, now + window).
/// Sorted ascending by cov. Materializes a local ForecastCache and fans
/// clique scoring across util::ThreadPool::shared() (serial when
/// VBATT_THREADS=1); results are bit-identical either way.
std::vector<RankedSubgraph> rank_subgraphs(const VbGraph& graph, int k,
                                           util::Tick now,
                                           util::Tick window_ticks);

/// Same ranking against a caller-owned cache (must cover
/// [now, min(n_ticks, now + window)) as seen from `now`) and an explicit
/// pool (nullptr = serial). This is the replan path: MipScheduler shares
/// one cache between capacity refresh and ranking. Clique scoring is
/// embarrassingly parallel — each clique owns one output slot — so the
/// pool changes wall-clock time only, never a bit of the result.
std::vector<RankedSubgraph> rank_subgraphs(const VbGraph& graph, int k,
                                           util::Tick now,
                                           util::Tick window_ticks,
                                           const ForecastCache& cache,
                                           util::ThreadPool* pool);

}  // namespace vbatt::core
