// Per-replan forecast materialization (the scheduler hot-path cache).
//
// Cliques overlap heavily: ranking C(n, k) subgraphs reads each site's
// forecast series hundreds of times, and MipScheduler::refresh_capacity
// reads it once more per bucket. This cache calls
// VbGraph::forecast_series exactly once per site per (now, window) and
// hands out contiguous int series (plus prefix sums for O(1) range
// sums). It is keyed by (graph, now, begin, end): a replan at a new
// `now` invalidates it, so entries never outlive the forecasts they
// were derived from.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/core/vb_graph.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::core {

class ForecastCache {
 public:
  /// Materialize every site's forecast-cores series for ticks
  /// [begin, end) as seen from `now`. No-op when the cache already holds
  /// exactly this key. Site materialization fans out over `pool`
  /// (deterministic: each site owns its slot).
  void refresh(const VbGraph& graph, util::Tick now, util::Tick begin,
               util::Tick end, util::ThreadPool& pool);

  /// Does the cache currently hold (graph, now, begin, end)?
  bool matches(const VbGraph* graph, util::Tick now, util::Tick begin,
               util::Tick end) const noexcept {
    return graph_ == graph && now_ == now && begin_ == begin && end_ == end;
  }

  bool empty() const noexcept { return graph_ == nullptr; }
  util::Tick now() const noexcept { return now_; }
  util::Tick begin() const noexcept { return begin_; }
  util::Tick end() const noexcept { return end_; }
  std::size_t n_sites() const noexcept { return series_.size(); }

  /// Site s's forecast cores for ticks [begin, end): element i is
  /// forecast_cores(s, begin + i, now), bit-identical to the per-tick API.
  const std::vector<int>& series(std::size_t s) const {
    return series_.at(s);
  }

  /// Sum of series(s) over ticks [a, b) (absolute ticks inside
  /// [begin, end)), via prefix sums; exact integer arithmetic.
  std::int64_t range_sum(std::size_t s, util::Tick a, util::Tick b) const;

 private:
  const VbGraph* graph_ = nullptr;
  util::Tick now_ = -1;
  util::Tick begin_ = 0;
  util::Tick end_ = 0;
  std::vector<std::vector<int>> series_;
  /// prefix_[s][i] = sum of the first i entries of series_[s].
  std::vector<std::vector<std::int64_t>> prefix_;
};

}  // namespace vbatt::core
