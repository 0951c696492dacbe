#include "vbatt/core/forecast_cache.h"

#include <stdexcept>

namespace vbatt::core {

void ForecastCache::refresh(const VbGraph& graph, util::Tick now,
                            util::Tick begin, util::Tick end,
                            util::ThreadPool* pool) {
  if (matches(&graph, now, begin, end)) return;
  graph_ = &graph;
  now_ = now;
  begin_ = begin;
  end_ = end;

  // Fill the graph's forecasts here, on the calling thread, where the
  // fill can fan over the shared pool; a first read inside a pool task
  // below would fill serially.
  graph.build_forecasts();
  const std::size_t n_sites = graph.n_sites();
  series_.assign(n_sites, {});
  prefix_.assign(n_sites, {});

  const auto materialize = [&](std::size_t first, std::size_t last) {
    for (std::size_t s = first; s < last; ++s) {
      series_[s] = graph.forecast_series(s, now, begin, end);
      const std::vector<int>& values = series_[s];
      std::vector<std::int64_t>& prefix = prefix_[s];
      prefix.resize(values.size() + 1);
      prefix[0] = 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        prefix[i + 1] = prefix[i] + values[i];
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_sites, materialize);
  } else {
    materialize(0, n_sites);
  }
}

std::int64_t ForecastCache::range_sum(std::size_t s, util::Tick a,
                                      util::Tick b) const {
  const std::vector<std::int64_t>& prefix = prefix_.at(s);
  if (a < begin_ || b < a || b > end_) {
    throw std::out_of_range{"ForecastCache::range_sum: bad range"};
  }
  return prefix[static_cast<std::size_t>(b - begin_)] -
         prefix[static_cast<std::size_t>(a - begin_)];
}

}  // namespace vbatt::core
