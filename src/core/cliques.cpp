#include "vbatt/core/cliques.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "vbatt/stats/running_stats.h"

namespace vbatt::core {

namespace {

/// Depth-indexed candidate bitsets for the clique recursion: one
/// row_words-wide row per level, allocated once up front.
struct CandidateStack {
  std::size_t words = 0;
  std::vector<std::uint64_t> rows;

  CandidateStack(int depth, std::size_t row_words)
      : words{row_words},
        rows(static_cast<std::size_t>(depth) * row_words, 0) {}

  std::uint64_t* row(int level) {
    return rows.data() + static_cast<std::size_t>(level) * words;
  }
};

/// Extend `current` (members at levels < depth) with vertices from the
/// candidate set at `depth`: vertices greater than the last member and
/// adjacent to every member. Candidates are packed bitsets, so the
/// per-member connected() probes of the old implementation collapse into
/// one word-wise AND with the new vertex's adjacency row.
void extend_clique(const net::LatencyGraph& graph, int k,
                   std::vector<std::size_t>& current, int depth,
                   CandidateStack& stack,
                   std::vector<std::vector<std::size_t>>& out) {
  const std::size_t words = stack.words;
  const std::uint64_t* cand = stack.row(depth);

  // Prune: not enough candidates left to reach k members.
  std::size_t available = 0;
  for (std::size_t w = 0; w < words; ++w) {
    available += static_cast<std::size_t>(std::popcount(cand[w]));
  }
  if (static_cast<int>(current.size()) + static_cast<int>(available) < k) {
    return;
  }

  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = cand[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t v = w * 64 + static_cast<std::size_t>(bit);

      current.push_back(v);
      if (static_cast<int>(current.size()) == k) {
        out.push_back(current);
        current.pop_back();
        continue;
      }
      // Next level: candidates adjacent to v as well, restricted to > v.
      const std::uint64_t* adj = graph.adjacency_row(v);
      std::uint64_t* next = stack.row(depth + 1);
      for (std::size_t i = 0; i < w; ++i) next[i] = 0;
      next[w] = cand[w] & adj[w] & ~((std::uint64_t{2} << bit) - 1);
      for (std::size_t i = w + 1; i < words; ++i) {
        next[i] = cand[i] & adj[i];
      }
      extend_clique(graph, k, current, depth + 1, stack, out);
      current.pop_back();
    }
  }
}

std::vector<RankedSubgraph> score_cliques(
    std::vector<std::vector<std::size_t>> cliques, const ForecastCache& cache,
    util::Tick now, util::Tick end, util::ThreadPool* pool) {
  const std::size_t n_ticks = static_cast<std::size_t>(end - now);
  const std::size_t offset = static_cast<std::size_t>(now - cache.begin());

  // Raw series pointers per site, so the tick loop reads contiguous ints
  // with no vector indirection.
  std::vector<const int*> series(cache.n_sites());
  for (std::size_t s = 0; s < series.size(); ++s) {
    series[s] = cache.series(s).data() + offset;
  }
  std::vector<CliqueStats> stats(cliques.size());
  const auto score_range = [&](std::size_t first, std::size_t last) {
    combined_series_stats(cliques, series, n_ticks, first, last, stats);
  };
  if (pool != nullptr) {
    pool->parallel_for(cliques.size(), score_range);
  } else {
    score_range(0, cliques.size());
  }

  std::vector<RankedSubgraph> out(cliques.size());
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    out[c] = RankedSubgraph{std::move(cliques[c]), stats[c].cov,
                            stats[c].mean};
  }
  std::sort(out.begin(), out.end(),
            [](const RankedSubgraph& a, const RankedSubgraph& b) {
              if (a.cov != b.cov) return a.cov < b.cov;
              return a.sites < b.sites;
            });
  return out;
}

}  // namespace

void combined_series_stats(
    const std::vector<std::vector<std::size_t>>& cliques,
    const std::vector<const int*>& site_series, std::size_t n_ticks,
    std::size_t first, std::size_t last, std::vector<CliqueStats>& out) {
  constexpr std::size_t kLanes = 4;
  // Lane l sums members [lane_begin[l], lane_begin[l + 1]) of `members`.
  std::vector<const int*> members;
  std::array<std::size_t, kLanes + 1> lane_begin{};
  for (std::size_t c0 = first; c0 < last; c0 += kLanes) {
    members.clear();
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane_begin[l] = members.size();
      // Tail lanes re-run the group's first clique; their results are
      // dropped.
      const std::size_t c = c0 + l < last ? c0 + l : c0;
      for (const std::size_t s : cliques[c]) {
        members.push_back(site_series[s]);
      }
    }
    lane_begin[kLanes] = members.size();

    std::array<double, kLanes> mean{};
    std::array<double, kLanes> m2{};
    for (std::size_t i = 0; i < n_ticks; ++i) {
      const auto count = static_cast<double>(i + 1);
      for (std::size_t l = 0; l < kLanes; ++l) {
        double x = 0.0;
        for (std::size_t m = lane_begin[l]; m < lane_begin[l + 1]; ++m) {
          x += members[m][i];
        }
        const double delta = x - mean[l];
        mean[l] += delta / count;
        m2[l] += delta * (x - mean[l]);
      }
    }
    for (std::size_t l = 0; l < kLanes && c0 + l < last; ++l) {
      out[c0 + l] = CliqueStats{
          stats::RunningStats::cov_of(n_ticks, mean[l], m2[l]),
          n_ticks > 0 ? mean[l] : 0.0};
    }
  }
}

std::vector<std::vector<std::size_t>> find_k_cliques(
    const net::LatencyGraph& graph, int k) {
  if (k < 1) throw std::invalid_argument{"find_k_cliques: k < 1"};
  std::vector<std::vector<std::size_t>> out;
  const std::size_t n = graph.size();
  if (n == 0) return out;

  CandidateStack stack{k + 1, graph.row_words()};
  std::uint64_t* all = stack.row(0);
  for (std::size_t v = 0; v < n; ++v) {
    all[v / 64] |= std::uint64_t{1} << (v % 64);
  }
  std::vector<std::size_t> current;
  current.reserve(static_cast<std::size_t>(k));
  extend_clique(graph, k, current, 0, stack, out);
  return out;
}

std::vector<RankedSubgraph> rank_subgraphs(const VbGraph& graph, int k,
                                           util::Tick now,
                                           util::Tick window_ticks,
                                           const ForecastCache& cache,
                                           util::ThreadPool* pool) {
  const util::Tick end = std::min<util::Tick>(
      static_cast<util::Tick>(graph.n_ticks()), now + window_ticks);
  if (now < 0 || now >= end) {
    throw std::out_of_range{"rank_subgraphs: bad window"};
  }
  if (cache.now() != now || cache.begin() > now || cache.end() < end) {
    throw std::invalid_argument{"rank_subgraphs: cache/window mismatch"};
  }
  return score_cliques(find_k_cliques(graph.latency(), k), cache, now, end,
                       pool);
}

std::vector<RankedSubgraph> rank_subgraphs(const VbGraph& graph, int k,
                                           util::Tick now,
                                           util::Tick window_ticks) {
  const util::Tick end = std::min<util::Tick>(
      static_cast<util::Tick>(graph.n_ticks()), now + window_ticks);
  if (now < 0 || now >= end) {
    throw std::out_of_range{"rank_subgraphs: bad window"};
  }
  util::ThreadPool& pool = util::ThreadPool::shared();
  util::ThreadPool* pool_ptr = pool.size() > 0 ? &pool : nullptr;
  ForecastCache cache;
  cache.refresh(graph, now, now, end, pool_ptr);
  return rank_subgraphs(graph, k, now, window_ticks, cache, pool_ptr);
}

}  // namespace vbatt::core
