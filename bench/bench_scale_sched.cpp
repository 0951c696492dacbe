// Scheduler hot-path scaling bench: fleet size x clique size.
//
// Times three generations of the clique-ranking pipeline on the same
// fleet:
//   reference  the pre-cache implementation (per-member connected()
//              enumeration, per-tick lead-searching forecast_cores calls)
//              kept here verbatim as the fixed "before" baseline;
//   serial     bitset enumeration + ForecastCache, single thread
//              (what VBATT_THREADS=1 runs);
//   parallel   the same plus ThreadPool fan-out across
//              ThreadPool::default_threads() lanes.
// Results are checked bit-identical across all three before any timing is
// reported. `--json <path>` additionally writes the sweep as JSON so CI
// can archive the perf trajectory headlessly; the binary exits non-zero
// if results diverge or the JSON cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "vbatt/core/cliques.h"
#include "vbatt/energy/site.h"
#include "vbatt/stats/running_stats.h"
#include "vbatt/util/thread_pool.h"

namespace {

using namespace vbatt;

constexpr util::Tick kWindow = 96;  // one day of 15-minute ticks

// --- Seed implementation, frozen as the baseline -------------------------

void reference_extend(const net::LatencyGraph& graph, int k,
                      std::vector<std::size_t>& current,
                      std::size_t next_candidate,
                      std::vector<std::vector<std::size_t>>& out) {
  if (static_cast<int>(current.size()) == k) {
    out.push_back(current);
    return;
  }
  for (std::size_t v = next_candidate; v < graph.size(); ++v) {
    bool adjacent_to_all = true;
    for (const std::size_t u : current) {
      if (!graph.connected(u, v)) {
        adjacent_to_all = false;
        break;
      }
    }
    if (!adjacent_to_all) continue;
    current.push_back(v);
    reference_extend(graph, k, current, v + 1, out);
    current.pop_back();
  }
}

std::vector<core::RankedSubgraph> reference_rank(const core::VbGraph& graph,
                                                 int k, util::Tick now,
                                                 util::Tick window_ticks) {
  const util::Tick end = std::min<util::Tick>(
      static_cast<util::Tick>(graph.n_ticks()), now + window_ticks);
  std::vector<std::vector<std::size_t>> cliques;
  std::vector<std::size_t> current;
  reference_extend(graph.latency(), k, current, 0, cliques);
  std::vector<core::RankedSubgraph> out;
  for (auto& clique : cliques) {
    stats::RunningStats rs;
    for (util::Tick t = now; t < end; ++t) {
      double cores = 0.0;
      for (const std::size_t s : clique) {
        cores += graph.forecast_cores(s, t, now);
      }
      rs.add(cores);
    }
    out.push_back(core::RankedSubgraph{std::move(clique), rs.cov(), rs.mean()});
  }
  std::sort(out.begin(), out.end(),
            [](const core::RankedSubgraph& a, const core::RankedSubgraph& b) {
              if (a.cov != b.cov) return a.cov < b.cov;
              return a.sites < b.sites;
            });
  return out;
}

// -------------------------------------------------------------------------

core::VbGraph make_graph(int n_sites) {
  energy::FleetConfig config;
  config.n_solar = n_sites / 2;
  config.n_wind = n_sites - n_sites / 2;
  config.region_km = 2500.0;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, kWindow * 2);
  core::VbGraph graph{fleet, core::VbGraphConfig{}};
  // Pay the first-read forecast fill here, not in the first timed pass.
  graph.build_forecasts();
  return graph;
}

template <typename Fn>
double best_of_ms(int repeats, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

bool identical(const std::vector<core::RankedSubgraph>& a,
               const std::vector<core::RankedSubgraph>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sites != b[i].sites || a[i].cov != b[i].cov ||
        a[i].mean_cores != b[i].mean_cores) {
      return false;
    }
  }
  return true;
}

struct SweepRow {
  int sites = 0;
  int k = 0;
  std::size_t cliques = 0;
  double ref_ms = 0.0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bit_identical = false;
};

bool write_json(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream out{path};
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "scale_sched");
  json.field("window_ticks", kWindow);
  json.field("threads", util::ThreadPool::default_threads());
  json.begin_array("results");
  for (const SweepRow& r : rows) {
    json.begin_object();
    json.field("sites", r.sites);
    json.field("k", r.k);
    json.field("cliques", r.cliques);
    json.field("ref_ms", r.ref_ms);
    json.field("serial_ms", r.serial_ms);
    json.field("parallel_ms", r.parallel_ms);
    json.field("serial_speedup", r.ref_ms / std::max(1e-9, r.serial_ms));
    json.field("parallel_speedup", r.ref_ms / std::max(1e-9, r.parallel_ms));
    json.field("bit_identical", r.bit_identical);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      return 2;
    }
  }

  util::ThreadPool serial_pool{0};
  util::ThreadPool& pool = util::ThreadPool::shared();
  std::printf("scheduler hot-path sweep (window %lld ticks, %zu thread%s)\n",
              static_cast<long long>(kWindow),
              util::ThreadPool::default_threads(),
              util::ThreadPool::default_threads() == 1 ? "" : "s");
  std::printf("  %5s %2s %8s | %9s %9s %9s | %7s %7s | %s\n", "sites", "k",
              "cliques", "ref ms", "serial ms", "par ms", "ser x", "par x",
              "identical");

  std::vector<SweepRow> rows;
  bool all_identical = true;
  for (const int n_sites : {10, 15, 20, 25}) {
    const core::VbGraph graph = make_graph(n_sites);
    for (const int k : {2, 3, 4}) {
      const int repeats = n_sites >= 25 && k >= 4 ? 3 : 5;

      std::vector<core::RankedSubgraph> ref, serial, parallel;
      SweepRow row;
      row.sites = n_sites;
      row.k = k;
      row.ref_ms = best_of_ms(
          repeats, [&] { ref = reference_rank(graph, k, 0, kWindow); });
      row.serial_ms = best_of_ms(repeats, [&] {
        core::ForecastCache cache;
        cache.refresh(graph, 0, 0, kWindow, serial_pool);
        serial =
            core::rank_subgraphs(graph, k, 0, kWindow, cache, serial_pool);
      });
      row.parallel_ms = best_of_ms(repeats, [&] {
        core::ForecastCache cache;
        cache.refresh(graph, 0, 0, kWindow, pool);
        parallel = core::rank_subgraphs(graph, k, 0, kWindow, cache, pool);
      });
      row.cliques = ref.size();
      row.bit_identical =
          identical(ref, serial) && identical(serial, parallel);
      all_identical = all_identical && row.bit_identical;
      rows.push_back(row);

      std::printf("  %5d %2d %8zu | %9.2f %9.2f %9.2f | %6.1fx %6.1fx | %s\n",
                  n_sites, k, row.cliques, row.ref_ms, row.serial_ms,
                  row.parallel_ms, row.ref_ms / std::max(1e-9, row.serial_ms),
                  row.ref_ms / std::max(1e-9, row.parallel_ms),
                  row.bit_identical ? "yes" : "NO");
    }
  }

  if (!json_path.empty()) {
    if (!write_json(json_path, rows)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: optimized results diverged from reference\n");
    return 1;
  }
  return 0;
}
