// VM-level simulation engine scaling bench: servers x VM load x ticks.
//
// Times the VM-level engine against its oracle on identical inputs:
//   reference  the pre-index engine (linear-scan placement over all
//              servers, rebuild-and-sort shrink, full live-map sweeps,
//              per-server energy scan), shared with the property fuzzer
//              as testkit::reference_vm_run — the fixed "before" baseline;
//   serial     run_fleet_simulation (SoA site blocks, free-cores bucket
//              index, calendar queues, incremental power counters) at one
//              shard with no pool;
//   parallel   the same engine with its shard phases on the shared
//              ThreadPool (shard count follows the pool width).
// Every row's three results are checked identical field-for-field
// (counters, moved_gb, energy series, per-site ledger) before any timing
// is reported. The headline row is the paper's single 700-server site over
// a full year of 15-minute ticks. Every row also records `setup_ms`, the
// single-shot time to build its inputs (fleet generation + VbGraph). It
// does not include forecasts: the graph fills them on the first forecast
// read, and the Greedy fleet engine never reads one. `--json <path>` writes the sweep for CI to archive; the
// binary exits non-zero if results diverge or the JSON cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "vbatt/core/fleet_sim.h"
#include "vbatt/energy/carbon.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/site.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/workload/app.h"
#include "vbatt/workload/batch.h"

namespace {

using namespace vbatt;

/// The cell's inputs: a wind fleet and its VbGraph (forecasts unfilled).
/// `setup_ms` gets the single-shot wall clock of building both.
core::VbGraph make_graph(int n_sites, double cores_per_mw, std::size_t ticks,
                         double& setup_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  energy::FleetConfig config;
  config.n_solar = 0;
  config.n_wind = n_sites;
  config.region_km = 500.0;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, ticks);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = cores_per_mw;
  core::VbGraph graph{fleet, graph_config};
  setup_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
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

struct Case {
  int n_sites = 1;
  double cores_per_mw = 70.0;  // x 400 MW peak = servers * 40 cores
  double apps_per_hour = 2.4;
  std::size_t days = 30;
  bool headline = false;
};

struct SweepRow {
  int sites = 0;
  int servers = 0;  // per site
  std::size_t days = 0;
  std::size_t apps = 0;
  std::size_t vms = 0;
  double setup_ms = 0.0;
  double ref_ms = 0.0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bit_identical = false;
  bool headline = false;
};

bool write_json(const std::string& path, const std::vector<SweepRow>& rows,
                double headline_speedup) {
  std::ofstream out{path};
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "scale_dcsim");
  json.field("threads", util::ThreadPool::default_threads());
  json.field("headline_speedup", headline_speedup);
  json.begin_array("results");
  for (const SweepRow& r : rows) {
    json.begin_object();
    json.field("sites", r.sites);
    json.field("servers_per_site", r.servers);
    json.field("days", r.days);
    json.field("apps", r.apps);
    json.field("vms", r.vms);
    json.field("setup_ms", r.setup_ms);
    json.field("ref_ms", r.ref_ms);
    json.field("serial_ms", r.serial_ms);
    json.field("parallel_ms", r.parallel_ms);
    json.field("serial_speedup", r.ref_ms / std::max(1e-9, r.serial_ms));
    json.field("parallel_speedup", r.ref_ms / std::max(1e-9, r.parallel_ms));
    json.field("bit_identical", r.bit_identical);
    json.field("headline", r.headline);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out.flush();
  return static_cast<bool>(out);
}

// --- fleet sweep ----------------------------------------------------------
//
// The sharded engine (run_fleet_simulation) at fleet scale: many sites,
// hundreds of servers each, up to a year of ticks, timed at 8 shards with
// no pool and on the shared pool. Cells of up to 100 sites are also run
// through the oracle (testkit::reference_vm_run, untimed) and
// cross-checked field-for-field; bigger ones check serial against pooled.
// The bench exits non-zero on divergence. The headline cell is 1000 sites
// x 700 servers x 1 year.

struct FleetCase {
  int n_sites = 10;
  double cores_per_mw = 70.0;  // 700 servers/site at 400 MW peak
  double apps_per_hour = 6.0;
  std::size_t days = 30;
  bool check = true;  // run the oracle and demand bit-identity
  bool headline = false;
  // "base" is the plain service workload; "mixed_econ" layers the batch
  // overlay (deadline jobs + harvest fillers) plus price and carbon
  // metering on the same fleet — the scenario cells perf_smoke gates.
  const char* scenario = "base";
};

struct FleetRow {
  int sites = 0;
  int servers = 0;  // per site
  std::size_t days = 0;
  std::size_t apps = 0;
  std::size_t vms = 0;
  double setup_ms = 0.0;
  double fleet_serial_ms = 0.0;
  double fleet_pool_ms = 0.0;
  bool checked = false;
  bool bit_identical = true;
  bool headline = false;
  std::string scenario = "base";
};

bool write_fleet_json(const std::string& path,
                      const std::vector<FleetRow>& rows) {
  std::ofstream out{path};
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "fleet_dcsim");
  json.field("threads", util::ThreadPool::default_threads());
  json.begin_array("results");
  for (const FleetRow& r : rows) {
    json.begin_object();
    json.field("sites", r.sites);
    json.field("scenario", r.scenario);
    json.field("servers_per_site", r.servers);
    json.field("days", r.days);
    json.field("apps", r.apps);
    json.field("vms", r.vms);
    json.field("setup_ms", r.setup_ms);
    json.field("fleet_serial_ms", r.fleet_serial_ms);
    json.field("fleet_pool_ms", r.fleet_pool_ms);
    // "checked": the cell was cross-checked against the oracle.
    json.field("checked", r.checked);
    json.field("bit_identical", r.bit_identical);
    json.field("headline", r.headline);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out.flush();
  return static_cast<bool>(out);
}

int run_fleet_sweep(const std::string& json_path, int max_sites,
                    util::ThreadPool* pool) {
  // apps_per_hour scales with fleet size so per-site load stays realistic;
  // the headline year accumulates millions of VM placements.
  const std::vector<FleetCase> cases = {
      {10, 70.0, 6.0, 30, true, false},
      {50, 70.0, 12.0, 30, true, false},   // CI / sanitizer cell
      {100, 70.0, 24.0, 30, true, false},
      {250, 70.0, 40.0, 90, false, false},
      {1000, 70.0, 60.0, 365, false, true},  // headline
      // Scenario cells: the same fleets with the batch overlay plus price
      // and carbon metering attached, still cross-checked bit-identical.
      {10, 70.0, 6.0, 30, true, false, "mixed_econ"},
      {50, 70.0, 12.0, 30, true, false, "mixed_econ"},
  };

  std::printf("fleet sweep (%zu thread%s)\n",
              util::ThreadPool::default_threads(),
              util::ThreadPool::default_threads() == 1 ? "" : "s");
  std::printf("  %5s %-10s %7s %5s %7s %9s | %9s | %9s %9s | %s\n",
              "sites", "scenario", "servers", "days", "apps", "vms",
              "setup ms", "serial ms", "pool ms", "identical");

  std::vector<FleetRow> rows;
  bool all_identical = true;
  for (const FleetCase& c : cases) {
    if (c.n_sites > max_sites) continue;
    const std::size_t ticks = 96 * c.days;
    FleetRow row;
    const core::VbGraph graph =
        make_graph(c.n_sites, c.cores_per_mw, ticks, row.setup_ms);
    workload::AppGeneratorConfig app_config;
    app_config.apps_per_hour = c.apps_per_hour;
    const auto apps =
        workload::generate_apps(app_config, util::TimeAxis{15}, ticks);

    row.sites = c.n_sites;
    row.servers = graph.site(0).capacity_cores / 40;
    row.days = c.days;
    row.apps = apps.size();
    for (const workload::Application& app : apps) {
      row.vms += static_cast<std::size_t>(app.n_stable + app.n_degradable);
    }
    row.checked = c.check;
    row.headline = c.headline;
    row.scenario = c.scenario;
    const int repeats = c.n_sites >= 250 ? 1 : 3;

    // Scenario cells attach the batch overlay and both econ meters; the
    // base cells run with an empty config, byte-identical to the sweep
    // before scenarios existed.
    const bool econ = row.scenario == "mixed_econ";
    workload::BatchWorkload batch;
    energy::SiteSeries price{1, 1};
    energy::SiteSeries carbon{1, 1};
    core::ScenarioExtensions ext;
    core::VmLevelConfig config;
    if (econ) {
      batch = workload::generate_batch({}, util::TimeAxis{15}, ticks);
      price = energy::make_price_series({}, util::TimeAxis{15},
                                        graph.n_sites(), ticks);
      carbon = energy::make_carbon_series({}, util::TimeAxis{15},
                                          graph.n_sites(), ticks);
      ext.batch = &batch;
      ext.price = &price;
      ext.carbon = &carbon;
      config.ext = &ext;
    }

    core::VmLevelResult fleet_serial{graph.n_sites(), ticks};
    core::VmLevelResult fleet_pool{graph.n_sites(), ticks};
    row.fleet_serial_ms = best_of_ms(repeats, [&] {
      core::GreedyScheduler scheduler;
      core::FleetSimOptions options;
      options.n_shards = 8;
      fleet_serial =
          core::run_fleet_simulation(graph, apps, scheduler, config, options);
    });
    row.fleet_pool_ms = best_of_ms(repeats, [&] {
      core::GreedyScheduler scheduler;
      core::FleetSimOptions options;
      options.pool = pool;  // shard count follows the pool width
      fleet_pool =
          core::run_fleet_simulation(graph, apps, scheduler, config, options);
    });
    // The two sharded configurations must always agree; small enough
    // cells must also match the oracle.
    row.bit_identical =
        testkit::diff_vm_results(fleet_serial, fleet_pool, graph.n_sites())
            .empty();
    if (c.check) {
      core::GreedyScheduler scheduler;
      const core::VmLevelResult oracle =
          testkit::reference_vm_run(graph, apps, scheduler, config);
      row.bit_identical =
          row.bit_identical &&
          testkit::diff_vm_results(oracle, fleet_serial, graph.n_sites())
              .empty();
    }
    all_identical = all_identical && row.bit_identical;
    rows.push_back(row);

    std::printf("  %5d %-10s %7d %5zu %7zu %9zu | %9.1f | %9.1f %9.1f | %s\n",
                row.sites, row.scenario.c_str(), row.servers, row.days,
                row.apps, row.vms, row.setup_ms, row.fleet_serial_ms,
                row.fleet_pool_ms, row.bit_identical ? "yes" : "NO");
  }

  if (!json_path.empty()) {
    if (!write_fleet_json(json_path, rows)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: sharded engine diverged from the reference\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool fleet = false;
  int fleet_max_sites = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--fleet") {
      fleet = true;
    } else if (arg == "--fleet-max-sites" && i + 1 < argc) {
      fleet = true;
      fleet_max_sites = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json out.json] [--fleet] "
                   "[--fleet-max-sites n]\n",
                   argv[0]);
      return 2;
    }
  }

  util::ThreadPool& shared = util::ThreadPool::shared();
  util::ThreadPool* pool = shared.size() > 0 ? &shared : nullptr;
  if (fleet) {
    // Fleet mode replaces the per-site sweep; --json names the fleet
    // archive (conventionally BENCH_fleet.json).
    return run_fleet_sweep(json_path, fleet_max_sites, pool);
  }
  std::printf("vm-level engine sweep (%zu thread%s)\n",
              util::ThreadPool::default_threads(),
              util::ThreadPool::default_threads() == 1 ? "" : "s");
  std::printf("  %5s %7s %5s %6s %7s | %9s | %9s %9s %9s | %7s %7s | %s\n",
              "sites", "servers", "days", "apps", "vms", "setup ms", "ref ms",
              "serial ms", "par ms", "ser x", "par x", "identical");

  // servers/site = 400 MW peak x cores_per_mw / 40 cores; the last row is
  // the headline: the paper's ~700-server site over a year of 15-min ticks.
  const std::vector<Case> cases = {
      {1, 17.5, 0.6, 30, false},   // 175 servers, light load
      {1, 35.0, 1.2, 30, false},   // 350 servers
      {1, 70.0, 2.4, 30, false},   // 700 servers
      {1, 70.0, 4.8, 30, false},   // 700 servers, double VM density
      {4, 17.5, 2.4, 30, false},   // multi-site: migrations + ledger traffic
      {1, 70.0, 2.4, 365, true},   // headline: 700 servers x 1 year
  };

  std::vector<SweepRow> rows;
  bool all_identical = true;
  double headline_speedup = 0.0;
  for (const Case& c : cases) {
    const std::size_t ticks = 96 * c.days;
    SweepRow row;
    const core::VbGraph graph =
        make_graph(c.n_sites, c.cores_per_mw, ticks, row.setup_ms);
    workload::AppGeneratorConfig app_config;
    app_config.apps_per_hour = c.apps_per_hour;
    const auto apps =
        workload::generate_apps(app_config, util::TimeAxis{15}, ticks);

    row.sites = c.n_sites;
    row.servers = graph.site(0).capacity_cores / 40;
    row.days = c.days;
    row.apps = apps.size();
    for (const workload::Application& app : apps) {
      row.vms += static_cast<std::size_t>(app.n_stable + app.n_degradable);
    }
    row.headline = c.headline;
    const int repeats = c.days >= 365 ? 2 : 3;

    core::VmLevelResult ref{graph.n_sites(), ticks};
    core::VmLevelResult serial{graph.n_sites(), ticks};
    core::VmLevelResult parallel{graph.n_sites(), ticks};
    row.ref_ms = best_of_ms(repeats, [&] {
      core::GreedyScheduler scheduler;
      ref = testkit::reference_vm_run(graph, apps, scheduler, {});
    });
    row.serial_ms = best_of_ms(repeats, [&] {
      core::GreedyScheduler scheduler;
      serial = core::run_fleet_simulation(graph, apps, scheduler, {},
                                          {.n_shards = 1});
    });
    row.parallel_ms = best_of_ms(repeats, [&] {
      core::GreedyScheduler scheduler;
      parallel = core::run_fleet_simulation(graph, apps, scheduler, {},
                                            {.pool = pool});
    });
    row.bit_identical =
        testkit::diff_vm_results(ref, serial, graph.n_sites()).empty() &&
        testkit::diff_vm_results(serial, parallel, graph.n_sites()).empty();
    all_identical = all_identical && row.bit_identical;
    if (c.headline) {
      headline_speedup = row.ref_ms / std::max(1e-9, row.serial_ms);
    }
    rows.push_back(row);

    std::printf(
        "  %5d %7d %5zu %6zu %7zu | %9.1f | %9.1f %9.1f %9.1f | %6.1fx %6.1fx "
        "| %s\n",
        row.sites, row.servers, row.days, row.apps, row.vms, row.setup_ms,
        row.ref_ms, row.serial_ms, row.parallel_ms,
        row.ref_ms / std::max(1e-9, row.serial_ms),
        row.ref_ms / std::max(1e-9, row.parallel_ms),
        row.bit_identical ? "yes" : "NO");
  }

  std::printf("headline (700 servers x 1 year): %.1fx vs pre-index engine\n",
              headline_speedup);
  if (!json_path.empty()) {
    if (!write_json(json_path, rows, headline_speedup)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: fleet engine diverged from the frozen "
                         "reference\n");
    return 1;
  }
  return 0;
}
