// Chaos sweep: fault intensity x scheduler on a 25-site VB fleet.
//
// For each (policy, intensity) cell a seeded fault schedule is generated
// (blackouts, brownouts, forecast corruption, WAN link flaps, server
// failures), baked into a FaultInjector, and driven through the VM-level
// simulator with the invariant checker armed on every tick. Reported per
// cell:
//   availability   stable-core availability (mean / min over apps)
//   p99 recovery   p99 / max length of contiguous displaced-stable runs,
//                  from SimResult::displaced_stable_cores_per_tick
//   abandoned rate abandoned moves / (executed + retried + abandoned)
// The intensity-0 row doubles as a regression gate: it must match a run
// with no injector installed field-for-field. `--json <path>` writes the
// sweep for CI to archive as BENCH_chaos.json; the binary exits non-zero
// on an invariant violation, an intensity-0 mismatch, or a JSON write
// failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "vbatt/core/availability.h"
#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/injector.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/workload/app.h"

namespace {

using namespace vbatt;

constexpr int kSolarSites = 10;
constexpr int kWindSites = 15;
constexpr std::size_t kDays = 7;
constexpr std::uint64_t kChaosSeed = 7;

struct CellResult {
  std::string policy;
  double intensity = 0.0;
  std::size_t events = 0;
  double availability_mean = 0.0;
  double availability_min = 0.0;
  double p99_recovery_ticks = 0.0;
  std::int64_t max_recovery_ticks = 0;
  std::int64_t displaced_stable_core_ticks = 0;
  std::int64_t retried_moves = 0;
  std::int64_t abandoned_moves = 0;
  double abandoned_move_rate = 0.0;
  std::int64_t fallback_activations = 0;
  std::int64_t faulted_site_ticks = 0;
  std::int64_t stable_vm_downtime_ticks = 0;
  std::int64_t checked_ticks = 0;
  double ms = 0.0;
};

core::VbGraph make_fleet(std::size_t ticks) {
  energy::FleetConfig config;
  config.n_solar = kSolarSites;
  config.n_wind = kWindSites;
  config.region_km = 2500.0;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, ticks);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return core::VbGraph{fleet, graph_config};
}

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& policy) {
  if (policy == "greedy") return std::make_unique<core::GreedyScheduler>();
  return std::make_unique<core::MipScheduler>(core::make_mip24h_config());
}

/// Lengths of contiguous displaced-stable episodes: how long the fleet
/// takes to re-home every stable core after a fault bites.
std::vector<std::int64_t> recovery_episodes(
    const std::vector<std::int64_t>& displaced_per_tick) {
  std::vector<std::int64_t> episodes;
  std::int64_t run = 0;
  for (const std::int64_t displaced : displaced_per_tick) {
    if (displaced > 0) {
      ++run;
    } else if (run > 0) {
      episodes.push_back(run);
      run = 0;
    }
  }
  if (run > 0) episodes.push_back(run);
  return episodes;
}

double percentile(std::vector<std::int64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return static_cast<double>(values[std::min(rank, values.size() - 1)]);
}

bool same_result(const core::VmLevelResult& a, const core::VmLevelResult& b) {
  return a.base.apps_placed == b.base.apps_placed &&
         a.base.planned_migrations == b.base.planned_migrations &&
         a.base.forced_migrations == b.base.forced_migrations &&
         a.base.displaced_stable_core_ticks ==
             b.base.displaced_stable_core_ticks &&
         a.base.paused_degradable_vm_ticks ==
             b.base.paused_degradable_vm_ticks &&
         a.base.energy_mwh == b.base.energy_mwh &&
         a.base.moved_gb == b.base.moved_gb &&
         a.base.displaced_stable_cores_per_tick ==
             b.base.displaced_stable_cores_per_tick &&
         a.vm_migrations == b.vm_migrations &&
         a.powered_server_ticks == b.powered_server_ticks;
}

bool write_json(const std::string& path, const core::VbGraph& graph,
                std::size_t n_apps, const std::vector<CellResult>& cells) {
  std::ofstream out{path};
  if (!out) return false;
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "chaos");
  json.field("sites", graph.n_sites());
  json.field("days", kDays);
  json.field("apps", n_apps);
  json.field("chaos_seed", kChaosSeed);
  json.field("threads", util::ThreadPool::default_threads());
  json.begin_array("results");
  for (const CellResult& c : cells) {
    json.begin_object();
    json.field("policy", c.policy);
    json.field("intensity", c.intensity);
    json.field("fault_events", c.events);
    json.field("availability_mean", c.availability_mean);
    json.field("availability_min", c.availability_min);
    json.field("p99_recovery_ticks", c.p99_recovery_ticks);
    json.field("max_recovery_ticks", c.max_recovery_ticks);
    json.field("displaced_stable_core_ticks", c.displaced_stable_core_ticks);
    json.field("retried_moves", c.retried_moves);
    json.field("abandoned_moves", c.abandoned_moves);
    json.field("abandoned_move_rate", c.abandoned_move_rate);
    json.field("fallback_activations", c.fallback_activations);
    json.field("faulted_site_ticks", c.faulted_site_ticks);
    json.field("stable_vm_downtime_ticks", c.stable_vm_downtime_ticks);
    json.field("invariant_checked_ticks", c.checked_ticks);
    json.field("ms", c.ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
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

  const std::size_t ticks = 96 * kDays;
  const core::VbGraph graph = make_fleet(ticks);
  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = 2.2;
  const auto apps =
      workload::generate_apps(app_config, util::TimeAxis{15}, ticks);

  bench::header("chaos sweep: fault intensity x scheduler, 25-site fleet");
  std::printf("  %zu sites, %zu days, %zu apps, chaos seed %llu\n",
              graph.n_sites(), kDays, apps.size(),
              static_cast<unsigned long long>(kChaosSeed));
  std::printf("  %-6s %9s | %9s %9s | %8s %7s | %7s %9s %9s\n", "policy",
              "intensity", "avail", "min", "p99 rec", "max rec", "aband%",
              "fallback", "downtime");

  const core::FleetSimOptions pooled{.pool = &util::ThreadPool::shared()};
  const std::vector<double> intensities = {0.0, 0.5, 1.0, 2.0};
  std::vector<CellResult> cells;
  bool invariants_ok = true;
  bool baseline_ok = true;

  for (const char* policy : {"greedy", "mip"}) {
    for (const double intensity : intensities) {
      fault::ChaosConfig chaos;
      chaos.intensity = intensity;
      const fault::FaultSchedule schedule =
          fault::make_chaos_schedule(graph, chaos, kChaosSeed);
      fault::FaultInjector injector{graph, schedule, kChaosSeed,
                                    /*check_invariants=*/true};
      core::VmLevelConfig config;
      config.faults.hooks = &injector;

      CellResult cell;
      cell.policy = policy;
      cell.intensity = intensity;
      cell.events = schedule.events.size();
      const auto scheduler = make_scheduler(policy);
      const auto t0 = std::chrono::steady_clock::now();
      core::VmLevelResult result{graph.n_sites(), ticks};
      try {
        result = core::run_fleet_simulation(injector.graph(), apps,
                                            *scheduler, config, pooled);
      } catch (const std::logic_error& e) {
        std::fprintf(stderr, "INVARIANT VIOLATION (%s @ %.1f): %s\n", policy,
                     intensity, e.what());
        invariants_ok = false;
        continue;
      }
      cell.ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

      if (intensity == 0.0) {
        // The zero-chaos cell must reproduce a run with no injector at all.
        const auto plain_sched = make_scheduler(policy);
        const core::VmLevelResult plain =
            core::run_fleet_simulation(graph, apps, *plain_sched, {}, pooled);
        if (!same_result(result, plain)) {
          std::fprintf(stderr,
                       "FAIL: %s intensity-0 run diverged from the "
                       "injector-free baseline\n",
                       policy);
          baseline_ok = false;
        }
      }

      const core::AvailabilityReport availability =
          core::availability_report(result.base, apps, ticks);
      cell.availability_mean = availability.mean;
      cell.availability_min = availability.min;
      const auto episodes =
          recovery_episodes(result.base.displaced_stable_cores_per_tick);
      cell.p99_recovery_ticks = percentile(episodes, 99.0);
      for (const std::int64_t len : episodes) {
        cell.max_recovery_ticks = std::max(cell.max_recovery_ticks, len);
      }
      cell.displaced_stable_core_ticks =
          result.base.displaced_stable_core_ticks;
      cell.retried_moves = result.base.retried_moves;
      cell.abandoned_moves = result.base.abandoned_moves;
      const std::int64_t move_attempts = result.base.planned_migrations +
                                         result.base.forced_migrations +
                                         result.base.abandoned_moves;
      cell.abandoned_move_rate =
          move_attempts == 0 ? 0.0
                             : static_cast<double>(cell.abandoned_moves) /
                                   static_cast<double>(move_attempts);
      cell.fallback_activations = result.base.fallback_activations;
      cell.faulted_site_ticks = result.base.faulted_site_ticks;
      cell.stable_vm_downtime_ticks = result.base.stable_vm_downtime_ticks;
      cell.checked_ticks = injector.checked_ticks();
      if (cell.checked_ticks != static_cast<std::int64_t>(ticks)) {
        std::fprintf(stderr,
                     "FAIL: checker saw %lld of %zu ticks (%s @ %.1f)\n",
                     static_cast<long long>(cell.checked_ticks), ticks,
                     policy, intensity);
        invariants_ok = false;
      }
      cells.push_back(cell);

      std::printf(
          "  %-6s %9.1f | %9.4f %9.4f | %8.0f %7lld | %6.2f%% %9lld %9lld\n",
          policy, intensity, cell.availability_mean, cell.availability_min,
          cell.p99_recovery_ticks,
          static_cast<long long>(cell.max_recovery_ticks),
          100.0 * cell.abandoned_move_rate,
          static_cast<long long>(cell.fallback_activations),
          static_cast<long long>(cell.stable_vm_downtime_ticks));
    }
  }

  if (!json_path.empty()) {
    if (!write_json(json_path, graph, apps.size(), cells)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!invariants_ok || !baseline_ok) return 1;
  return 0;
}
