// vbatt — command-line driver for the library.
//
//   vbatt trace     --source=wind --days=30 --seed=7 --out=trace.csv
//   vbatt fleet     --solar=4 --wind=6 --days=7 [--storms]
//   vbatt site-sim  --source=wind --days=90 --servers=700
//   vbatt schedule  --policy=mip --days=7 [--vm-level]
//                   [--chaos=<intensity> | --chaos-csv=faults.csv]
//                   [--chaos-seed=7]
//                   [--workload=deadline|harvest|mixed] [--batch-seed=17]
//                   [--objective=cost|carbon|peak]
//   vbatt forecast  --source=solar --lead=24
//
// Every run is deterministic for a given --seed.
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>

#include "args.h"
#include "vbatt/fault/stream.h"
#include "vbatt/vbatt.h"

namespace {

using namespace vbatt;

using tools::Args;

energy::PowerTrace make_trace(const Args& args, std::size_t ticks) {
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 11));
  if (args.get("source", "wind") == "solar") {
    energy::SolarConfig config;
    config.seed = seed;
    return energy::SolarModel{config}.generate(util::TimeAxis{15}, ticks);
  }
  energy::WindConfig config;
  config.seed = seed;
  return energy::WindModel{config}.generate(util::TimeAxis{15}, ticks);
}

int cmd_trace(const Args& args) {
  const auto days = static_cast<std::size_t>(args.number("days", 30));
  const energy::PowerTrace trace = make_trace(args, 96 * days);
  const std::string out = args.get("out", "trace.csv");
  energy::save_trace_csv(trace, out);
  stats::Sampler s{trace.normalized_series()};
  std::printf("wrote %zu samples to %s\n", trace.size(), out.c_str());
  std::printf("median=%.3f p75=%.3f p99=%.3f zeros=%.1f%% cov=%.2f\n",
              s.median(), s.percentile(75), s.percentile(99),
              100.0 * s.zero_fraction(), energy::trace_cov(trace));
  return 0;
}

int cmd_fleet(const Args& args) {
  const auto days = static_cast<std::size_t>(args.number("days", 7));
  energy::FleetConfig config;
  config.n_solar = static_cast<int>(args.number("solar", 4));
  config.n_wind = static_cast<int>(args.number("wind", 6));
  config.region_km = args.number("region", 2500.0);
  config.enable_storms = args.flag("storms");
  config.seed = static_cast<std::uint64_t>(args.number("seed", 1234));
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, 96 * days);

  std::printf("%-10s %-6s %8s %9s %10s\n", "site", "kind", "cov",
              "stable%", "MWh/day");
  std::vector<const energy::PowerTrace*> traces;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const energy::EnergySplit split = energy::decompose(fleet.traces[i]);
    std::printf("%-10s %-6s %8.2f %8.1f%% %10.0f\n",
                fleet.specs[i].name.c_str(),
                to_string(fleet.specs[i].source).c_str(),
                energy::trace_cov(fleet.traces[i]),
                100.0 * split.stable_fraction(),
                split.total_mwh() / static_cast<double>(days));
    traces.push_back(&fleet.traces[i]);
  }
  const energy::PowerTrace combined = energy::combine(traces);
  const energy::EnergySplit split = energy::decompose(combined);
  std::printf("%-10s %-6s %8.2f %8.1f%% %10.0f\n", "COMBINED", "-",
              energy::trace_cov(combined), 100.0 * split.stable_fraction(),
              split.total_mwh() / static_cast<double>(days));

  int improved = 0;
  int total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = i + 1; j < fleet.size(); ++j) {
      ++total;
      if (energy::pair_cov_improvement(fleet.traces[i], fleet.traces[j]) >
          0.5) {
        ++improved;
      }
    }
  }
  std::printf("%d/%d site pairs improve cov by >50%%\n", improved, total);
  return 0;
}

int cmd_site_sim(const Args& args) {
  const auto days = static_cast<std::size_t>(args.number("days", 90));
  const energy::PowerTrace trace = make_trace(args, 96 * days);

  dcsim::SiteSimConfig config;
  config.site.n_servers = static_cast<int>(args.number("servers", 700));
  workload::GeneratorConfig gen;
  const double cores = config.site.n_servers * config.site.server.cores;
  const double per_rate =
      workload::expected_steady_cores(gen) / gen.arrivals_per_hour;
  gen.arrivals_per_hour = args.number("load", 0.35) * cores / per_rate;
  const auto vms = workload::VmTraceGenerator{gen}.generate(
      util::TimeAxis{15}, trace.size());

  const dcsim::SiteSimResult result =
      dcsim::simulate_site(trace, vms, config);
  const double out_total =
      std::accumulate(result.out_gb.begin(), result.out_gb.end(), 0.0);
  const double in_total =
      std::accumulate(result.in_gb.begin(), result.in_gb.end(), 0.0);
  std::printf("%zu days on a %d-server %s-powered site (%zu VM arrivals):\n",
              days, config.site.n_servers,
              args.get("source", "wind").c_str(), vms.size());
  std::printf("  out-migration: %.0f GB, in-migration: %.0f GB\n", out_total,
              in_total);
  std::printf("  %.0f%% of power changes caused no migration\n",
              100.0 * result.no_migration_fraction());
  std::printf("  evicted=%lld relaunched=%lld rejected=%lld\n",
              static_cast<long long>(result.vms_evicted),
              static_cast<long long>(result.vms_relaunched),
              static_cast<long long>(result.vms_rejected));
  return 0;
}

int cmd_schedule(const Args& args) {
  const auto days = static_cast<std::size_t>(args.number("days", 7));
  energy::FleetConfig fleet_config;
  fleet_config.n_solar = static_cast<int>(args.number("solar", 4));
  fleet_config.n_wind = static_cast<int>(args.number("wind", 6));
  fleet_config.region_km = args.number("region", 2500.0);
  fleet_config.enable_storms = args.flag("storms");
  const energy::Fleet fleet =
      energy::generate_fleet(fleet_config, util::TimeAxis{15}, 96 * days);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = args.number("cores-per-mw", 20.0);
  const core::VbGraph graph{fleet, graph_config};

  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = args.number("apps-per-hour", 2.2);
  const auto apps =
      workload::generate_apps(app_config, util::TimeAxis{15}, 96 * days);

  // --chaos=<intensity> injects a seeded fault schedule (--chaos-seed);
  // --chaos-csv=<path> replays one from disk instead. Without either flag
  // no injector exists and the output is byte-identical to a chaos-free
  // build.
  const bool chaos = args.flag("chaos") || args.flag("chaos-csv");
  std::unique_ptr<fault::StreamInjector> injector;
  if (chaos) {
    fault::FaultSchedule schedule;
    const double seed_arg = args.number("chaos-seed", 7);
    if (seed_arg < 0) {
      std::fprintf(stderr, "ChaosConfig: field 'chaos-seed' must be >= 0, "
                           "got %g\n", seed_arg);
      return 2;
    }
    const auto chaos_seed = static_cast<std::uint64_t>(seed_arg);
    if (args.flag("chaos-csv")) {
      // The strict loader rejects out-of-range sites/ticks, link_down rows
      // naming no WAN link and overlapping same-site windows with
      // line/column positions.
      schedule = fault::load_schedule_csv(
          args.get("chaos-csv", ""),
          fault::ScheduleLoadLimits{graph.n_sites(), graph.n_ticks(),
                                    &graph.latency()});
    } else {
      fault::ChaosConfig chaos_config;
      chaos_config.intensity = args.number("chaos", 1.0);
      fault::validate_chaos_config(chaos_config);
      schedule = fault::make_chaos_schedule(graph, chaos_config, chaos_seed);
    }
    injector = std::make_unique<fault::StreamInjector>(graph, chaos_seed,
                                                       schedule);
  }
  const core::VbGraph& sim_graph = chaos ? injector->graph() : graph;
  core::FaultConfig fault_config;
  fault_config.hooks = injector.get();

  // --workload=deadline|harvest|mixed runs a batch overlay on top of the
  // service workload; --objective=cost|carbon|peak swaps the MIP's
  // second-stage objective (and for cost/carbon attaches the matching
  // per-site signal so the econ ledger meters the run). Both are strictly
  // opt-in: without the flags no overlay or series exists and the output
  // is byte-identical to a build without them.
  const std::string workload_mode = args.get("workload", "");
  workload::BatchWorkload batch;
  if (!workload_mode.empty()) {
    workload::BatchGeneratorConfig batch_config;
    batch_config.seed =
        static_cast<std::uint64_t>(args.number("batch-seed", 17));
    if (workload_mode == "deadline") {
      batch_config.tasks_per_hour = 0.0;
    } else if (workload_mode == "harvest") {
      batch_config.jobs_per_hour = 0.0;
    } else if (workload_mode != "mixed") {
      std::fprintf(stderr, "unknown --workload (deadline|harvest|mixed)\n");
      return 2;
    }
    batch =
        workload::generate_batch(batch_config, util::TimeAxis{15}, 96 * days);
  }
  const std::string objective = args.get("objective", "");
  energy::SiteSeries econ_series;
  if (objective == "cost") {
    econ_series = energy::make_price_series({}, util::TimeAxis{15},
                                            graph.n_sites(), graph.n_ticks());
  } else if (objective == "carbon") {
    econ_series = energy::make_carbon_series({}, util::TimeAxis{15},
                                             graph.n_sites(), graph.n_ticks());
  } else if (!objective.empty() && objective != "peak") {
    std::fprintf(stderr, "unknown --objective (cost|carbon|peak)\n");
    return 2;
  }
  core::ScenarioExtensions ext;
  if (!batch.empty()) ext.batch = &batch;
  if (objective == "cost") ext.price = &econ_series;
  if (objective == "carbon") ext.carbon = &econ_series;

  const std::string policy = args.get("policy", "mip");
  core::SimResult result{graph.n_sites(), graph.n_ticks()};
  if (policy == "replication") {
    if (chaos) {
      std::fprintf(stderr, "--chaos is not supported with --policy=replication\n");
      return 2;
    }
    if (ext.any() || !objective.empty()) {
      std::fprintf(stderr, "--workload / --objective are not supported with "
                           "--policy=replication\n");
      return 2;
    }
    result = core::run_replication_simulation(graph, apps, {});
  } else {
    std::unique_ptr<core::Scheduler> scheduler;
    if (!objective.empty() && policy != "mip") {
      std::fprintf(stderr, "--objective requires --policy=mip\n");
      return 2;
    }
    if (objective == "cost") {
      scheduler = std::make_unique<core::MipScheduler>(
          core::make_mip_cost_config(&econ_series));
    } else if (objective == "carbon") {
      scheduler = std::make_unique<core::MipScheduler>(
          core::make_mip_carbon_config(&econ_series));
    } else if (objective == "peak") {
      scheduler =
          std::make_unique<core::MipScheduler>(core::make_mip_peak_config());
    } else if (policy == "greedy") {
      scheduler = std::make_unique<core::GreedyScheduler>();
    } else if (policy == "mip24h") {
      scheduler =
          std::make_unique<core::MipScheduler>(core::make_mip24h_config());
    } else if (policy == "mippeak") {
      scheduler =
          std::make_unique<core::MipScheduler>(core::make_mip_peak_config());
    } else if (policy == "mip") {
      scheduler =
          std::make_unique<core::MipScheduler>(core::make_mip_config());
    } else {
      std::fprintf(stderr,
                   "unknown --policy (greedy|mip|mip24h|mippeak|replication)\n");
      return 2;
    }
    if (args.flag("vm-level")) {
      // The pool runs the fleet engine's per-shard phases; the shard
      // count follows its width and never changes the output.
      core::VmLevelConfig vm_config;
      vm_config.faults.hooks = injector.get();
      vm_config.ext = ext.any() ? &ext : nullptr;
      const core::VmLevelResult vm = core::run_fleet_simulation(
          sim_graph, apps, *scheduler, vm_config,
          core::FleetSimOptions{.pool = &util::ThreadPool::shared()});
      result = vm.base;
      std::printf("vm-level: %lld VM migrations, %lld fragmentation "
                  "failures, %lld powered server-ticks\n",
                  static_cast<long long>(vm.vm_migrations),
                  static_cast<long long>(vm.fragmentation_failures),
                  static_cast<long long>(vm.powered_server_ticks));
    } else {
      result = core::run_simulation(sim_graph, apps, *scheduler, {},
                                    chaos ? &fault_config : nullptr,
                                    ext.any() ? &ext : nullptr);
    }
  }

  const bool interrupted = util::shutdown_requested();
  if (interrupted) {
    // Flush what we have: series past completed_ticks are untouched zeros,
    // so the summary below covers exactly the simulated prefix.
    std::fprintf(stderr,
                 "interrupted by signal %d: partial results over %lld of %zu "
                 "ticks\n",
                 util::shutdown_signal(),
                 static_cast<long long>(result.completed_ticks),
                 graph.n_ticks());
  }
  const core::PolicyRow row = core::summarize(policy, result);
  std::printf("%s over %zu days (%zu apps):\n", policy.c_str(), days,
              apps.size());
  std::printf("  total=%.0f GB p99=%.0f peak=%.0f std=%.0f zero=%.0f%%\n",
              row.total_gb, row.p99_gb, row.peak_gb, row.std_gb,
              100.0 * row.zero_fraction);
  std::printf("  planned=%lld forced=%lld displaced=%lld energy=%.1f MWh\n",
              static_cast<long long>(row.planned_migrations),
              static_cast<long long>(row.forced_migrations),
              static_cast<long long>(row.displaced_stable_core_ticks),
              row.energy_mwh);
  const core::AvailabilityReport availability =
      core::availability_report(result, apps, graph.n_ticks());
  const energy::CarbonReport carbon = energy::compare_carbon(
      energy::CarbonConfig{}, util::TimeAxis{15}, result.energy_mwh_per_tick);
  std::printf("  availability: mean=%.4f min=%.4f three-nines=%.0f%%\n",
              availability.mean, availability.min,
              100.0 * availability.three_nines_fraction);
  std::printf("  carbon: %.2f tCO2 avoided vs grid (%.0f%%)\n",
              carbon.avoided_tco2(), 100.0 * carbon.avoided_fraction());
  if (chaos) {
    std::printf("  chaos: faulted-site-ticks=%lld retried=%lld "
                "abandoned=%lld fallbacks=%lld downtime-ticks=%lld\n",
                static_cast<long long>(result.faulted_site_ticks),
                static_cast<long long>(result.retried_moves),
                static_cast<long long>(result.abandoned_moves),
                static_cast<long long>(result.fallback_activations),
                static_cast<long long>(result.stable_vm_downtime_ticks));
  }
  if (!batch.empty()) {
    const workload::BatchStats& b = result.batch;
    std::printf("  batch: jobs=%lld done=%lld missed=%lld | harvest "
                "goodput=%lld/%lld core-ticks, tasks done=%lld missed=%lld, "
                "suspends=%lld resumes=%lld\n",
                static_cast<long long>(batch.jobs.size()),
                static_cast<long long>(b.deadline_jobs_completed),
                static_cast<long long>(b.deadline_jobs_missed),
                static_cast<long long>(b.harvest_goodput_core_ticks),
                static_cast<long long>(b.harvest_offered_core_ticks),
                static_cast<long long>(b.harvest_tasks_completed),
                static_cast<long long>(b.harvest_deadline_misses),
                static_cast<long long>(b.suspend_episodes),
                static_cast<long long>(b.resume_episodes));
  }
  if (objective == "cost") {
    std::printf("  electricity: $%.2f over the run\n", result.cost_usd);
  } else if (objective == "carbon") {
    std::printf("  grid-mix carbon: %.1f kgCO2 over the run\n",
                result.carbon_kg);
  }
  return interrupted ? util::kInterruptedExitCode : 0;
}

int cmd_forecast(const Args& args) {
  const auto days = static_cast<std::size_t>(args.number("days", 365));
  const energy::PowerTrace trace = make_trace(args, 96 * days);
  const energy::Forecaster forecaster;
  if (args.flag("lead")) {
    const double lead = args.number("lead", 24.0);
    std::printf("MAPE @ %.0f h: %.1f%%\n", lead,
                forecaster.measured_mape(trace, lead));
    return 0;
  }
  for (const double lead : {3.0, 6.0, 12.0, 24.0, 48.0, 96.0, 168.0}) {
    std::printf("  %5.0f h: %5.1f%%\n", lead,
                forecaster.measured_mape(trace, lead));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vbatt <command> [--key=value ...]\n"
               "commands:\n"
               "  trace      generate a power trace CSV\n"
               "  fleet      summarize a generated VB fleet\n"
               "  site-sim   single-site migration simulation (Fig 4)\n"
               "  schedule   multi-site policy run (Table 1); --chaos=<x>\n"
               "             injects a seeded fault schedule;\n"
               "             --workload=deadline|harvest|mixed adds a batch\n"
               "             overlay; --objective=cost|carbon|peak swaps the\n"
               "             MIP's second-stage objective\n"
               "  forecast   forecast-accuracy report (Fig 5)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  util::install_shutdown_handlers();
  const std::string command = argv[1];
  const Args args{argc, argv, /*first=*/2};
  try {
    if (command == "trace") return cmd_trace(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "site-sim") return cmd_site_sim(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "forecast") return cmd_forecast(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbatt: %s\n", e.what());
    return 2;
  }
  return usage();
}
