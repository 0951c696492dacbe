// schedule_mip: the paper's Table 1 flow, `vbatt schedule --policy=mip
// --days=7` — app-level run_simulation under the MIP scheduler on one
// thread. The scheduler takes nearly all of the run, so solver, model
// cache and engine-selection changes show here while the simulator is
// nearly idle.
//
// A run sweeps several instances of the canonical Table 1 input (the
// CLI's default fleet and arrival trace), each with its own forecast-error
// draw from the run seed, and reports sums over the sweep. Drawing whole
// fleets or arrival traces from the seed instead makes run time and
// migration volume swing by up to 2x between seeds, far beyond any bound
// a regression gate could use.
#include <string>
#include <vector>

#include "harness.h"
#include "timed_scheduler.h"
#include "vbatt/core/evaluation.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/workload/app.h"

namespace e2e {

namespace {

using namespace vbatt;

// Three instances keep a pass near 4 s, so a run fits enough passes for
// each instance's mean to be steady: the host's speed, not the forecast
// draw, is what moves run_s (one seed's run_s spread 7.3-9.7 s
// over three runs of six instances, as wide as ten seeds').
constexpr int kInstances = 3;

struct Instance {
  core::VbGraph graph;
  std::vector<workload::Application> apps;
};

// 4 solar + 6 wind sites over 7 days at 2.2 apps/h, the CLI's Table 1
// defaults; `forecast_seed` draws the forecast errors.
Instance build_instance(std::uint64_t forecast_seed, Tracer* spans) {
  const std::size_t ticks = 96 * 7;
  energy::FleetConfig fleet_config;
  fleet_config.n_solar = 4;
  fleet_config.n_wind = 6;
  fleet_config.region_km = 2500.0;
  const energy::Fleet fleet = traced(spans, "energy.fleet_gen", [&] {
    return energy::generate_fleet(fleet_config, util::TimeAxis{15}, ticks);
  });
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 20.0;
  graph_config.forecaster.seed = forecast_seed;
  core::VbGraph graph = traced(spans, "core.graph_build", [&] {
    return core::VbGraph{fleet, graph_config};
  });
  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = 2.2;
  std::vector<workload::Application> apps = traced(spans, "workload.gen", [&] {
    return workload::generate_apps(app_config, util::TimeAxis{15}, ticks);
  });
  return Instance{std::move(graph), std::move(apps)};
}

std::vector<Instance> build(const Options& options, Tracer* spans) {
  std::vector<Instance> instances;
  const int n = options.tiny ? 1 : kInstances;
  for (int i = 0; i < n; ++i) {
    instances.push_back(build_instance(
        derive_seed(options.seed, static_cast<std::uint64_t>(i)), spans));
  }
  return instances;
}

/// Sums of the MipScheduler counters over one traced pass.
struct MipCounters {
  double solves = 0, build_ms = 0, builds = 0, patches = 0,
         invalidations = 0, hits = 0, misses = 0, fallbacks = 0;

  void add(const core::MipScheduler& mip) {
    solves += static_cast<double>(mip.solve_count());
    build_ms += mip.model_build_ms();
    builds += static_cast<double>(mip.model_build_count());
    patches += static_cast<double>(mip.model_patch_count());
    invalidations += static_cast<double>(mip.model_cache_invalidations());
    hits += static_cast<double>(mip.basis_hint_hits());
    misses += static_cast<double>(mip.basis_hint_misses());
    fallbacks += static_cast<double>(mip.fallback_count());
  }

  void report(Report& report) const {
    report.layer("core.mip.solve_count", solves, "count");
    report.layer("core.mip.model_build_ms", build_ms, "ms");
    report.layer("core.mip.model_builds", builds, "count");
    report.layer("core.mip.model_patches", patches, "count");
    report.layer("core.mip.cache_invalidations", invalidations, "count");
    report.layer("core.mip.basis_hint_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.layer("core.mip.fallbacks", fallbacks, "count");
  }
};

}  // namespace

void run_schedule_mip(const Options& options, Report& report) {
  const std::vector<Instance> sweep =
      set_up(options, report, options.tiny ? 2 : 25,
             [&](Tracer* spans) { return build(options, spans); });
  const std::size_t n = sweep.size();

  // Per instance: run times of the untraced passes, result fingerprints
  // of every pass, and the summary of its first run.
  std::vector<std::vector<double>> run_ms(n);
  std::vector<std::vector<std::string>> fingerprints(n);
  std::vector<core::PolicyRow> rows(n);
  int untraced_passes = 0;
  const auto one_pass = [&](bool trace) {
    Tracer tracer;
    Tracer* const spans = trace ? &tracer : nullptr;
    SchedSamples samples;
    MipCounters counters;
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      core::MipScheduler mip{core::make_mip_config()};
      TimedScheduler timed{mip, tracer, samples};
      core::Scheduler& scheduler = trace
                                       ? static_cast<core::Scheduler&>(timed)
                                       : static_cast<core::Scheduler&>(mip);
      const Clock::time_point t0 = Clock::now();
      const core::SimResult result =
          traced(spans, "core.run_simulation", [&] {
            return core::run_simulation(sweep[i].graph, sweep[i].apps,
                                        scheduler);
          });
      const double ms = ms_since(t0);
      pass_ms += ms;
      if (!trace) run_ms[i].push_back(ms);
      counters.add(mip);
      report.attempted(static_cast<std::int64_t>(sweep[i].apps.size()));
      if (fingerprints[i].empty()) rows[i] = core::summarize("mip", result);
      if (i + 1 == n && fingerprints[i].empty()) {
        report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
      }
      fingerprints[i].push_back(svc::result_fingerprint(result));
    }
    if (!trace) {
      ++untraced_passes;
      resample_set_up(report,
                      [&](Tracer* spans) { return build(options, spans); });
      return pass_ms;
    }
    report_sched(samples, report);
    counters.report(report);
    const double sched_ms = tracer.total_ms("core.sched.place") +
                            tracer.total_ms("core.sched.replan");
    const double root_ms = tracer.total_ms("core.run_simulation");
    report.layer("solver.solve_and_rank_ms", sched_ms - counters.build_ms,
                 "ms");
    report.layer("core.sim.self_ms", root_ms - sched_ms, "ms");
    report.layer("unattributed_ms", pass_ms - root_ms, "ms");
    report.attribution(
        {{{"core.mip.model_build_ms", counters.build_ms},
          {"solver.solve_and_rank_ms", sched_ms - counters.build_ms},
          {"core.sim.self_ms", root_ms - sched_ms},
          {"unattributed_ms", pass_ms - root_ms}},
         pass_ms});
    tracer.write_json(options.scratch / "spans.json");
    return pass_ms;
  };
  timed_phase(options, report, 2, one_pass);
  // run_s: one sweep, each instance timed as the mean of its passes.
  double sweep_ms = 0.0;
  for (const std::vector<double>& ms : run_ms) sweep_ms += mean(ms);
  report.e2e("run_s", sweep_ms / 1000.0, "s");
  double total_gb = 0.0;
  double peak_gb = 0.0;
  std::int64_t apps = 0;
  std::int64_t vms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_gb += rows[i].total_gb;
    peak_gb += rows[i].peak_gb;
    apps += static_cast<std::int64_t>(sweep[i].apps.size());
    vms += count_vms(sweep[i].apps);
  }
  report.layer("core.migration_total_gb", total_gb, "GB");
  report.layer("core.migration_peak_gb", peak_gb, "GB");
  report.layer("workload.apps", static_cast<double>(apps), "count");
  report.layer("workload.vms", static_cast<double>(vms), "count");
  report.note(std::to_string(n) + " instances; " +
              std::to_string(untraced_passes) + " untraced passes");

  // Output checks. Result bytes are compared only within this run: MIP
  // vertices may legitimately change between commits.
  if (options.corrupt) fingerprints[0].back()[0] ^= 1;
  bool identical = true;
  for (const std::vector<std::string>& f : fingerprints) {
    for (const std::string& bytes : f) identical = identical && bytes == f[0];
  }
  report.check(identical,
               "result_fingerprint identical across passes of each instance");
  double greedy_gb = 0.0;
  for (const Instance& instance : sweep) {
    core::GreedyScheduler greedy;
    greedy_gb += core::summarize("greedy", core::run_simulation(
                                               instance.graph, instance.apps,
                                               greedy))
                     .total_gb;
  }
  report.check(total_gb < greedy_gb,
               "MIP migration_total_gb " + std::to_string(total_gb) +
                   " < Greedy " + std::to_string(greedy_gb) +
                   " over the sweep");
}

}  // namespace e2e
