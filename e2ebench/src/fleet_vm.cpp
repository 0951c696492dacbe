// fleet_vm: the sharded VM-level engine (run_fleet_simulation) under
// Greedy on a 250-site wind fleet with the batch overlay and price and
// carbon metering attached, pooled over ThreadPool::shared(). Scheduler
// calls are a small share of the run and the solver does nothing, so
// fleet-engine, dcsim packing, overlay and pool changes show here and
// every solver change is bypassed.
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "timed_scheduler.h"
#include "vbatt/core/evaluation.h"
#include "vbatt/core/fleet_sim.h"
#include "vbatt/energy/carbon.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/site.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/workload/app.h"
#include "vbatt/workload/batch.h"

namespace e2e {

namespace {

using namespace vbatt;

struct Size {
  int sites;
  std::size_t days;
  double apps_per_hour;
};

// 700 servers per site (cores_per_mw 70 at 400 MW peak). The reduced copy
// keeps the per-site arrival rate so the oracle sees the same load shape.
constexpr Size kFull{250, 90, 40.0};
constexpr Size kTiny{8, 5, 4.0};
constexpr Size kReduced{10, 14, 1.6};

struct Inputs {
  core::VbGraph graph;
  std::vector<workload::Application> apps;
  workload::BatchWorkload batch;
  energy::SiteSeries price;
  energy::SiteSeries carbon;
};

Inputs build(const Size& size, std::uint64_t seed, Tracer* spans) {
  const std::size_t ticks = 96 * size.days;
  energy::FleetConfig fleet_config;
  fleet_config.n_solar = 0;
  fleet_config.n_wind = size.sites;
  fleet_config.region_km = 500.0;
  const energy::Fleet fleet = traced(spans, "energy.fleet_gen", [&] {
    return energy::generate_fleet(fleet_config, util::TimeAxis{15}, ticks);
  });
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 70.0;
  core::VbGraph graph = traced(spans, "core.graph_build", [&] {
    return core::VbGraph{fleet, graph_config};
  });

  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = size.apps_per_hour;
  app_config.seed = derive_seed(seed, 12);
  workload::BatchGeneratorConfig batch_config;
  batch_config.seed = derive_seed(seed, 13);
  auto [apps, batch] = traced(spans, "workload.gen", [&] {
    return std::pair{
        workload::generate_apps(app_config, util::TimeAxis{15}, ticks),
        workload::generate_batch(batch_config, util::TimeAxis{15}, ticks)};
  });

  energy::PriceSeriesConfig price_config;
  price_config.seed = derive_seed(seed, 14);
  energy::CarbonSeriesConfig carbon_config;
  carbon_config.seed = derive_seed(seed, 15);
  const auto n_sites = static_cast<std::size_t>(size.sites);
  auto [price, carbon] = traced(spans, "energy.signal_gen", [&] {
    return std::pair{energy::make_price_series(price_config,
                                               util::TimeAxis{15}, n_sites,
                                               ticks),
                     energy::make_carbon_series(carbon_config,
                                                util::TimeAxis{15}, n_sites,
                                                ticks)};
  });
  return Inputs{std::move(graph), std::move(apps), std::move(batch),
                std::move(price), std::move(carbon)};
}

std::string fingerprint(const core::VmLevelResult& r) {
  return svc::result_fingerprint(r.base) + std::to_string(r.vm_migrations) +
         "/" + std::to_string(r.fragmentation_failures) + "/" +
         std::to_string(r.powered_server_ticks);
}

}  // namespace

void run_fleet_vm(const Options& options, Report& report) {
  const Size size = options.tiny ? kTiny : kFull;
  const Inputs in =
      set_up(options, report, options.tiny ? 2 : 3,
             [&](Tracer* spans) { return build(size, options.seed, spans); });
  core::ScenarioExtensions ext;
  ext.batch = &in.batch;
  ext.price = &in.price;
  ext.carbon = &in.carbon;
  core::VmLevelConfig config;
  config.ext = &ext;
  util::ThreadPool& shared = util::ThreadPool::shared();
  core::FleetSimOptions pooled;
  pooled.pool = shared.size() > 0 ? &shared : nullptr;
  const double site_ticks = static_cast<double>(in.graph.n_sites()) *
                            static_cast<double>(in.graph.n_ticks());

  std::vector<std::string> fingerprints;
  std::optional<core::VmLevelResult> first;
  const auto one_rep = [&](bool trace) {
    core::GreedyScheduler greedy;
    Tracer tracer;
    SchedSamples samples;
    TimedScheduler timed{greedy, tracer, samples};
    core::Scheduler& scheduler = trace ? static_cast<core::Scheduler&>(timed)
                                       : static_cast<core::Scheduler&>(greedy);
    const Clock::time_point t0 = Clock::now();
    core::VmLevelResult result =
        traced(trace ? &tracer : nullptr, "core.run_fleet_simulation", [&] {
          return core::run_fleet_simulation(in.graph, in.apps, scheduler,
                                            config, pooled);
        });
    const double run_ms = ms_since(t0);
    report.attempted(static_cast<std::int64_t>(in.apps.size()));
    fingerprints.push_back(fingerprint(result));
    if (fingerprints.size() == 1) {
      report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
      first.emplace(std::move(result));
    }
    if (!trace) {
      report.e2e("run_s", run_ms / 1000.0, "s");
      return run_ms;
    }
    report_sched(samples, report);
    const double sched_ms = tracer.total_ms("core.sched.place") +
                            tracer.total_ms("core.sched.replan");
    const double root_ms = tracer.total_ms("core.run_fleet_simulation");
    report.layer("core.fleet.self_ms", root_ms - sched_ms, "ms");
    report.layer("core.fleet.site_ticks_per_s", site_ticks / (run_ms / 1000.0),
                 "1/s");
    report.layer("unattributed_ms", run_ms - root_ms, "ms");
    report.attribution({{{"core.sched_ms", sched_ms},
                         {"core.fleet.self_ms", root_ms - sched_ms},
                         {"unattributed_ms", run_ms - root_ms}},
                        run_ms});
    tracer.write_json(options.scratch / "spans.json");
    return run_ms;
  };
  const double pooled_ms = timed_phase(options, report, 3, one_rep);
  const core::PolicyRow row = core::summarize("greedy", first->base);
  report.layer("core.migration_total_gb", row.total_gb, "GB");
  report.layer("core.migration_peak_gb", row.peak_gb, "GB");

  const workload::BatchStats& batch = first->base.batch;
  report.layer("workload.apps", static_cast<double>(in.apps.size()), "count");
  report.layer("workload.vms", static_cast<double>(count_vms(in.apps)),
               "count");
  report.layer("core.fleet.vm_migrations",
               static_cast<double>(first->vm_migrations), "count");
  report.layer("core.fleet.fragmentation_failures",
               static_cast<double>(first->fragmentation_failures), "count");
  report.layer("core.fleet.powered_server_ticks",
               static_cast<double>(first->powered_server_ticks), "count");
  report.layer("workload.batch.jobs_completed",
               static_cast<double>(batch.deadline_jobs_completed), "count");
  report.layer("workload.batch.jobs_missed",
               static_cast<double>(batch.deadline_jobs_missed), "count");
  report.layer("workload.batch.harvest_goodput_ratio",
               batch.harvest_offered_core_ticks > 0
                   ? static_cast<double>(batch.harvest_goodput_core_ticks) /
                         static_cast<double>(batch.harvest_offered_core_ticks)
                   : 0.0,
               "ratio");
  report.note("pool: " + std::to_string(shared.size() + 1) + " lanes");

  // Output checks: pooled == 1-shard serial on the same inputs, every
  // repetition identical, and a reduced copy against the frozen oracle.
  if (options.corrupt) first->vm_migrations += 1;
  bool identical = true;
  for (const std::string& f : fingerprints) {
    identical = identical && f == fingerprints.front();
  }
  report.check(identical, "pooled result identical across " +
                              std::to_string(fingerprints.size()) +
                              " repetitions");
  {
    core::GreedyScheduler greedy;
    core::FleetSimOptions serial;
    serial.n_shards = 1;
    const Clock::time_point t0 = Clock::now();
    const core::VmLevelResult one_shard =
        core::run_fleet_simulation(in.graph, in.apps, greedy, config, serial);
    const double serial_ms = ms_since(t0);
    report.layer("core.fleet.serial_ms", serial_ms, "ms");
    report.layer("util.pool.speedup", serial_ms / pooled_ms, "x");
    const std::string diff =
        testkit::diff_vm_results(*first, one_shard, in.graph.n_sites());
    report.check(diff.empty(), "pooled == 1-shard serial" +
                                   (diff.empty() ? "" : ": " + diff));
  }
  {
    // The oracle models neither the batch overlay nor econ metering, so
    // the reduced copy runs the plain service workload.
    const Inputs reduced =
        build(options.tiny ? kTiny : kReduced, options.seed, nullptr);
    core::GreedyScheduler a;
    core::GreedyScheduler b;
    const core::VmLevelResult fleet = core::run_fleet_simulation(
        reduced.graph, reduced.apps, a, {}, pooled);
    const core::VmLevelResult oracle =
        testkit::reference_vm_run(reduced.graph, reduced.apps, b, {});
    const std::string diff =
        testkit::diff_vm_results(fleet, oracle, reduced.graph.n_sites());
    report.check(diff.empty(),
                 "reduced copy (" + std::to_string(reduced.graph.n_sites()) +
                     " sites) == reference_vm_run" +
                     (diff.empty() ? "" : ": " + diff));
  }
}

}  // namespace e2e
