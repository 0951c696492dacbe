#include "vbatt/svc/scenario.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "vbatt/energy/site.h"
#include "vbatt/util/time.h"
#include "vbatt/util/wire.h"

namespace vbatt::svc {

void validate_scenario_config(const ScenarioConfig& config) {
  if (config.days < 1) {
    throw std::runtime_error{"ScenarioConfig: field 'days' must be >= 1"};
  }
  const std::pair<const char*, double> reals[] = {
      {"region_km", config.region_km},
      {"cores_per_mw", config.cores_per_mw},
      {"apps_per_hour", config.apps_per_hour},
      {"chaos_intensity", config.chaos_intensity},
      {"batch_jobs_per_hour", config.batch_jobs_per_hour},
      {"batch_tasks_per_hour", config.batch_tasks_per_hour},
  };
  for (const auto& [field, value] : reals) {
    if (!std::isfinite(value) || value < 0.0) {
      throw std::runtime_error{std::string{"ScenarioConfig: field '"} +
                               field + "' must be finite and >= 0, got " +
                               std::to_string(value)};
    }
  }
}

Scenario make_scenario(const ScenarioConfig& config) {
  validate_scenario_config(config);
  fault::ChaosConfig chaos;
  chaos.intensity = config.chaos_intensity;
  fault::validate_chaos_config(chaos);

  energy::FleetConfig fleet_config;
  fleet_config.n_solar = config.n_solar;
  fleet_config.n_wind = config.n_wind;
  fleet_config.region_km = config.region_km;
  fleet_config.enable_storms = config.storms;
  const std::size_t n_ticks = 96 * config.days;
  const energy::Fleet fleet =
      energy::generate_fleet(fleet_config, util::TimeAxis{15}, n_ticks);

  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = config.cores_per_mw;

  workload::AppGeneratorConfig app_config;
  app_config.apps_per_hour = config.apps_per_hour;

  Scenario scenario{
      .graph = core::VbGraph{fleet, graph_config},
      .apps = workload::generate_apps(app_config, util::TimeAxis{15},
                                      n_ticks),
      .schedule = {},
      .batch = {},
  };
  scenario.schedule =
      fault::make_chaos_schedule(scenario.graph, chaos, config.chaos_seed);
  if (config.batch_jobs_per_hour > 0.0 || config.batch_tasks_per_hour > 0.0) {
    workload::BatchGeneratorConfig batch_config;
    batch_config.jobs_per_hour = config.batch_jobs_per_hour;
    batch_config.tasks_per_hour = config.batch_tasks_per_hour;
    batch_config.seed = config.batch_seed;
    scenario.batch =
        workload::generate_batch(batch_config, util::TimeAxis{15}, n_ticks);
  }
  return scenario;
}

std::vector<Event> scenario_events(const Scenario& scenario, bool heartbeats) {
  std::vector<Event> events;
  const std::size_t n_sites = scenario.graph.n_sites();
  const std::size_t n_ticks = scenario.graph.n_ticks();

  // Telemetry upfront: stream every site's full power and forecast series
  // as readings starting at tick 0 (the service starts at now = -1).
  for (std::size_t s = 0; s < n_sites; ++s) {
    const core::VbSite& site = scenario.graph.sites()[s];
    Event power;
    power.kind = EventKind::power_reading;
    power.site = s;
    power.tick = 0;
    power.values = site.power_norm;
    events.push_back(std::move(power));
    const std::vector<std::vector<double>>& forecast =
        scenario.graph.forecast_norm(s);
    for (std::size_t lead = 0; lead < forecast.size(); ++lead) {
      Event fc;
      fc.kind = EventKind::forecast_update;
      fc.site = s;
      fc.lead = lead;
      fc.tick = 0;
      fc.values = forecast[lead];
      events.push_back(std::move(fc));
    }
  }

  // Fault reports in schedule order (the order the schedule constructor of
  // StreamInjector records them, so forecast-noise child streams line up).
  for (const fault::FaultEvent& f : scenario.schedule.events) {
    Event e;
    e.kind = EventKind::fault_report;
    e.fault = f;
    events.push_back(std::move(e));
  }

  // Batch overlay submissions upfront (jobs then tasks, definition order).
  // The overlay admits each entity when the clock reaches its arrival, so
  // submission time is immaterial — upfront matches how the batch driver
  // hands run_simulation the whole workload.
  for (const workload::DeadlineJob& job : scenario.batch.jobs) {
    Event e;
    e.kind = EventKind::batch_job;
    e.job = job;
    events.push_back(std::move(e));
  }
  for (const workload::HarvestTask& task : scenario.batch.tasks) {
    Event e;
    e.kind = EventKind::harvest_task;
    e.task = task;
    events.push_back(std::move(e));
  }

  // Per tick: the arrivals due that tick (apps are generated in arrival
  // order), optional heartbeats, then the tick itself.
  std::size_t next_app = 0;
  for (std::size_t t = 0; t < n_ticks; ++t) {
    const auto tick = static_cast<util::Tick>(t);
    while (next_app < scenario.apps.size() &&
           scenario.apps[next_app].arrival <= tick) {
      Event e;
      e.kind = EventKind::vm_arrival;
      e.app = scenario.apps[next_app];
      events.push_back(std::move(e));
      ++next_app;
    }
    if (heartbeats) {
      for (std::size_t s = 0; s < n_sites; ++s) {
        Event beat;
        beat.kind = EventKind::heartbeat;
        beat.site = s;
        events.push_back(std::move(beat));
      }
    }
    Event advance;
    advance.kind = EventKind::tick_advance;
    events.push_back(std::move(advance));
  }
  return events;
}

std::string result_fingerprint(const core::SimResult& result) {
  util::wire::Writer w;
  w.i64(result.completed_ticks);
  w.i64(result.apps_placed);
  w.i64(result.planned_migrations);
  w.i64(result.forced_migrations);
  w.i64(result.displaced_stable_core_ticks);
  w.i64(result.paused_degradable_vm_ticks);
  w.i64(result.degradable_active_vm_ticks);
  w.f64(result.energy_mwh);
  w.i64(result.faulted_site_ticks);
  w.i64(result.retried_moves);
  w.i64(result.abandoned_moves);
  w.i64(result.fallback_activations);
  w.i64(result.stable_vm_downtime_ticks);
  w.vec_f64(result.moved_gb);
  w.vec_f64(result.energy_mwh_per_tick);
  w.vec_i64(result.displaced_stable_cores_per_tick);
  w.u64(result.displaced_by_app.size());
  for (const auto& [app_id, core_ticks] : result.displaced_by_app) {
    w.i64(app_id);
    w.i64(core_ticks);
  }
  // The ledger goes in sparse: per site and direction, the count of
  // nonzero cells, then their (tick, GB) pairs. Every unrecorded or zero
  // cell of a dense series is +0.0, so two ledgers encode equal exactly
  // when every out_series/in_series is bitwise equal.
  const net::MigrationLedger& ledger = result.ledger;
  w.u64(ledger.n_sites());
  w.u64(ledger.n_ticks());
  using Cell = net::MigrationLedger::Cell;
  const auto write_cells = [&w](std::span<const Cell> cells) {
    const auto nonzero = [](const Cell& c) { return c.gb != 0.0; };
    w.u64(static_cast<std::uint64_t>(std::ranges::count_if(cells, nonzero)));
    for (const Cell& c : cells) {
      if (!nonzero(c)) continue;
      w.i64(c.tick);
      w.f64(c.gb);
    }
  };
  for (std::size_t s = 0; s < ledger.n_sites(); ++s) {
    write_cells(ledger.out_cells(s));
    write_cells(ledger.in_cells(s));
  }
  // Scenario-extension counters (all zero on a default run, so default
  // fingerprints differ from the pre-extension format only by these
  // constant trailing bytes).
  const workload::BatchStats& batch = result.batch;
  w.i64(batch.deadline_jobs_completed);
  w.i64(batch.deadline_jobs_missed);
  w.i64(batch.deadline_work_core_ticks);
  w.i64(batch.harvest_offered_core_ticks);
  w.i64(batch.harvest_goodput_core_ticks);
  w.i64(batch.harvest_lost_core_ticks);
  w.i64(batch.harvest_suspended_core_ticks);
  w.i64(batch.harvest_warmup_core_ticks);
  w.i64(batch.harvest_tasks_completed);
  w.i64(batch.harvest_deadline_misses);
  w.i64(batch.suspend_episodes);
  w.i64(batch.resume_episodes);
  w.i64(batch.overlay_active_core_ticks);
  w.f64(result.cost_usd);
  w.vec_f64(result.cost_usd_per_tick);
  w.f64(result.carbon_kg);
  w.vec_f64(result.carbon_kg_per_tick);
  return w.take();
}

}  // namespace vbatt::svc
