#include "vbatt/testkit/suites.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/vm_level_sim.h"
#include "vbatt/dcsim/scan_reference.h"
#include "vbatt/dcsim/site.h"
#include "vbatt/energy/aggregate.h"
#include "vbatt/energy/site.h"
#include "vbatt/core/simulation.h"
#include "vbatt/fault/injector.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/fault/stream.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/reference.h"
#include "vbatt/testkit/generators.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::testkit {

namespace {

// --- shared helpers ------------------------------------------------------

std::unique_ptr<core::Scheduler> make_scheduler(const Spec& spec) {
  if (spec.get("sched", std::string{"greedy"}) == "mip24h") {
    return std::make_unique<core::MipScheduler>(core::make_mip24h_config());
  }
  return std::make_unique<core::GreedyScheduler>();
}

CaseResult fail_str(std::string msg) { return CaseResult::fail(std::move(msg)); }

bool near(double a, double b, double tol_rel) {
  return std::abs(a - b) <= tol_rel * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Unique-per-process temp file; deterministic for a given (spec, tag)
/// within one process, collision-free across concurrently running fuzz
/// binaries (the pid).
std::filesystem::path temp_file(const Spec& spec, const char* tag) {
  std::ostringstream name;
  name << "vbatt_fuzz_" << ::getpid() << '_' << std::hex
       << spec.child_seed("tmpfile") << '_' << tag << ".csv";
  return std::filesystem::temp_directory_path() / name.str();
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- sim suite -----------------------------------------------------------

Spec gen_scenario_spec(util::Rng& rng) {
  Spec spec;
  spec.set("seed", static_cast<std::int64_t>(rng.next() >> 1));
  gen_graph_keys(spec, rng);
  gen_app_keys(spec, rng);
  return spec;
}

const std::vector<ShrinkKey> kScenarioShrink = {
    {"days", 1},   {"sites", 1},  {"wind", 0},   {"peak", 1},
    {"amp", 0},    {"period", 1}, {"aph100", 0}, {"maxvms", 1},
    {"deg100", 0}, {"life", 1},
};

/// Scenario keys plus the batch-overlay knobs (harvest_closure,
/// batch_sharded_diff).
const std::vector<ShrinkKey> kBatchScenarioShrink = {
    {"days", 1},     {"sites", 1},  {"wind", 0},      {"peak", 1},
    {"amp", 0},      {"period", 1}, {"aph100", 0},    {"maxvms", 1},
    {"deg100", 0},   {"life", 1},   {"jph100", 0},    {"tph100", 0},
    {"bcores", 1},   {"brun", 1},   {"bslack100", 100}, {"blat", 0},
};

/// Bare-overlay keys (deadline_conservation drives BatchOverlay directly,
/// no graph).
const std::vector<ShrinkKey> kOverlayShrink = {
    {"days", 1},   {"jph100", 0}, {"tph100", 0},      {"bcores", 1},
    {"brun", 1},   {"bslack100", 100}, {"blat", 0},   {"bsites", 1},
    {"bfree", 0},
};

/// Scenario keys plus the price/carbon trace knobs (objective_identity).
const std::vector<ShrinkKey> kEconScenarioShrink = {
    {"days", 1},   {"sites", 1},  {"wind", 0},   {"peak", 1},
    {"amp", 0},    {"period", 1}, {"aph100", 0}, {"maxvms", 1},
    {"deg100", 0}, {"life", 1},   {"pbase", 20}, {"pswing", 0},
    {"pspread", 0}, {"cbase", 200}, {"cswing", 0}, {"cspread", 0},
};

CaseResult eval_conservation(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto scheduler = make_scheduler(spec);
  const core::VmLevelResult r = core::run_vm_level_simulation(
      sc.graph, sc.apps, *scheduler, {}, nullptr);
  const auto n_ticks = static_cast<util::Tick>(sc.graph.n_ticks());

  // Non-negativity of every counter.
  for (const auto& [name, v] :
       {std::pair{"apps_placed", r.base.apps_placed},
        {"planned_migrations", r.base.planned_migrations},
        {"forced_migrations", r.base.forced_migrations},
        {"displaced_stable_core_ticks", r.base.displaced_stable_core_ticks},
        {"paused_degradable_vm_ticks", r.base.paused_degradable_vm_ticks},
        {"degradable_active_vm_ticks", r.base.degradable_active_vm_ticks},
        {"vm_migrations", r.vm_migrations},
        {"fragmentation_failures", r.fragmentation_failures},
        {"powered_server_ticks", r.powered_server_ticks}}) {
    if (v < 0) {
      return fail_str(std::string{name} + " negative: " + std::to_string(v));
    }
  }

  // Per-app displacement must sum to the fleet total, and so must the
  // per-tick series (both integer-exact).
  std::int64_t by_app = 0;
  for (const auto& [app_id, cores] : r.base.displaced_by_app) {
    if (cores < 0) return fail_str("negative displaced_by_app entry");
    by_app += cores;
  }
  if (by_app != r.base.displaced_stable_core_ticks) {
    return fail_str("sum(displaced_by_app)=" + std::to_string(by_app) +
                    " != displaced_stable_core_ticks=" +
                    std::to_string(r.base.displaced_stable_core_ticks));
  }
  std::int64_t by_tick = 0;
  for (const std::int64_t v : r.base.displaced_stable_cores_per_tick) {
    by_tick += v;
  }
  if (by_tick != r.base.displaced_stable_core_ticks) {
    return fail_str("sum(displaced_stable_cores_per_tick)=" +
                    std::to_string(by_tick) +
                    " != displaced_stable_core_ticks=" +
                    std::to_string(r.base.displaced_stable_core_ticks));
  }

  // Degradable bookkeeping closes exactly: every degradable VM of a live
  // app is active or paused on every tick of the app's residency.
  std::int64_t expected_degradable = 0;
  for (const workload::Application& app : sc.apps) {
    if (app.arrival >= n_ticks) continue;
    const util::Tick end = app.lifetime_ticks < 0
                               ? n_ticks
                               : std::min(n_ticks, app.arrival +
                                                       app.lifetime_ticks);
    expected_degradable +=
        static_cast<std::int64_t>(app.n_degradable) *
        std::max<util::Tick>(0, end - app.arrival);
  }
  const std::int64_t got = r.base.degradable_active_vm_ticks +
                           r.base.paused_degradable_vm_ticks;
  if (got != expected_degradable) {
    return fail_str("degradable active+paused=" + std::to_string(got) +
                    " != n_degradable x live-ticks=" +
                    std::to_string(expected_degradable));
  }

  // Ledger totals equal per-step sums: every migration records the same GB
  // out, in, and into moved_gb.
  double moved = 0.0;
  for (const double gb : r.base.moved_gb) moved += gb;
  double out_total = 0.0;
  double in_total = 0.0;
  for (std::size_t s = 0; s < sc.graph.n_sites(); ++s) {
    for (const double gb : r.base.ledger.out_series(s)) out_total += gb;
    for (const double gb : r.base.ledger.in_series(s)) in_total += gb;
  }
  if (!near(out_total, moved, 1e-9) || !near(in_total, moved, 1e-9)) {
    return fail_str("ledger totals out=" + std::to_string(out_total) +
                    " in=" + std::to_string(in_total) +
                    " != moved_gb sum=" + std::to_string(moved));
  }

  // Total energy equals the per-tick series (per-tick sums re-add in a
  // different order, so this is a tolerance check, not bitwise).
  double energy = 0.0;
  for (const double mwh : r.base.energy_mwh_per_tick) energy += mwh;
  if (!near(energy, r.base.energy_mwh, 1e-9)) {
    return fail_str("energy_mwh=" + std::to_string(r.base.energy_mwh) +
                    " != per-tick sum=" + std::to_string(energy));
  }
  return CaseResult::pass();
}

CaseResult eval_thread_invariance(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto sched_a = make_scheduler(spec);
  const core::VmLevelResult serial = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_a, {}, nullptr);
  util::ThreadPool pool{3};
  const auto sched_b = make_scheduler(spec);
  const core::VmLevelResult parallel = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_b, {}, &pool);
  const std::string diff =
      diff_vm_results(serial, parallel, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("serial vs 3-lane pool: " + diff);
  return CaseResult::pass();
}

CaseResult eval_chaos_zero(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto sched_a = make_scheduler(spec);
  const core::VmLevelResult bare = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_a, {}, nullptr);

  fault::FaultInjector injector{sc.graph, fault::FaultSchedule{},
                                spec.child_seed("noise")};
  core::VmLevelConfig config;
  config.faults.hooks = &injector;
  const auto sched_b = make_scheduler(spec);
  const core::VmLevelResult hooked = core::run_vm_level_simulation(
      injector.graph(), sc.apps, *sched_b, config, nullptr);

  // diff_vm_results covers exactly the non-hook-gated fields, which is the
  // identity an empty schedule must preserve.
  const std::string diff = diff_vm_results(bare, hooked, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("empty-schedule injector: " + diff);
  if (hooked.base.faulted_site_ticks != 0 ||
      hooked.base.retried_moves != 0 || hooked.base.abandoned_moves != 0) {
    return fail_str("empty schedule produced fault counters");
  }
  return CaseResult::pass();
}

CaseResult eval_engine_diff(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto sched_a = make_scheduler(spec);
  const core::VmLevelResult fast = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_a, {}, nullptr);
  const auto sched_b = make_scheduler(spec);
  const core::VmLevelResult ref =
      reference_vm_run(sc.graph, sc.apps, *sched_b, {});
  const std::string diff = diff_vm_results(ref, fast, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("event-driven vs seed engine: " + diff);
  return CaseResult::pass();
}

// --- fleet suite ---------------------------------------------------------

/// Sharded vs unsharded on a random fleet: run_fleet_simulation must be a
/// field-for-field, bit-for-bit drop-in for run_vm_level_simulation.
CaseResult eval_fleet_diff(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto sched_a = make_scheduler(spec);
  const core::VmLevelResult unsharded = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_a, {}, nullptr);
  const auto sched_b = make_scheduler(spec);
  core::FleetSimOptions options;
  options.n_shards = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("shards", 2), 1, 64));
  const core::VmLevelResult sharded =
      core::run_fleet_simulation(sc.graph, sc.apps, *sched_b, {}, options);
  const std::string diff =
      diff_vm_results(unsharded, sharded, sc.graph.n_sites());
  if (!diff.empty()) {
    return fail_str("unsharded vs " + std::to_string(options.n_shards) +
                    "-shard engine: " + diff);
  }
  return CaseResult::pass();
}

/// Shard-count and thread-count bit-invariance under a chaos schedule:
/// every (shards, pool) combination must reproduce the unsharded faulted
/// run exactly.
CaseResult eval_fleet_shard_invariance(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  fault::ChaosConfig chaos;
  chaos.intensity = std::max<std::int64_t>(0, spec.get("i100", 150)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, chaos, spec.child_seed("chaos"));
  const std::uint64_t noise = spec.child_seed("noise");

  const auto faulted_run = [&](auto&& engine) {
    fault::FaultInjector injector{sc.graph, schedule, noise};
    core::VmLevelConfig config;
    config.faults.hooks = &injector;
    const auto scheduler = make_scheduler(spec);
    return engine(injector.graph(), *scheduler, config);
  };
  const core::VmLevelResult baseline = faulted_run(
      [&](const core::VbGraph& graph, core::Scheduler& scheduler,
          const core::VmLevelConfig& config) {
        return core::run_vm_level_simulation(graph, sc.apps, scheduler,
                                             config, nullptr);
      });
  util::ThreadPool pool{3};
  for (const int shards : {1, 2, 7}) {
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      const core::VmLevelResult sharded = faulted_run(
          [&](const core::VbGraph& graph, core::Scheduler& scheduler,
              const core::VmLevelConfig& config) {
            core::FleetSimOptions options;
            options.n_shards = shards;
            options.pool = p;
            return core::run_fleet_simulation(graph, sc.apps, scheduler,
                                              config, options);
          });
      const std::string diff =
          diff_vm_results(baseline, sharded, sc.graph.n_sites());
      if (!diff.empty()) {
        return fail_str("chaos run, shards=" + std::to_string(shards) +
                        (p != nullptr ? ", 4 lanes: " : ", serial: ") + diff);
      }
    }
  }
  return CaseResult::pass();
}

// --- batch overlay / econ suite ------------------------------------------

/// Deadline conservation on the bare overlay: drive BatchOverlay with a
/// random free-core sequence, then audit every per-entity record. No
/// entity may be both completed and missed; a miss requires work left and
/// a reachable deadline; every admitted entity whose deadline is inside
/// the horizon resolves one way or the other; and a second run with
/// unlimited cores must complete everything on time (the generator's
/// slack >= 1 guarantees feasibility at full capacity).
CaseResult eval_deadline_conservation(const Spec& spec) {
  const util::TimeAxis axis{15};
  const auto n_ticks = static_cast<std::size_t>(
      std::max<std::int64_t>(1, spec.get("days", 1)) * axis.ticks_per_day());
  const workload::BatchWorkload batch = make_batch(spec, axis, n_ticks);
  const auto n_sites = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("bsites", 3), 1, 8));
  const auto max_free = static_cast<std::uint64_t>(
      std::clamp<std::int64_t>(spec.get("bfree", 20), 0, 512));

  workload::BatchOverlay overlay{batch};
  util::Rng free_rng{spec.child_seed("free")};
  std::vector<std::int64_t> free(n_sites, 0);
  for (std::size_t t = 0; t < n_ticks; ++t) {
    for (std::int64_t& f : free) {
      f = static_cast<std::int64_t>(free_rng.below(max_free + 1));
    }
    overlay.step(static_cast<util::Tick>(t), free);
  }
  overlay.finalize();

  const auto horizon = static_cast<util::Tick>(n_ticks);
  std::int64_t completed = 0;
  std::int64_t missed = 0;
  // Resolution is only guaranteed while the miss check still runs after
  // the deadline: deadline == horizon leaves no post-deadline step, so an
  // unscheduled final-tick remnant may legally end unresolved.
  const auto audit = [&](std::int64_t id, bool got_admitted, bool got_completed,
                         bool got_missed, util::Tick finish,
                         std::int64_t remaining, util::Tick arrival,
                         util::Tick deadline, const char* kind) -> std::string {
    const std::string tag = std::string{kind} + " " + std::to_string(id);
    if (got_completed && got_missed) {
      return tag + " both completed and missed";
    }
    if (got_admitted != (arrival < horizon)) {
      return tag + " admission disagrees with its arrival";
    }
    if (got_completed &&
        (remaining != 0 || finish < arrival || finish >= deadline)) {
      return tag + " completed outside [arrival, deadline)";
    }
    if (got_missed && remaining <= 0) {
      return tag + " missed with no work left";
    }
    if (got_admitted && deadline < horizon && !got_completed && !got_missed) {
      return tag + " unresolved despite an in-horizon deadline";
    }
    completed += got_completed ? 1 : 0;
    missed += got_missed ? 1 : 0;
    return {};
  };
  const auto job_records = overlay.job_records();
  const auto task_records = overlay.task_records();
  if (job_records.size() != batch.jobs.size() ||
      task_records.size() != batch.tasks.size()) {
    return fail_str("record count disagrees with workload size");
  }
  for (std::size_t i = 0; i < job_records.size(); ++i) {
    const auto& r = job_records[i];
    const workload::DeadlineJob& job = batch.jobs[i];
    if (r.job_id != job.job_id) return fail_str("job record order changed");
    if (std::string bad =
            audit(r.job_id, r.admitted, r.completed, r.missed, r.finish_tick,
                  r.remaining_core_ticks, job.arrival, job.deadline, "job");
        !bad.empty()) {
      return fail_str(std::move(bad));
    }
  }
  if (overlay.stats().deadline_jobs_completed != completed ||
      overlay.stats().deadline_jobs_missed != missed) {
    return fail_str("job counters disagree with per-record flags");
  }
  completed = missed = 0;
  for (std::size_t i = 0; i < task_records.size(); ++i) {
    const auto& r = task_records[i];
    const workload::HarvestTask& task = batch.tasks[i];
    if (r.task_id != task.task_id) return fail_str("task record order changed");
    if (std::string bad =
            audit(r.task_id, r.admitted, r.completed, r.missed, r.finish_tick,
                  r.remaining_core_ticks, task.arrival, task.deadline, "task");
        !bad.empty()) {
      return fail_str(std::move(bad));
    }
    if (r.resumes > r.suspends) {
      return fail_str("task resumed more often than it suspended");
    }
  }
  if (overlay.stats().harvest_tasks_completed != completed ||
      overlay.stats().harvest_deadline_misses != missed) {
    return fail_str("task counters disagree with per-record flags");
  }

  // Unlimited capacity: nothing may miss, suspend, or warm up.
  std::int64_t total_cores = 0;
  for (const workload::DeadlineJob& job : batch.jobs) total_cores += job.cores;
  for (const workload::HarvestTask& task : batch.tasks) {
    total_cores += task.cores;
  }
  workload::BatchOverlay roomy{batch};
  const std::vector<std::int64_t> plenty(1, total_cores);
  for (std::size_t t = 0; t < n_ticks; ++t) {
    roomy.step(static_cast<util::Tick>(t), plenty);
  }
  roomy.finalize();
  const workload::BatchStats& full = roomy.stats();
  if (full.deadline_jobs_missed != 0 || full.harvest_deadline_misses != 0) {
    return fail_str("misses under unlimited capacity");
  }
  if (full.suspend_episodes != 0 || full.harvest_warmup_core_ticks != 0) {
    return fail_str("suspends/warmup under unlimited capacity");
  }
  return CaseResult::pass();
}

/// Harvest goodput closure through a full engine run: offered work splits
/// exactly into goodput + lost + suspended, and occupancy covers every
/// executed/warmup core-tick.
CaseResult eval_harvest_closure(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const workload::BatchWorkload batch =
      make_batch(spec, sc.graph.axis(), sc.graph.n_ticks());
  core::ScenarioExtensions ext;
  ext.batch = &batch;
  core::VmLevelConfig config;
  config.ext = &ext;
  const auto scheduler = make_scheduler(spec);
  const core::VmLevelResult r = core::run_vm_level_simulation(
      sc.graph, sc.apps, *scheduler, config, nullptr);
  const workload::BatchStats& b = r.base.batch;

  for (const auto& [name, v] :
       {std::pair{"deadline_jobs_completed", b.deadline_jobs_completed},
        {"deadline_jobs_missed", b.deadline_jobs_missed},
        {"deadline_work_core_ticks", b.deadline_work_core_ticks},
        {"harvest_offered_core_ticks", b.harvest_offered_core_ticks},
        {"harvest_goodput_core_ticks", b.harvest_goodput_core_ticks},
        {"harvest_lost_core_ticks", b.harvest_lost_core_ticks},
        {"harvest_suspended_core_ticks", b.harvest_suspended_core_ticks},
        {"harvest_warmup_core_ticks", b.harvest_warmup_core_ticks},
        {"suspend_episodes", b.suspend_episodes},
        {"resume_episodes", b.resume_episodes},
        {"overlay_active_core_ticks", b.overlay_active_core_ticks}}) {
    if (v < 0) {
      return fail_str(std::string{name} + " negative: " + std::to_string(v));
    }
  }
  if (b.harvest_offered_core_ticks !=
      b.harvest_goodput_core_ticks + b.harvest_lost_core_ticks +
          b.harvest_suspended_core_ticks) {
    return fail_str(
        "closure broken: offered=" +
        std::to_string(b.harvest_offered_core_ticks) + " != goodput=" +
        std::to_string(b.harvest_goodput_core_ticks) + " + lost=" +
        std::to_string(b.harvest_lost_core_ticks) + " + suspended=" +
        std::to_string(b.harvest_suspended_core_ticks));
  }
  if (b.resume_episodes > b.suspend_episodes) {
    return fail_str("more resumes than suspends");
  }
  if (b.overlay_active_core_ticks < b.deadline_work_core_ticks +
                                        b.harvest_goodput_core_ticks +
                                        b.harvest_warmup_core_ticks) {
    return fail_str("occupancy below executed work + warmup");
  }
  // Offered must equal the admitted tasks' total work, recomputed here.
  const auto horizon = static_cast<util::Tick>(sc.graph.n_ticks());
  std::int64_t offered = 0;
  for (const workload::HarvestTask& task : batch.tasks) {
    if (task.arrival < horizon) offered += task.work_core_ticks;
  }
  if (offered != b.harvest_offered_core_ticks) {
    return fail_str("offered=" +
                    std::to_string(b.harvest_offered_core_ticks) +
                    " != admitted work=" + std::to_string(offered));
  }
  return CaseResult::pass();
}

/// Econ accounting identity: the MIP's cost/carbon stage value for every
/// committed trajectory must replay against the per-tick signal to 1e-6,
/// and the metered ledger totals must equal their per-tick series.
CaseResult eval_objective_identity(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const bool carbon = spec.get("obj", std::string{"cost"}) == "carbon";
  const energy::SiteSeries signal =
      carbon ? make_carbon_series(spec, sc.graph.n_sites(), sc.graph.n_ticks())
             : make_price_series(spec, sc.graph.n_sites(), sc.graph.n_ticks());
  core::MipSchedulerConfig mc = carbon
                                    ? core::make_mip_carbon_config(&signal)
                                    : core::make_mip_cost_config(&signal);
  mc.horizon_ticks = 96;  // keep the per-case solve budget small
  core::MipScheduler scheduler{mc};
  core::ScenarioExtensions ext;
  if (carbon) {
    ext.carbon = &signal;
  } else {
    ext.price = &signal;
  }
  core::VmLevelConfig config;
  config.ext = &ext;
  const core::VmLevelResult r = core::run_vm_level_simulation(
      sc.graph, sc.apps, scheduler, config, nullptr);

  // Ledger totals close over their per-tick series.
  double per_tick = 0.0;
  for (const double v : r.base.cost_usd_per_tick) per_tick += v;
  if (!near(per_tick, r.base.cost_usd, 1e-9)) {
    return fail_str("cost_usd != per-tick sum");
  }
  per_tick = 0.0;
  for (const double v : r.base.carbon_kg_per_tick) per_tick += v;
  if (!near(per_tick, r.base.carbon_kg, 1e-9)) {
    return fail_str("carbon_kg != per-tick sum");
  }
  if (carbon ? r.base.cost_usd != 0.0 : r.base.carbon_kg != 0.0) {
    return fail_str("unattached ledger metered anyway");
  }

  // Stage-value replay, bucket arithmetic mirrored from refresh_capacity.
  std::map<std::int64_t, int> cores_by_app;
  for (const workload::Application& app : sc.apps) {
    cores_by_app.emplace(app.app_id, app.stable_cores());
  }
  const auto trace_end = static_cast<util::Tick>(sc.graph.n_ticks());
  const double hours = sc.graph.axis().minutes_per_tick() / 60.0;
  for (const auto& [app_id, trajectory] : scheduler.trajectories()) {
    const double scale = static_cast<double>(cores_by_app.at(app_id)) *
                         mc.objective_kw_per_core * hours / 1000.0;
    double replayed = 0.0;
    for (std::size_t k = 0; k < trajectory.sites.size(); ++k) {
      const util::Tick begin =
          trajectory.start + static_cast<util::Tick>(k) * mc.bucket_ticks;
      const util::Tick end = std::min(trace_end, begin + mc.bucket_ticks);
      double sum = 0.0;
      for (util::Tick t = begin; t < end; ++t) {
        sum += signal.value(trajectory.sites[k], static_cast<double>(t));
      }
      replayed += sum * scale;
    }
    if (std::abs(replayed - trajectory.objective_cost) > 1e-6) {
      return fail_str("app " + std::to_string(app_id) +
                      " objective_cost diverges from replay by " +
                      std::to_string(replayed - trajectory.objective_cost));
    }
  }
  return CaseResult::pass();
}

/// Sharded fleet engine vs unsharded on the full extension surface (batch
/// overlay + price + carbon), serial and pooled: bit-for-bit, fingerprint
/// included.
CaseResult eval_batch_fleet_diff(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const workload::BatchWorkload batch =
      make_batch(spec, sc.graph.axis(), sc.graph.n_ticks());
  const energy::SiteSeries price =
      make_price_series(spec, sc.graph.n_sites(), sc.graph.n_ticks());
  const energy::SiteSeries carbon =
      make_carbon_series(spec, sc.graph.n_sites(), sc.graph.n_ticks());
  core::ScenarioExtensions ext;
  ext.batch = &batch;
  ext.price = &price;
  ext.carbon = &carbon;
  core::VmLevelConfig config;
  config.ext = &ext;

  const auto sched_a = make_scheduler(spec);
  const core::VmLevelResult unsharded = core::run_vm_level_simulation(
      sc.graph, sc.apps, *sched_a, config, nullptr);
  util::ThreadPool pool{3};
  core::FleetSimOptions options;
  options.n_shards = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("shards", 2), 1, 64));
  for (util::ThreadPool* p :
       {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    options.pool = p;
    const auto sched_b = make_scheduler(spec);
    const core::VmLevelResult sharded = core::run_fleet_simulation(
        sc.graph, sc.apps, *sched_b, config, options);
    const std::string diff =
        diff_vm_results(unsharded, sharded, sc.graph.n_sites());
    if (!diff.empty()) {
      return fail_str("extensions, shards=" + std::to_string(options.n_shards) +
                      (p != nullptr ? ", 4 lanes: " : ", serial: ") + diff);
    }
    if (svc::result_fingerprint(unsharded.base) !=
        svc::result_fingerprint(sharded.base)) {
      return fail_str("fingerprints diverge despite field-level equality");
    }
  }
  return CaseResult::pass();
}

// --- dcsim suite ---------------------------------------------------------

CaseResult eval_placement_diff(const Spec& spec) {
  dcsim::SiteConfig config;
  config.n_servers = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("servers", 6), 1, 24));
  config.server = {8, 32.0};
  config.utilization_cap = 1.0;
  dcsim::Site site{config};

  const auto ops = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, spec.get("ops", 40)));
  util::Rng rng{spec.child_seed("ops")};
  dcsim::FirstFitPolicy first_fit;
  dcsim::BestFitPolicy best_fit;
  dcsim::WorstFitPolicy worst_fit;
  dcsim::ProteanLikePolicy protean;
  dcsim::AllocationPolicy* const policies[] = {&first_fit, &best_fit,
                                               &worst_fit, &protean};
  std::vector<std::int64_t> placed_ids;
  std::int64_t next_id = 0;

  const auto draw_shape = [&] {
    // Zero-core shapes are legal and exercise the best-fit vm_count
    // tie-break, which free cores alone cannot decide.
    workload::VmShape shape;
    shape.cores = static_cast<int>(rng.below(7));
    shape.memory_gb = static_cast<double>(rng.below(5)) * 8.0;
    return shape;
  };
  const auto check_all = [&](std::uint64_t op) -> std::string {
    const workload::VmShape probe = draw_shape();
    const std::pair<const char*, std::pair<std::optional<int>,
                                           std::optional<int>>>
        checks[] = {
            {"first_fit",
             {site.choose_first_fit(probe),
              dcsim::scan_reference::first_fit(site, probe)}},
            {"best_fit",
             {site.choose_best_fit(probe),
              dcsim::scan_reference::best_fit(site, probe)}},
            {"worst_fit",
             {site.choose_worst_fit(probe),
              dcsim::scan_reference::worst_fit(site, probe)}},
            {"protean",
             {site.choose_protean(probe),
              dcsim::scan_reference::protean(site, probe)}},
        };
    for (const auto& [name, pair] : checks) {
      if (pair.first != pair.second) {
        return "op " + std::to_string(op) + ": " + name + " chose " +
               (pair.first ? std::to_string(*pair.first) : "none") +
               ", scan reference chose " +
               (pair.second ? std::to_string(*pair.second) : "none") +
               " (probe " + std::to_string(probe.cores) + "c/" +
               std::to_string(probe.memory_gb) + "gb)";
      }
    }
    return {};
  };

  for (std::uint64_t op = 0; op < ops; ++op) {
    if (std::string diff = check_all(op); !diff.empty()) {
      return fail_str(std::move(diff));
    }
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {  // place (weighted: states with residents matter most)
        dcsim::VmInstance vm;
        vm.vm_id = next_id++;
        vm.app_id = 0;
        vm.shape = draw_shape();
        vm.vm_class = rng.chance(0.4) ? workload::VmClass::degradable
                                      : workload::VmClass::stable;
        vm.end_tick = static_cast<util::Tick>(rng.below(ops + 1));
        if (site.place(vm, *policies[rng.below(4)])) {
          placed_ids.push_back(vm.vm_id);
        }
        break;
      }
      case 3: {  // remove
        if (placed_ids.empty()) break;
        const std::size_t at = rng.below(placed_ids.size());
        site.remove(placed_ids[at]);
        placed_ids.erase(placed_ids.begin() +
                         static_cast<std::ptrdiff_t>(at));
        break;
      }
      case 4: {  // power shrink
        const int cap = site.total_cores();
        const auto evicted = site.shrink_to(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(cap) + 1)));
        for (const dcsim::VmInstance& vm : evicted) {
          placed_ids.erase(
              std::find(placed_ids.begin(), placed_ids.end(), vm.vm_id));
        }
        break;
      }
      case 5: {  // departures
        const auto departed = site.collect_departures(
            static_cast<util::Tick>(rng.below(ops + 1)));
        for (const dcsim::VmInstance& vm : departed) {
          placed_ids.erase(
              std::find(placed_ids.begin(), placed_ids.end(), vm.vm_id));
        }
        break;
      }
      case 6: {  // server failure
        const auto failed =
            site.fail_servers(1 + static_cast<int>(rng.below(2)));
        for (const dcsim::VmInstance& vm : failed) {
          placed_ids.erase(
              std::find(placed_ids.begin(), placed_ids.end(), vm.vm_id));
        }
        break;
      }
      case 7:  // repair
        site.repair_servers(1 + static_cast<int>(rng.below(2)));
        break;
    }
  }
  if (std::string diff = check_all(ops); !diff.empty()) {
    return fail_str(std::move(diff));
  }
  return CaseResult::pass();
}

// --- solver suite --------------------------------------------------------

Spec gen_model_spec(util::Rng& rng) {
  Spec spec;
  spec.set("seed", static_cast<std::int64_t>(rng.next() >> 1));
  spec.set("vars", 2 + static_cast<std::int64_t>(rng.below(8)));
  spec.set("rows", 1 + static_cast<std::int64_t>(rng.below(8)));
  spec.set("ints", static_cast<std::int64_t>(rng.below(4)));
  return spec;
}

const std::vector<ShrinkKey> kModelShrink = {
    {"vars", 1}, {"rows", 0}, {"ints", 0}};

/// x must satisfy bounds, integrality, and every row of `model` to `tol`.
std::string audit_feasibility(const solver::Model& model,
                              const std::vector<double>& x, double tol) {
  if (x.size() != model.n_vars()) return "solution size mismatch";
  for (std::size_t v = 0; v < x.size(); ++v) {
    const solver::Variable& var = model.vars()[v];
    if (x[v] < var.lb - tol || x[v] > var.ub + tol) {
      return "variable " + var.name + " out of bounds";
    }
    if (var.integer && std::abs(x[v] - std::round(x[v])) > tol) {
      return "variable " + var.name + " not integral";
    }
  }
  for (std::size_t c = 0; c < model.n_constraints(); ++c) {
    const solver::Constraint& con = model.constraints()[c];
    double lhs = 0.0;
    for (const auto& [idx, coeff] : con.terms) {
      lhs += coeff * x[static_cast<std::size_t>(idx)];
    }
    const bool ok = con.rel == solver::Rel::le   ? lhs <= con.rhs + tol
                    : con.rel == solver::Rel::ge ? lhs >= con.rhs - tol
                                                 : std::abs(lhs - con.rhs) <=
                                                       tol;
    if (!ok) return "constraint " + std::to_string(c) + " violated";
  }
  return {};
}

CaseResult eval_revised_objective(const Spec& spec) {
  const solver::Model model = make_model(spec);
  solver::MipOptions revised;
  revised.engine = solver::MipEngine::revised;
  const solver::MipResult got = solver::solve_mip(model, revised);
  const solver::MipResult want = solver::reference::solve_mip(model);
  if (got.status != want.status) {
    return fail_str("status " + std::to_string(static_cast<int>(got.status)) +
                    " != reference " +
                    std::to_string(static_cast<int>(want.status)));
  }
  if (got.status != solver::LpStatus::optimal) return CaseResult::pass();
  if (!near(got.objective, want.objective, 1e-6)) {
    return fail_str("objective " + std::to_string(got.objective) +
                    " != reference " + std::to_string(want.objective));
  }
  if (std::string bad = audit_feasibility(model, got.x, 1e-6); !bad.empty()) {
    return fail_str("revised solution infeasible: " + bad);
  }
  return CaseResult::pass();
}

CaseResult eval_mip_dominance(const Spec& spec) {
  const solver::Model model = make_model(spec);
  const solver::MipResult mip = solver::reference::solve_mip(model);
  // Sample integral points of the box; any one that satisfies the rows is
  // a feasible candidate the optimum must dominate (a greedy/rounding
  // heuristic can never beat the exact solve).
  util::Rng rng{spec.child_seed("candidates")};
  for (int k = 0; k < 32; ++k) {
    std::vector<double> x(model.n_vars(), 0.0);
    for (std::size_t v = 0; v < x.size(); ++v) {
      const solver::Variable& var = model.vars()[v];
      const double hi = std::min(var.ub, var.lb + 8.0);
      double value = var.lb + (hi - var.lb) * rng.uniform();
      if (var.integer) value = std::floor(value);
      x[v] = std::clamp(value, var.lb, var.ub);
    }
    if (!audit_feasibility(model, x, 1e-9).empty()) continue;
    if (mip.status != solver::LpStatus::optimal) {
      return fail_str("reference says " +
                      std::to_string(static_cast<int>(mip.status)) +
                      " but a feasible integral point exists");
    }
    const double candidate = model.objective_of(x);
    if (candidate < mip.objective - 1e-6) {
      return fail_str("sampled point beats the MIP optimum: " +
                      std::to_string(candidate) + " < " +
                      std::to_string(mip.objective));
    }
  }
  return CaseResult::pass();
}

std::string diff_models(const solver::Model& a, const solver::Model& b) {
  if (a.n_vars() != b.n_vars()) return "variable count changed";
  if (a.n_constraints() != b.n_constraints()) return "constraint count changed";
  for (std::size_t v = 0; v < a.n_vars(); ++v) {
    const solver::Variable& x = a.vars()[v];
    const solver::Variable& y = b.vars()[v];
    if (x.name != y.name || x.cost != y.cost || x.lb != y.lb ||
        x.ub != y.ub || x.integer != y.integer) {
      return "variable " + x.name + " changed";
    }
  }
  for (std::size_t c = 0; c < a.n_constraints(); ++c) {
    const solver::Constraint& x = a.constraints()[c];
    const solver::Constraint& y = b.constraints()[c];
    if (x.terms != y.terms || x.rel != y.rel || x.rhs != y.rhs) {
      return "constraint " + std::to_string(c) + " changed";
    }
  }
  return {};
}

CaseResult eval_lexi_restore(const Spec& spec) {
  const solver::Model original = make_model(spec);
  util::Rng rng{spec.child_seed("secondary")};
  std::vector<double> secondary(original.n_vars());
  for (double& c : secondary) c = rng.uniform(-5.0, 5.0);

  for (const solver::MipEngine engine :
       {solver::MipEngine::auto_select, solver::MipEngine::revised}) {
    solver::Model model = original;
    solver::MipOptions options;
    options.engine = engine;
    (void)solver::solve_lexicographic(model, secondary, 0.05, 1e-6, options);
    if (std::string diff = diff_models(original, model); !diff.empty()) {
      return fail_str(std::string{"solve_lexicographic left the model "
                                  "modified ("} +
                      solver::engine_name(engine) + "): " + diff);
    }
  }
  return CaseResult::pass();
}

/// Spec for the decomposition property: alternates between the
/// fully random family (usually coupled → monolithic fallback) and a
/// block-diagonal chain family (several independent trajectory chains →
/// the DP master), so both sides of the decomposed engine fuzz every run.
Spec gen_decompose_spec(util::Rng& rng) {
  Spec spec = gen_model_spec(rng);
  spec.set("chains", static_cast<std::int64_t>(rng.below(4)));  // 0 = random
  spec.set("sites", 2 + static_cast<std::int64_t>(rng.below(3)));
  spec.set("buckets", 2 + static_cast<std::int64_t>(rng.below(4)));
  return spec;
}

const std::vector<ShrinkKey> kDecomposeShrink = {
    {"chains", 0}, {"sites", 2}, {"buckets", 2},
    {"vars", 1},   {"rows", 0},  {"ints", 0}};

/// `chains` independent trajectory chains (assignment rows + move rows),
/// the structure the decomposition's DP master is specialized for.
solver::Model make_chain_model(const Spec& spec) {
  const auto chains =
      static_cast<int>(std::clamp<std::int64_t>(spec.get("chains", 1), 1, 4));
  const auto sites =
      static_cast<int>(std::clamp<std::int64_t>(spec.get("sites", 2), 2, 5));
  const auto buckets = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("buckets", 2), 2, 6));
  util::Rng rng{spec.child_seed("chain-model")};
  solver::Model model;
  for (int c = 0; c < chains; ++c) {
    std::vector<std::vector<int>> x(static_cast<std::size_t>(buckets));
    std::vector<std::vector<int>> y(static_cast<std::size_t>(buckets));
    for (int k = 0; k < buckets; ++k) {
      for (int s = 0; s < sites; ++s) {
        x[static_cast<std::size_t>(k)].push_back(
            model.add_binary("x", rng.uniform(0.0, 50.0)));
        y[static_cast<std::size_t>(k)].push_back(
            model.add_var("y", rng.uniform(10.0, 100.0), 0.0, 1.0));
      }
    }
    const int home = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(sites)));
    for (int k = 0; k < buckets; ++k) {
      std::vector<std::pair<int, double>> one;
      for (int s = 0; s < sites; ++s) {
        one.emplace_back(x[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(s)],
                         1.0);
      }
      model.add_constraint(std::move(one), solver::Rel::eq, 1.0);
      for (int s = 0; s < sites; ++s) {
        std::vector<std::pair<int, double>> terms;
        terms.emplace_back(x[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(s)],
                           1.0);
        double rhs = 0.0;
        if (k > 0) {
          terms.emplace_back(x[static_cast<std::size_t>(k - 1)]
                              [static_cast<std::size_t>(s)],
                             -1.0);
        } else {
          rhs = s == home ? 1.0 : 0.0;
        }
        terms.emplace_back(y[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(s)],
                           -1.0);
        model.add_constraint(std::move(terms), solver::Rel::le, rhs);
      }
    }
  }
  return model;
}

solver::Model make_decompose_model(const Spec& spec) {
  return spec.get("chains", std::int64_t{0}) > 0 ? make_chain_model(spec)
                                                 : make_model(spec);
}

CaseResult eval_decomposed_diff(const Spec& spec) {
  const solver::Model model = make_decompose_model(spec);
  solver::MipOptions decomposed;
  decomposed.engine = solver::MipEngine::decomposed;
  solver::MipOptions monolithic;
  monolithic.engine = solver::MipEngine::revised;
  const solver::MipResult got = solver::solve_mip(model, decomposed);
  const solver::MipResult want = solver::solve_mip(model, monolithic);
  // The production default (auto_select) must meet the oracle directly.
  const solver::MipResult dflt = solver::solve_mip(model);
  const solver::MipResult oracle = solver::reference::solve_mip(model);
  if (dflt.status != oracle.status) {
    return fail_str("default status " +
                    std::to_string(static_cast<int>(dflt.status)) +
                    " != reference " +
                    std::to_string(static_cast<int>(oracle.status)));
  }
  if (dflt.status == solver::LpStatus::optimal &&
      !near(dflt.objective, oracle.objective, 1e-6)) {
    return fail_str("default objective " + std::to_string(dflt.objective) +
                    " != reference " + std::to_string(oracle.objective));
  }
  if (got.status != want.status) {
    return fail_str("decomposed status " +
                    std::to_string(static_cast<int>(got.status)) +
                    " != monolithic " +
                    std::to_string(static_cast<int>(want.status)));
  }
  if (got.status != solver::LpStatus::optimal) return CaseResult::pass();
  if (!near(got.objective, want.objective, 1e-6)) {
    return fail_str("decomposed objective " + std::to_string(got.objective) +
                    " != monolithic " + std::to_string(want.objective));
  }
  if (std::string bad = audit_feasibility(model, got.x, 1e-6); !bad.empty()) {
    return fail_str("decomposed solution infeasible: " + bad);
  }
  // A chain family must actually decompose; the fallback defeats the test.
  if (spec.get("chains", std::int64_t{0}) > 0 && got.monolithic_fallback) {
    return fail_str("chain-structured model took the monolithic fallback");
  }
  return CaseResult::pass();
}

/// MipScheduler's incremental model builder: a faulted run whose patched
/// models are re-verified bitwise against a scratch build on every replan
/// (verify_incremental_build throws on the first diverging bit) must also
/// reproduce the scratch-built simulation exactly. Chaos is on so
/// topology-epoch bumps exercise the cache-invalidation path, and the
/// scheduler's own counters prove the delta path actually ran.
CaseResult eval_delta_model_identity(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  fault::ChaosConfig chaos;
  chaos.intensity = std::max<std::int64_t>(0, spec.get("i100", 100)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, chaos, spec.child_seed("chaos"));
  const std::uint64_t noise = spec.child_seed("noise");

  std::int64_t patches = 0;
  std::int64_t invalidations = 0;
  const auto run_with = [&](bool incremental, bool verify) {
    fault::FaultInjector injector{sc.graph, schedule, noise};
    core::VmLevelConfig config;
    config.faults.hooks = &injector;
    core::MipSchedulerConfig mc = core::make_mip24h_config();
    mc.incremental_build = incremental;
    mc.verify_incremental_build = verify;
    core::MipScheduler scheduler{mc};
    core::VmLevelResult result = core::run_vm_level_simulation(
        injector.graph(), sc.apps, scheduler, config, nullptr);
    if (incremental) {
      patches = scheduler.model_patch_count();
      invalidations = scheduler.model_cache_invalidations();
    } else if (scheduler.model_patch_count() != 0) {
      throw std::logic_error{"scratch run patched a model"};
    }
    return result;
  };
  try {
    const core::VmLevelResult scratch = run_with(false, false);
    const core::VmLevelResult delta = run_with(true, true);
    const std::string diff =
        diff_vm_results(scratch, delta, sc.graph.n_sites());
    if (!diff.empty()) {
      return fail_str("incremental vs scratch model build: " + diff);
    }
  } catch (const std::logic_error& e) {
    // verify_incremental_build throws through the sim on a bitwise diff.
    return fail_str(std::string{"delta build diverged: "} + e.what());
  }
  // Patch/invalidation counts depend on how many same-family solves the
  // random scenario happens to produce, so they are observability here,
  // not an assertion — tests/test_solver_delta.cpp pins them on directed
  // scenarios where the counts are forced.
  (void)patches;
  (void)invalidations;
  return CaseResult::pass();
}

// --- fault suite ---------------------------------------------------------

CaseResult eval_csv_roundtrip(const Spec& spec) {
  const fault::FaultSchedule schedule = make_fault_events(spec);
  const std::filesystem::path a = temp_file(spec, "a");
  const std::filesystem::path b = temp_file(spec, "b");
  std::string verdict;
  try {
    fault::save_schedule_csv(schedule, a.string());
    const fault::FaultSchedule loaded = fault::load_schedule_csv(a.string());
    if (loaded.events.size() != schedule.events.size()) {
      verdict = "event count changed: " +
                std::to_string(schedule.events.size()) + " -> " +
                std::to_string(loaded.events.size());
    }
    for (std::size_t i = 0; verdict.empty() && i < schedule.events.size();
         ++i) {
      const fault::FaultEvent& x = schedule.events[i];
      const fault::FaultEvent& y = loaded.events[i];
      if (x.kind != y.kind || x.start != y.start || x.end != y.end ||
          x.site != y.site || x.peer != y.peer || x.alpha != y.alpha ||
          x.sigma != y.sigma || x.count != y.count) {
        verdict = "event " + std::to_string(i) +
                  " not bit-identical after round-trip";
      }
    }
    if (verdict.empty()) {
      // Second save must reproduce the file byte for byte.
      fault::save_schedule_csv(loaded, b.string());
      if (slurp(a) != slurp(b)) verdict = "re-saved CSV differs bytewise";
    }
  } catch (const std::exception& e) {
    verdict = std::string{"round-trip threw: "} + e.what();
  }
  std::filesystem::remove(a);
  std::filesystem::remove(b);
  return verdict.empty() ? CaseResult::pass() : fail_str(std::move(verdict));
}

CaseResult eval_csv_malformed(const Spec& spec) {
  struct BadCsv {
    const char* body;
    int line;
    int column;
    /// When true, load through the strict graph-aware overload with these
    /// limits (the permissive loader accepts the body).
    bool strict = false;
    std::size_t sites = 0;
    std::size_t ticks = 0;
  };
  static const BadCsv kCorpus[] = {
      // unknown kind
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "meteor_strike,0,4,0,0,0,0,0\n",
       2, 0},
      // short row
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,0,4,0,0,0,0\n",
       2, 7},
      // non-numeric start
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,soon,4,0,0,0,0,0\n",
       2, 1},
      // end before start
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,9,3,0,0,0,0,0\n",
       2, 2},
      // negative sigma
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "forecast_error,0,4,0,0,0.1,-0.5,0\n",
       2, 6},
      // error past a valid first row
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,0,4,0,0,0,0,0\n"
       "server_failure,0,4,1,0,0,0,many\n",
       3, 7},
      // negative site
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_brownout,0,4,-2,0,0.5,0,0\n",
       2, 3},
      // strict: overlapping same-site blackout windows
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,0,8,0,0,0,0,0\n"
       "site_blackout,5,12,0,0,0,0,0\n",
       3, 1, true, 4, 96},
      // strict: start tick past the horizon
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_blackout,200,210,0,0,0,0,0\n",
       2, 1, true, 4, 96},
      // strict: end tick past the horizon
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "site_brownout,90,120,0,0,0.5,0,0\n",
       2, 2, true, 4, 96},
      // strict: site outside the fleet
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "server_failure,0,4,9,0,0,0,2\n",
       2, 3, true, 4, 96},
      // strict: link peer outside the fleet
      {"kind,start,end,site,peer,alpha,sigma,count\n"
       "link_down,0,4,1,7,0,0,0\n",
       2, 4, true, 4, 96},
  };
  const auto n_cases = static_cast<std::int64_t>(std::size(kCorpus));
  const BadCsv& bad = kCorpus[static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("case", 0), 0, n_cases - 1))];

  const std::filesystem::path path = temp_file(spec, "bad");
  {
    std::ofstream out{path, std::ios::binary};
    out << bad.body;
  }
  std::string verdict = "load_schedule_csv accepted malformed CSV";
  try {
    if (bad.strict) {
      (void)fault::load_schedule_csv(
          path.string(), fault::ScheduleLoadLimits{bad.sites, bad.ticks});
    } else {
      (void)fault::load_schedule_csv(path.string());
    }
  } catch (const std::runtime_error& e) {
    const std::string want = "at line " + std::to_string(bad.line) +
                             ", column " + std::to_string(bad.column);
    verdict = std::string{e.what()}.find(want) != std::string::npos
                  ? ""
                  : "error lacks position '" + want + "': " + e.what();
  }
  std::filesystem::remove(path);
  return verdict.empty() ? CaseResult::pass() : fail_str(std::move(verdict));
}

CaseResult eval_chaos_identity(const Spec& spec) {
  const core::VbGraph graph = make_graph(spec);
  fault::ChaosConfig config;
  config.intensity =
      std::max<std::int64_t>(0, spec.get("i100", 150)) / 100.0;
  const std::uint64_t seed = spec.child_seed("chaos");
  const fault::FaultSchedule a = make_chaos_schedule(graph, config, seed);
  const fault::FaultSchedule b = make_chaos_schedule(graph, config, seed);
  if (a.events.size() != b.events.size()) {
    return fail_str("equal seeds drew different event counts");
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const fault::FaultEvent& x = a.events[i];
    const fault::FaultEvent& y = b.events[i];
    if (x.kind != y.kind || x.start != y.start || x.end != y.end ||
        x.site != y.site || x.peer != y.peer || x.alpha != y.alpha ||
        x.sigma != y.sigma || x.count != y.count) {
      return fail_str("equal seeds diverge at event " + std::to_string(i));
    }
  }
  if (config.intensity == 0.0 && !a.empty()) {
    return fail_str("intensity 0 produced events");
  }
  const auto key = [](const fault::FaultEvent& e) {
    return std::make_tuple(e.start, static_cast<int>(e.kind), e.site, e.peer,
                           e.end);
  };
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    if (key(a.events[i - 1]) > key(a.events[i])) {
      return fail_str("schedule not sorted at event " + std::to_string(i));
    }
  }
  for (const fault::FaultEvent& e : a.events) {
    if (e.end > static_cast<util::Tick>(graph.n_ticks())) {
      return fail_str("event overruns the trace");
    }
  }
  return CaseResult::pass();
}

CaseResult eval_chaos_invariants(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  fault::ChaosConfig config;
  config.intensity =
      std::max<std::int64_t>(0, spec.get("i100", 200)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, config, spec.child_seed("chaos"));
  fault::FaultInjector injector{sc.graph, schedule, spec.child_seed("noise"),
                                /*check_invariants=*/true};
  core::VmLevelConfig vm_config;
  vm_config.faults.hooks = &injector;
  const auto scheduler = make_scheduler(spec);
  try {
    (void)core::run_vm_level_simulation(injector.graph(), sc.apps, *scheduler,
                                        vm_config, nullptr);
  } catch (const std::logic_error& e) {
    return fail_str(std::string{"invariant violation under chaos: "} +
                    e.what());
  }
  if (injector.checked_ticks() !=
      static_cast<std::int64_t>(sc.graph.n_ticks())) {
    return fail_str("checker vetted " +
                    std::to_string(injector.checked_ticks()) + " of " +
                    std::to_string(sc.graph.n_ticks()) + " ticks");
  }
  return CaseResult::pass();
}

// --- energy suite --------------------------------------------------------

Spec gen_fleet_spec(util::Rng& rng) {
  Spec spec;
  spec.set("seed", static_cast<std::int64_t>(rng.next() >> 1));
  spec.set("solar", static_cast<std::int64_t>(rng.below(4)));
  spec.set("wind", 1 + static_cast<std::int64_t>(rng.below(4)));
  spec.set("days", 1 + static_cast<std::int64_t>(rng.below(4)));
  spec.set("region", 100 + static_cast<std::int64_t>(rng.below(1200)));
  spec.set("storms", rng.chance(0.5) ? 1 : 0);
  return spec;
}

energy::Fleet fleet_from_spec(const Spec& spec) {
  energy::FleetConfig config;
  config.n_solar = static_cast<int>(
      std::max<std::int64_t>(0, spec.get("solar", 1)));
  config.n_wind = static_cast<int>(
      std::max<std::int64_t>(0, spec.get("wind", 1)));
  if (config.n_solar + config.n_wind == 0) config.n_wind = 1;
  config.region_km = static_cast<double>(
      std::max<std::int64_t>(10, spec.get("region", 500)));
  config.enable_storms = spec.get("storms", std::int64_t{0}) != 0;
  config.seed = spec.child_seed("fleet");
  const util::TimeAxis axis{15};
  const auto n_ticks = static_cast<std::size_t>(
      std::max<std::int64_t>(1, spec.get("days", 2)) * axis.ticks_per_day());
  return energy::generate_fleet(config, axis, n_ticks);
}

CaseResult eval_trace_range(const Spec& spec) {
  const energy::Fleet fleet = fleet_from_spec(spec);
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    for (const double v : fleet.traces[s].normalized_series()) {
      if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
        return fail_str(fleet.specs[s].name + " sample out of [0,1]: " +
                        std::to_string(v));
      }
    }
  }
  // Forecasts must stay physical too, and the bulk API must agree with
  // the per-tick one.
  const core::VbGraph graph{fleet, core::VbGraphConfig{}};
  util::Rng rng{spec.child_seed("probe")};
  const auto n_ticks = static_cast<util::Tick>(graph.n_ticks());
  for (int probe = 0; probe < 8; ++probe) {
    const std::size_t s = rng.below(graph.n_sites());
    const auto now = static_cast<util::Tick>(rng.below(
        static_cast<std::uint64_t>(n_ticks)));
    const std::vector<int> series =
        graph.forecast_series(s, now, 0, n_ticks);
    for (util::Tick t = 0; t < n_ticks; ++t) {
      const int cores = graph.forecast_cores(s, t, now);
      if (cores < 0 || cores > graph.site(s).capacity_cores) {
        return fail_str("forecast_cores out of range at site " +
                        std::to_string(s));
      }
      if (series[static_cast<std::size_t>(t)] != cores) {
        return fail_str("forecast_series disagrees with forecast_cores at t=" +
                        std::to_string(t));
      }
    }
  }
  return CaseResult::pass();
}

CaseResult eval_stable_monotone(const Spec& spec) {
  const energy::Fleet fleet = fleet_from_spec(spec);
  if (fleet.size() < 2) return CaseResult::pass();
  util::Rng rng{spec.child_seed("window")};
  const auto n_ticks = static_cast<util::Tick>(
      fleet.traces[0].normalized_series().size());
  const std::size_t a = rng.below(fleet.size());
  std::size_t b = rng.below(fleet.size());
  if (b == a) b = (b + 1) % fleet.size();
  const energy::PowerTrace combined =
      energy::combine({&fleet.traces[a], &fleet.traces[b]});
  // Random window plus the full span: the minimum of a sum dominates the
  // sum of minima, so the combined stable energy is superadditive.
  const util::Tick w0 = static_cast<util::Tick>(
      rng.below(static_cast<std::uint64_t>(n_ticks)));
  const util::Tick w1 =
      w0 + 1 +
      static_cast<util::Tick>(
          rng.below(static_cast<std::uint64_t>(n_ticks - w0)));
  for (const auto& [begin, end] :
       {std::pair<util::Tick, util::Tick>{0, n_ticks}, {w0, w1}}) {
    const double whole =
        energy::decompose(combined, begin, end).stable_mwh;
    const double parts =
        energy::decompose(fleet.traces[a], begin, end).stable_mwh +
        energy::decompose(fleet.traces[b], begin, end).stable_mwh;
    if (whole < parts - 1e-9 * std::max(1.0, parts)) {
      return fail_str("stable energy not superadditive on [" +
                      std::to_string(begin) + "," + std::to_string(end) +
                      "): combined " + std::to_string(whole) + " < parts " +
                      std::to_string(parts));
    }
  }
  return CaseResult::pass();
}

// --- svc suite -----------------------------------------------------------

/// Small spec-driven scenario for the control-plane service. Sizes are
/// clamped hard: every case runs the full tick pipeline twice (streamed
/// and batch), so this is the most expensive eval per case in the suite.
svc::ScenarioConfig svc_scenario_config(const Spec& spec) {
  svc::ScenarioConfig config;
  config.days = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("days", 1), 1, 2));
  config.n_solar = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("solar", 2), 0, 4));
  config.n_wind = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("wind", 2), 0, 4));
  if (config.n_solar + config.n_wind == 0) config.n_solar = 1;
  config.apps_per_hour =
      std::max<std::int64_t>(0, spec.get("aph100", 120)) / 100.0;
  config.chaos_intensity =
      std::max<std::int64_t>(0, spec.get("i100", 0)) / 100.0;
  config.chaos_seed = spec.child_seed("chaos");
  config.batch_jobs_per_hour =
      std::max<std::int64_t>(0, spec.get("jph100", 0)) / 100.0;
  config.batch_tasks_per_hour =
      std::max<std::int64_t>(0, spec.get("tph100", 0)) / 100.0;
  config.batch_seed = spec.child_seed("batch");
  return config;
}

svc::ServiceConfig svc_service_config(const Spec& spec) {
  svc::ServiceConfig config;
  config.policy = spec.get("sched", std::string{"greedy"}) == "mip24h"
                      ? "mip24h"
                      : "greedy";
  config.noise_seed = spec.child_seed("noise");
  return config;
}

/// The batch half of the equivalence contract: run_simulation over the
/// same scenario, with every scheduled fault pre-injected into a
/// StreamInjector so hook-gated accounting matches the service (same
/// construction as vbatt_svc --verify).
core::SimResult svc_run_batch(const svc::Scenario& scenario,
                              const svc::ServiceConfig& config) {
  fault::StreamInjector injector{scenario.graph, config.noise_seed};
  for (const fault::FaultEvent& f : scenario.schedule.events) {
    injector.inject(f, -1);
  }
  const std::unique_ptr<core::Scheduler> scheduler =
      svc::make_service_scheduler(config.policy);
  core::FaultConfig faults{&injector, config.retry};
  // The service receives batch entities as submission events; the batch
  // engine gets the identical workload attached up front via extensions.
  core::ScenarioExtensions ext;
  if (!scenario.batch.empty()) ext.batch = &scenario.batch;
  return core::run_simulation(injector.graph(), scenario.apps, *scheduler,
                              config.power_model, &faults, &ext);
}

/// Feeding a scenario's event stream through the ControlPlane must
/// reproduce the batch engine's SimResult bit-exactly — telemetry,
/// faults, arrivals, and (when enabled) per-tick heartbeats included.
CaseResult eval_svc_batch_diff(const Spec& spec) {
  const svc::Scenario scenario = svc::make_scenario(svc_scenario_config(spec));
  svc::ServiceConfig config = svc_service_config(spec);
  // Per-tick heartbeats keep every site Alive, so enabling health tracking
  // must not perturb the simulation.
  const bool beats = spec.get("beats", 0) != 0;
  config.health.enabled = beats;

  svc::ControlPlane service{scenario.graph, config};
  for (svc::Event& e : svc::scenario_events(scenario, beats)) {
    try {
      service.submit(std::move(e));
    } catch (const std::exception& ex) {
      return fail_str(std::string{"service rejected a scenario event: "} +
                      ex.what());
    }
  }
  const core::SimResult streamed = service.finish();
  const core::SimResult batch = svc_run_batch(scenario, config);
  if (svc::result_fingerprint(streamed) != svc::result_fingerprint(batch)) {
    return fail_str("streamed result diverges from the batch engine");
  }
  return CaseResult::pass();
}

/// Recovery identity: a snapshot taken at any point of a run, plus replay
/// of the durable log, must land on the exact bytes of the uninterrupted
/// run — and replay must be idempotent (a second pass applies nothing).
CaseResult eval_svc_replay_identity(const Spec& spec) {
  const svc::Scenario scenario = svc::make_scenario(svc_scenario_config(spec));
  const svc::ServiceConfig config = svc_service_config(spec);
  std::vector<svc::Event> events = svc::scenario_events(scenario, false);
  const std::size_t cut = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("cut100", 50), 0, 100));
  const std::size_t split = events.size() * cut / 100;

  const std::filesystem::path log_path = temp_file(spec, "evlog");
  std::string verdict;
  try {
    svc::ControlPlane a{scenario.graph, config};
    a.attach_log(
        std::make_unique<svc::EventLogWriter>(log_path.string(), true));
    std::string mid;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i == split) mid = a.snapshot_bytes();
      a.submit(std::move(events[i]));
    }
    if (split >= events.size()) mid = a.snapshot_bytes();
    const std::string final_state = a.snapshot_bytes();
    a.attach_log(nullptr);  // close the log before reading it back

    const svc::EventLogContents log = svc::read_event_log(log_path.string());
    if (log.torn_tail()) {
      verdict = "log written by a clean run reports a torn tail";
    }

    // Snapshot + replay of the full log == the uninterrupted run.
    svc::ControlPlane b{scenario.graph, config};
    b.restore_snapshot(mid);
    b.replay(log.records);
    if (verdict.empty() && b.snapshot_bytes() != final_state) {
      verdict = "snapshot@" + std::to_string(split) +
                " + replay diverges from the live run";
    }
    // Replay is idempotent: every record's seq is already covered.
    if (verdict.empty() && b.replay(log.records) != 0) {
      verdict = "second replay re-applied already-covered records";
    }
    if (verdict.empty() && b.snapshot_bytes() != final_state) {
      verdict = "double replay changed the state";
    }
    // Cold start (no snapshot) must converge to the same bytes too.
    svc::ControlPlane c{scenario.graph, config};
    c.replay(log.records);
    if (verdict.empty() && c.snapshot_bytes() != final_state) {
      verdict = "genesis replay diverges from the live run";
    }
  } catch (const std::exception& ex) {
    verdict = std::string{"replay identity threw: "} + ex.what();
  }
  std::filesystem::remove(log_path);
  return verdict.empty() ? CaseResult::pass() : fail_str(std::move(verdict));
}

}  // namespace

std::vector<Property> all_properties() {
  std::vector<Property> registry;

  const auto scenario_gen = [](util::Rng& rng) {
    return gen_scenario_spec(rng);
  };
  const auto scenario_gen_sched = [](util::Rng& rng) {
    Spec spec = gen_scenario_spec(rng);
    if (rng.chance(0.125)) spec.set("sched", std::string{"mip24h"});
    return spec;
  };

  registry.push_back({"sim", "conservation", scenario_gen, eval_conservation,
                      kScenarioShrink});
  registry.push_back({"sim", "thread_invariance", scenario_gen,
                      eval_thread_invariance, kScenarioShrink});
  registry.push_back({"sim", "chaos_zero", scenario_gen_sched,
                      eval_chaos_zero, kScenarioShrink});
  registry.push_back({"sim", "engine_diff", scenario_gen, eval_engine_diff,
                      kScenarioShrink});

  registry.push_back({"fleet", "sharded_diff",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        if (rng.chance(0.125)) {
                          spec.set("sched", std::string{"mip24h"});
                        }
                        spec.set("shards", 1 + static_cast<std::int64_t>(
                                                   rng.below(8)));
                        return spec;
                      },
                      eval_fleet_diff, kScenarioShrink});
  registry.push_back({"fleet", "shard_invariance",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        spec.set("i100", 50 + static_cast<std::int64_t>(
                                                  rng.below(250)));
                        return spec;
                      },
                      eval_fleet_shard_invariance, kScenarioShrink});

  registry.push_back({"sim", "deadline_conservation",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("days",
                                 1 + static_cast<std::int64_t>(rng.below(3)));
                        gen_batch_keys(spec, rng);
                        spec.set("bsites",
                                 1 + static_cast<std::int64_t>(rng.below(6)));
                        spec.set("bfree",
                                 static_cast<std::int64_t>(rng.below(65)));
                        return spec;
                      },
                      eval_deadline_conservation, kOverlayShrink});
  registry.push_back({"sim", "harvest_closure",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        gen_batch_keys(spec, rng);
                        if (rng.chance(0.125)) {
                          spec.set("sched", std::string{"mip24h"});
                        }
                        return spec;
                      },
                      eval_harvest_closure, kBatchScenarioShrink});
  registry.push_back({"solver", "objective_identity",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        gen_econ_keys(spec, rng);
                        if (rng.chance(0.5)) {
                          spec.set("obj", std::string{"carbon"});
                        }
                        return spec;
                      },
                      eval_objective_identity, kEconScenarioShrink});
  registry.push_back({"fleet", "batch_sharded_diff",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        gen_batch_keys(spec, rng);
                        gen_econ_keys(spec, rng);
                        if (rng.chance(0.125)) {
                          spec.set("sched", std::string{"mip24h"});
                        }
                        spec.set("shards", 1 + static_cast<std::int64_t>(
                                                   rng.below(8)));
                        return spec;
                      },
                      eval_batch_fleet_diff, kBatchScenarioShrink});

  registry.push_back({"dcsim", "placement_diff",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("servers",
                                 1 + static_cast<std::int64_t>(rng.below(10)));
                        spec.set("ops",
                                 8 + static_cast<std::int64_t>(rng.below(93)));
                        return spec;
                      },
                      eval_placement_diff,
                      {{"ops", 1}, {"servers", 1}}});

  registry.push_back({"solver", "revised_objective", gen_model_spec,
                      eval_revised_objective, kModelShrink});
  registry.push_back({"solver", "mip_dominance", gen_model_spec,
                      eval_mip_dominance, kModelShrink});
  registry.push_back({"solver", "lexi_restore", gen_model_spec,
                      eval_lexi_restore, kModelShrink});
  registry.push_back({"solver", "decomposed_diff", gen_decompose_spec,
                      eval_decomposed_diff, kDecomposeShrink});
  registry.push_back({"solver", "delta_model_identity",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        spec.set("i100",
                                 static_cast<std::int64_t>(rng.below(300)));
                        return spec;
                      },
                      eval_delta_model_identity, kScenarioShrink});

  registry.push_back({"fault", "csv_roundtrip",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("events",
                                 static_cast<std::int64_t>(rng.below(24)));
                        return spec;
                      },
                      eval_csv_roundtrip,
                      {{"events", 0}}});
  registry.push_back({"fault", "csv_malformed",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("case",
                                 static_cast<std::int64_t>(rng.below(12)));
                        return spec;
                      },
                      eval_csv_malformed,
                      {}});
  registry.push_back({"fault", "chaos_identity",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        spec.set("i100",
                                 static_cast<std::int64_t>(rng.below(400)));
                        return spec;
                      },
                      eval_chaos_identity,
                      kScenarioShrink});
  registry.push_back({"fault", "chaos_invariants",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        spec.set("i100", 50 + static_cast<std::int64_t>(
                                                  rng.below(250)));
                        return spec;
                      },
                      eval_chaos_invariants,
                      kScenarioShrink});

  const auto svc_gen = [](util::Rng& rng) {
    Spec spec;
    spec.set("seed", static_cast<std::int64_t>(rng.next() >> 1));
    spec.set("days", 1);
    spec.set("solar", static_cast<std::int64_t>(rng.below(4)));
    spec.set("wind", static_cast<std::int64_t>(rng.below(4)));
    spec.set("aph100", 40 + static_cast<std::int64_t>(rng.below(200)));
    if (rng.chance(0.5)) {
      spec.set("i100", static_cast<std::int64_t>(rng.below(300)));
    }
    if (rng.chance(0.125)) spec.set("sched", std::string{"mip24h"});
    if (rng.chance(0.5)) {
      spec.set("jph100", static_cast<std::int64_t>(rng.below(150)));
      spec.set("tph100", static_cast<std::int64_t>(rng.below(250)));
    }
    return spec;
  };
  const std::vector<ShrinkKey> svc_shrink = {
      {"days", 1},   {"solar", 0},  {"wind", 0},   {"aph100", 0},
      {"i100", 0},   {"cut100", 0}, {"jph100", 0}, {"tph100", 0}};

  registry.push_back({"svc", "batch_diff",
                      [svc_gen](util::Rng& rng) {
                        Spec spec = svc_gen(rng);
                        if (rng.chance(0.25)) spec.set("beats", 1);
                        return spec;
                      },
                      eval_svc_batch_diff, svc_shrink});
  registry.push_back({"svc", "replay_identity",
                      [svc_gen](util::Rng& rng) {
                        Spec spec = svc_gen(rng);
                        spec.set("cut100",
                                 static_cast<std::int64_t>(rng.below(101)));
                        return spec;
                      },
                      eval_svc_replay_identity, svc_shrink});

  registry.push_back({"energy", "trace_range", gen_fleet_spec,
                      eval_trace_range,
                      {{"days", 1}, {"solar", 0}, {"wind", 0}}});
  registry.push_back({"energy", "stable_monotone", gen_fleet_spec,
                      eval_stable_monotone,
                      {{"days", 1}, {"solar", 0}, {"wind", 0}}});

  return registry;
}

}  // namespace vbatt::testkit
