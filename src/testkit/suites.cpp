#include "vbatt/testkit/suites.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/forecast_cache.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/dcsim/site_block.h"
#include "vbatt/energy/aggregate.h"
#include "vbatt/energy/site.h"
#include "vbatt/core/simulation.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/fault/stream.h"
#include "vbatt/net/ledger.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/reference.h"
#include "vbatt/testkit/batch_reference.h"
#include "vbatt/testkit/forecast_reference.h"
#include "vbatt/testkit/generators.h"
#include "vbatt/testkit/ref_fault_injector.h"
#include "vbatt/testkit/ref_ledger.h"
#include "vbatt/testkit/ref_site.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/util/wire.h"

namespace vbatt::testkit {

namespace {

// --- shared helpers ------------------------------------------------------

/// The policy a spec runs: "mip24h" when `sched` says so, else "greedy".
std::string sched_policy(const Spec& spec) {
  return spec.get("sched", std::string{"greedy"}) == "mip24h" ? "mip24h"
                                                              : "greedy";
}

/// VM-level config for the oracle differentials: `place` picks the
/// allocation policy (0 best fit, the default; 1 first fit; 2 worst fit).
core::VmLevelConfig make_vm_config(const Spec& spec) {
  core::VmLevelConfig config;
  switch (spec.get("place", std::int64_t{0})) {
    case 1:
      config.placement = dcsim::BlockPolicy::first_fit;
      break;
    case 2:
      config.placement = dcsim::BlockPolicy::worst_fit;
      break;
    default:
      break;
  }
  return config;
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
    {"deg100", 0}, {"life", 1},   {"place", 0},
};

/// Scenario keys plus the batch-overlay knobs (harvest_closure,
/// batch_sharded_diff).
const std::vector<ShrinkKey> kBatchScenarioShrink = {
    {"days", 1},     {"sites", 1},  {"wind", 0},      {"peak", 1},
    {"amp", 0},      {"period", 1}, {"aph100", 0},    {"maxvms", 1},
    {"deg100", 0},   {"life", 1},   {"jph100", 0},    {"tph100", 0},
    {"bcores", 1},   {"brun", 1},   {"bslack100", 100}, {"blat", 0},
    {"place", 0},
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
  const auto scheduler = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult r =
      core::run_fleet_simulation(sc.graph, sc.apps, *scheduler);
  const std::string violation = conservation_violation(sc.graph, sc.apps, r);
  if (!violation.empty()) return fail_str(violation);
  return CaseResult::pass();
}

CaseResult eval_chaos_zero(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const auto sched_a = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult bare =
      core::run_fleet_simulation(sc.graph, sc.apps, *sched_a);

  fault::StreamInjector injector{sc.graph, spec.child_seed("noise"),
                                 fault::FaultSchedule{}};
  core::VmLevelConfig config;
  config.faults.hooks = &injector;
  const auto sched_b = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult hooked =
      core::run_fleet_simulation(injector.graph(), sc.apps, *sched_b, config);

  // Every field outside the hook-gated fault counters must match the bare
  // run; those counters are pinned separately below.
  const std::string diff = diff_vm_results(bare, hooked, sc.graph.n_sites(),
                                           /*fault_counters=*/false);
  if (!diff.empty()) return fail_str("empty-schedule injector: " + diff);
  if (hooked.base.faulted_site_ticks != 0 ||
      hooked.base.retried_moves != 0 || hooked.base.abandoned_moves != 0) {
    return fail_str("empty schedule produced fault counters");
  }
  // Downtime is metered whenever hooks are installed: exactly the ticks
  // on which the bare run had displaced stable cores.
  std::int64_t downtime = 0;
  for (const std::int64_t cores : bare.base.displaced_stable_cores_per_tick) {
    downtime += cores > 0 ? 1 : 0;
  }
  if (hooked.base.stable_vm_downtime_ticks != downtime) {
    return fail_str("stable_vm_downtime_ticks=" +
                    std::to_string(hooked.base.stable_vm_downtime_ticks) +
                    " != displaced ticks=" + std::to_string(downtime));
  }
  return CaseResult::pass();
}

/// The fleet engine against the frozen linear-scan oracle: field-for-field,
/// bit-for-bit.
CaseResult eval_engine_diff(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const core::VmLevelConfig config = make_vm_config(spec);
  const auto sched_ref = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult ref =
      reference_vm_run(sc.graph, sc.apps, *sched_ref, config);
  const auto scheduler = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult fleet =
      core::run_fleet_simulation(sc.graph, sc.apps, *scheduler, config);
  const std::string diff = diff_vm_results(ref, fleet, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("oracle vs engine: " + diff);
  return CaseResult::pass();
}

// --- fleet suite ---------------------------------------------------------

/// The fleet engine under a chaos schedule must reproduce the oracle's
/// faulted run exactly, fault counters included. (The name predates the
/// serial engine; it is kept so archived results and replays stay valid.)
CaseResult eval_fleet_chaos_diff(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  fault::ChaosConfig chaos;
  chaos.intensity = std::max<std::int64_t>(0, spec.get("i100", 150)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, chaos, spec.child_seed("chaos"));
  const std::uint64_t noise = spec.child_seed("noise");

  const auto faulted_run = [&](auto&& engine) {
    fault::StreamInjector injector{sc.graph, noise, schedule};
    core::VmLevelConfig config = make_vm_config(spec);
    config.faults.hooks = &injector;
    const auto scheduler = svc::make_service_scheduler(sched_policy(spec));
    return engine(injector.graph(), *scheduler, config);
  };
  const core::VmLevelResult baseline = faulted_run(
      [&](const core::VbGraph& graph, core::Scheduler& scheduler,
          const core::VmLevelConfig& config) {
        return reference_vm_run(graph, sc.apps, scheduler, config);
      });
  const core::VmLevelResult fleet = faulted_run(
      [&](const core::VbGraph& graph, core::Scheduler& scheduler,
          const core::VmLevelConfig& config) {
        return core::run_fleet_simulation(graph, sc.apps, scheduler, config);
      });
  const std::string diff = diff_vm_results(baseline, fleet, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("chaos run: " + diff);
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
  const auto scheduler = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult r =
      core::run_fleet_simulation(sc.graph, sc.apps, *scheduler, config);
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
  const core::VmLevelResult r =
      core::run_fleet_simulation(sc.graph, sc.apps, scheduler, config);

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

/// Fleet engine vs the oracle on the full extension surface (batch overlay
/// + price + carbon): bit-for-bit, fingerprint included.
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
  core::VmLevelConfig config = make_vm_config(spec);
  config.ext = &ext;

  const auto sched_a = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult ref =
      reference_vm_run(sc.graph, sc.apps, *sched_a, config);
  const auto sched_b = svc::make_service_scheduler(sched_policy(spec));
  const core::VmLevelResult fleet =
      core::run_fleet_simulation(sc.graph, sc.apps, *sched_b, config);
  const std::string diff = diff_vm_results(ref, fleet, sc.graph.n_sites());
  if (!diff.empty()) return fail_str("extensions: " + diff);
  if (svc::result_fingerprint(ref.base) !=
      svc::result_fingerprint(fleet.base)) {
    return fail_str("fingerprints diverge despite field-level equality");
  }
  return CaseResult::pass();
}

/// util::wire::crc32 (the PCLMULQDQ kernel with its slicing tail wherever
/// the CPU has one) and wire::detail::crc32_portable (slicing-by-8) vs the
/// bitwise CRC-32 definition on `len` random bytes at byte `offset` into
/// the buffer, seeded with `crc`, both in one call and chained in two calls
/// split at `split`.
CaseResult eval_crc_parity(const Spec& spec) {
  const auto len = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("len", 100), 0, 65536));
  const auto offset = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("offset", 0), 0, 63));
  const auto split = static_cast<std::size_t>(std::clamp<std::int64_t>(
      spec.get("split", 0), 0, static_cast<std::int64_t>(len)));
  const auto seed = static_cast<std::uint32_t>(spec.get("crc", 0));
  util::Rng rng{spec.child_seed("bytes")};
  std::string buffer(offset + len, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.next() >> 56);
  const char* p = buffer.data() + offset;

  std::uint32_t want = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    want ^= static_cast<unsigned char>(p[i]);
    for (int k = 0; k < 8; ++k) {
      want = (want & 1u) ? 0xEDB88320u ^ (want >> 1) : want >> 1;
    }
  }
  want ^= 0xFFFFFFFFu;

  using Crc = std::uint32_t (*)(const void*, std::size_t,
                                std::uint32_t) noexcept;
  const std::pair<const char*, Crc> paths[] = {
      {"crc32", &util::wire::crc32},
      {"crc32_portable", &util::wire::detail::crc32_portable}};
  for (const auto& [name, crc] : paths) {
    const std::uint32_t whole = crc(p, len, seed);
    const std::uint32_t chained =
        crc(p + split, len - split, crc(p, split, seed));
    if (whole != want || chained != want) {
      std::ostringstream msg;
      msg << std::hex << name << " = 0x" << whole << ", chained 0x" << chained
          << ", bitwise 0x" << want;
      return fail_str(msg.str());
    }
  }
  return CaseResult::pass();
}

/// Sparse net::MigrationLedger vs the frozen dense RefLedger under one
/// random record_out/record_in sequence. `order` picks the tick stream:
/// 0 chronological (the engines: ticks never go back, same-tick repeats),
/// 1 site-major replay (the snapshot restore: each site's ticks ascending,
/// then the next site), 2 random (out-of-order inserts into the middle of
/// a site's cells). Every draw may repeat a cell, record 0.0 or -0.0, or
/// (rarely) name a bad site/tick or a negative volume; both ledgers must
/// then throw the same exception type and message. Every series must read
/// back bitwise equal, and the sparse cells must stay strictly ascending.
CaseResult eval_ledger_parity(const Spec& spec) {
  const auto n_sites = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("sites", 3), 1, 16));
  const auto n_ticks = static_cast<std::size_t>(
      std::clamp<std::int64_t>(spec.get("ticks", 16), 1, 4096));
  const auto ops = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, spec.get("ops", 40)));
  const std::int64_t order = spec.get("order", 0);
  util::Rng rng{spec.child_seed("ops")};
  net::MigrationLedger ledger{n_sites, n_ticks};
  RefLedger ref{n_sites, n_ticks};

  // Volumes span 60 binades so that a reordered same-cell sum rounds
  // differently; 0.0 and -0.0 are drawn on purpose.
  const auto draw_gb = [&]() -> double {
    switch (rng.below(10)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      default:
        return std::ldexp(rng.uniform(),
                          static_cast<int>(rng.below(61)) - 30);
    }
  };
  const auto outcome = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string{"invalid_argument: "} + e.what();
    } catch (const std::out_of_range& e) {
      return std::string{"out_of_range: "} + e.what();
    }
    return "ok";
  };

  std::size_t site = 0;
  util::Tick tick = 0;
  for (std::uint64_t op = 0; op < ops; ++op) {
    // Advance the (site, tick) cursor; a repeat of the last cell is the
    // same-tick accumulation the engines do.
    if (!rng.chance(0.3)) {
      switch (order) {
        case 0:  // chronological: any site, ticks never go back
          site = rng.below(n_sites);
          if (rng.chance(0.4)) ++tick;
          break;
        case 1:  // site-major: a site's ticks ascend, then the next site
          if (rng.chance(0.5)) ++tick;
          if (tick >= static_cast<util::Tick>(n_ticks)) {
            tick = 0;
            site = (site + 1) % n_sites;
          }
          break;
        default:  // random cell
          site = rng.below(n_sites);
          tick = static_cast<util::Tick>(rng.below(n_ticks));
          break;
      }
    }
    std::size_t s = site;
    util::Tick t = std::min(tick, static_cast<util::Tick>(n_ticks) - 1);
    double gb = draw_gb();
    if (rng.chance(0.05)) {  // one invalid argument, or two at once
      switch (rng.below(4)) {
        case 0:
          s = n_sites + rng.below(2);
          break;
        case 1:
          t = rng.chance(0.5) ? -1 : static_cast<util::Tick>(n_ticks);
          break;
        case 2:
          gb = -std::ldexp(1.0 + rng.uniform(), -3);
          break;
        default:
          s = n_sites;
          gb = -1.0;
          break;
      }
    }
    const bool out = rng.chance(0.5);
    const std::string got = outcome([&] {
      out ? ledger.record_out(s, t, gb) : ledger.record_in(s, t, gb);
    });
    const std::string want = outcome(
        [&] { out ? ref.record_out(s, t, gb) : ref.record_in(s, t, gb); });
    if (got != want) {
      return fail_str("op " + std::to_string(op) + ": record_" +
                      (out ? "out" : "in") + "(" + std::to_string(s) + ", " +
                      std::to_string(t) + ", " + std::to_string(gb) +
                      ") gave " + got + ", RefLedger " + want);
    }
  }

  for (std::size_t q = 0; q <= n_sites; ++q) {  // q == n_sites must throw
    for (const bool out : {true, false}) {
      std::vector<double> got;
      std::vector<double> want;
      const std::string got_how = outcome([&] {
        got = out ? ledger.out_series(q) : ledger.in_series(q);
      });
      const std::string want_how = outcome([&] {
        want = out ? ref.out_series(q) : ref.in_series(q);
      });
      const std::string what = std::string{out ? "out" : "in"} +
                               "_series(" + std::to_string(q) + ")";
      if (got_how != want_how) {
        return fail_str(what + " gave " + got_how + ", RefLedger " +
                        want_how);
      }
      if (got.size() != want.size()) return fail_str(what + " length differs");
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(want[i])) {
          std::ostringstream msg;
          msg.precision(17);
          msg << what << " tick " << i << ": " << got[i] << ", RefLedger "
              << want[i];
          return fail_str(msg.str());
        }
      }
      if (q == n_sites) continue;
      const auto cells = out ? ledger.out_cells(q) : ledger.in_cells(q);
      for (std::size_t i = 1; i < cells.size(); ++i) {
        if (cells[i - 1].tick >= cells[i].tick) {
          return fail_str(what + " cells not strictly ascending at " +
                          std::to_string(i));
        }
      }
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
  // One lane per policy: block site k and RefSite k run policy k, and every
  // op is applied to all three lanes.
  constexpr dcsim::BlockPolicy kPolicies[] = {dcsim::BlockPolicy::first_fit,
                                              dcsim::BlockPolicy::best_fit,
                                              dcsim::BlockPolicy::worst_fit};
  constexpr const char* kNames[] = {"first_fit", "best_fit", "worst_fit"};
  constexpr std::size_t kLanes = 3;
  dcsim::SiteBlock block{std::vector<dcsim::SiteConfig>(kLanes, config)};
  std::vector<RefSite> refs(kLanes, RefSite{config.n_servers, config.server});
  std::vector<std::vector<dcsim::VmInstance>> live(kLanes);

  const auto ops = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, spec.get("ops", 40)));
  util::Rng rng{spec.child_seed("ops")};
  std::int64_t next_id = 0;
  std::vector<dcsim::SiteBlock::Evicted> evicted;

  const auto draw_shape = [&] {
    // Zero-core shapes are legal and exercise the best-fit vm_count
    // tie-break, which free cores alone cannot decide.
    workload::VmShape shape;
    shape.cores = static_cast<int>(rng.below(7));
    shape.memory_gb = static_cast<double>(rng.below(5)) * 8.0;
    return shape;
  };
  // Both eviction lists must match entry for entry; the victims leave the
  // lane's resident list.
  const auto diff_evictions =
      [&](std::uint64_t op, std::size_t k, const char* what,
          const std::vector<dcsim::VmInstance>& want) -> std::string {
    const std::string where = "op " + std::to_string(op) + ": " + kNames[k] +
                              " " + what + " ";
    if (evicted.size() != want.size()) {
      return where + "evicted " + std::to_string(evicted.size()) +
             " VMs, RefSite " + std::to_string(want.size());
    }
    for (std::size_t i = 0; i < evicted.size(); ++i) {
      const dcsim::SiteBlock::Evicted& got = evicted[i];
      const dcsim::VmInstance& ref = want[i];
      if (got.vm_id != ref.vm_id || got.server != ref.server ||
          got.cores != ref.shape.cores ||
          got.memory_gb != ref.shape.memory_gb ||
          got.degradable != (ref.vm_class == workload::VmClass::degradable)) {
        return where + "eviction " + std::to_string(i) + " was vm " +
               std::to_string(got.vm_id) + " on server " +
               std::to_string(got.server) + ", RefSite vm " +
               std::to_string(ref.vm_id) + " on server " +
               std::to_string(ref.server);
      }
      std::erase_if(live[k], [&](const dcsim::VmInstance& vm) {
        return vm.vm_id == got.vm_id;
      });
    }
    return {};
  };

  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (rng.below(7)) {
      case 0:
      case 1:
      case 2: {  // place (weighted: states with residents matter most)
        dcsim::VmInstance vm;
        vm.vm_id = next_id++;
        vm.shape = draw_shape();
        vm.vm_class = rng.chance(0.4) ? workload::VmClass::degradable
                                      : workload::VmClass::stable;
        for (std::size_t k = 0; k < kLanes; ++k) {
          const int got =
              block.place(k, vm.vm_id, vm.shape.cores, vm.shape.memory_gb,
                          vm.vm_class == workload::VmClass::degradable,
                          kPolicies[k]);
          const dcsim::VmInstance* placed =
              refs[k].place(vm, kPolicies[k]) ? refs[k].find(vm.vm_id)
                                              : nullptr;
          const int want = placed != nullptr ? placed->server : -1;
          if (got != want) {
            return fail_str("op " + std::to_string(op) + ": " + kNames[k] +
                            " chose " + std::to_string(got) +
                            ", RefSite chose " + std::to_string(want) +
                            " (shape " + std::to_string(vm.shape.cores) +
                            "c/" + std::to_string(vm.shape.memory_gb) +
                            "gb)");
          }
          if (placed != nullptr) live[k].push_back(*placed);
        }
        break;
      }
      case 3:  // remove
        for (std::size_t k = 0; k < kLanes; ++k) {
          if (live[k].empty()) continue;
          const std::size_t at = rng.below(live[k].size());
          const dcsim::VmInstance vm = live[k][at];
          block.remove(k, vm.server, vm.vm_id, vm.shape.cores,
                       vm.shape.memory_gb,
                       vm.vm_class == workload::VmClass::degradable);
          refs[k].remove(vm.vm_id);
          live[k].erase(live[k].begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
      case 4: {  // power shrink
        const int budget = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(config.n_servers) *
                static_cast<std::uint64_t>(config.server.cores) +
            1));
        for (std::size_t k = 0; k < kLanes; ++k) {
          evicted.clear();
          block.shrink_to(k, budget, evicted);
          if (std::string diff = diff_evictions(op, k, "shrink",
                                                refs[k].shrink_to(budget));
              !diff.empty()) {
            return fail_str(std::move(diff));
          }
        }
        break;
      }
      case 5: {  // server failure
        const int count = 1 + static_cast<int>(rng.below(2));
        for (std::size_t k = 0; k < kLanes; ++k) {
          evicted.clear();
          block.fail_servers(k, count, evicted);
          if (std::string diff = diff_evictions(op, k, "outage",
                                                refs[k].fail_servers(count));
              !diff.empty()) {
            return fail_str(std::move(diff));
          }
        }
        break;
      }
      case 6: {  // repair
        const int count = 1 + static_cast<int>(rng.below(2));
        for (std::size_t k = 0; k < kLanes; ++k) {
          block.repair_servers(k, count);
          refs[k].repair_servers(count);
        }
        break;
      }
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      if (block.allocated_cores(k) != refs[k].allocated_cores() ||
          block.allocated_memory_gb(k) != refs[k].allocated_memory_gb() ||
          block.powered_servers(k) != refs[k].powered_servers() ||
          block.failed_servers(k) != refs[k].failed_servers()) {
        return fail_str("op " + std::to_string(op) + ": " + kNames[k] +
                        " counters diverge from RefSite");
      }
    }
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
  const solver::MipResult got = solver::solve_revised(model);
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
  solver::CompiledModel plan{model};
  const solver::MipResult got = solver::solve_mip_decomposed(model, plan);
  const solver::MipResult want = solver::solve_revised(model);
  // The production entry point must meet the oracle directly.
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

/// First divergence between a planned and a fresh solve, bit for bit on
/// every field a caller can observe; empty when identical.
std::string diff_mip_results(const solver::MipResult& got,
                             const solver::MipResult& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (got.status != want.status) {
    return "status " + std::to_string(static_cast<int>(got.status)) +
           " != " + std::to_string(static_cast<int>(want.status));
  }
  if (bits(got.objective) != bits(want.objective)) {
    return "objective " + std::to_string(got.objective) +
           " != " + std::to_string(want.objective);
  }
  if (got.x.size() != want.x.size()) return "x size differs";
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    if (bits(got.x[i]) != bits(want.x[i])) {
      return "x[" + std::to_string(i) + "] " + std::to_string(got.x[i]) +
             " != " + std::to_string(want.x[i]);
    }
  }
  const auto count = [](const char* name, std::int64_t a, std::int64_t b) {
    return a == b ? std::string{}
                  : std::string{name} + " " + std::to_string(a) +
                        " != " + std::to_string(b);
  };
  for (std::string d :
       {count("nodes_explored", got.nodes_explored, want.nodes_explored),
        count("pivots", got.pivots, want.pivots),
        count("blocks", got.blocks, want.blocks),
        count("chain_blocks", got.chain_blocks, want.chain_blocks),
        count("master_iterations", got.master_iterations,
              want.master_iterations),
        count("monolithic_fallback", got.monolithic_fallback,
              want.monolithic_fallback),
        count("proven_optimal", got.proven_optimal, want.proven_optimal)}) {
    if (!d.empty()) return d;
  }
  return {};
}

/// A CompiledModel reused across data patches solves exactly like a fresh
/// solve_mip. One plan is compiled up front; each step applies a random
/// patch — redrawn costs, a k=0-style rhs of 0 or 1, a negative rhs or
/// slack cost, a variable fixed at lb=1 or ub=0, bounds restored, or the
/// last row swapped for a variant with the same row count (a structural
/// edit only the structure stamp can tell apart) — then the planned solve
/// must equal a from-scratch one on every result field, and match the
/// revised engine's status and objective.
CaseResult eval_compiled_identity(const Spec& spec) {
  solver::Model model = make_decompose_model(spec);
  const solver::Model original = model;
  const solver::Constraint last_row =
      model.n_constraints() > 0 ? model.constraints().back()
                                : solver::Constraint{};
  util::Rng rng{spec.child_seed("patches")};
  const auto steps = std::clamp<std::int64_t>(spec.get("patches", 8), 0, 32);
  const bool chains = spec.get("chains", std::int64_t{0}) > 0;
  const std::size_t n_vars = model.n_vars();
  const std::size_t n_rows = model.n_constraints();

  solver::CompiledModel plan{model};
  std::string patch = "none";
  for (std::int64_t step = 0; step <= steps; ++step) {
    if (step > 0 && n_vars > 0) {
      const auto var = static_cast<std::size_t>(rng.below(n_vars));
      const auto row =
          static_cast<std::size_t>(rng.below(std::max<std::size_t>(1, n_rows)));
      solver::Variable& v = model.vars()[var];
      switch (rng.below(6)) {
        case 0:
          patch = "costs";
          for (solver::Variable& w : model.vars()) {
            w.cost = chains ? (w.integer ? rng.uniform(0.0, 50.0)
                                         : rng.uniform(10.0, 100.0))
                            : rng.uniform(-10.0, 10.0);
          }
          break;
        case 1:
          patch = "rhs";
          if (n_rows > 0) model.set_rhs(row, rng.below(2) ? 1.0 : 0.0);
          break;
        case 2:
          if (rng.below(2) && n_rows > 0) {
            patch = "negative rhs";
            model.set_rhs(row, -rng.uniform(0.5, 2.0));
          } else {
            patch = "negative cost";
            v.cost = -rng.uniform(1.0, 10.0);
          }
          break;
        case 3:
          if (rng.below(2)) {
            patch = "lb=1";
            v.lb = 1.0;
          } else {
            patch = "ub=0";
            v.ub = 0.0;
          }
          break;
        case 4:
          patch = "bounds restored";
          v.lb = original.vars()[var].lb;
          v.ub = original.vars()[var].ub;
          break;
        default:
          // Same row count, different structure: the first coefficient of
          // the last row doubled, or the original row back.
          patch = "last row swapped";
          if (n_rows > 0) {
            solver::Constraint next = last_row;
            if (model.constraints().back().terms == last_row.terms &&
                !next.terms.empty()) {
              next.terms.front().second *= 2.0;
            }
            model.pop_constraint();
            model.add_constraint(std::move(next.terms), next.rel, next.rhs);
          }
          break;
      }
    }
    const solver::MipResult planned = solver::solve_mip(model, plan);
    const solver::MipResult fresh = solver::solve_mip(model);
    if (std::string diff = diff_mip_results(planned, fresh); !diff.empty()) {
      return fail_str("step " + std::to_string(step) + " (" + patch +
                      "): planned solve " + diff);
    }
    // And the patched data must still be judged right: the monolithic
    // engine agrees on status and objective, so a data condition the run
    // step stopped re-checking shows up even though both solves share it.
    const solver::MipResult mono = solver::solve_revised(model);
    if (mono.status != planned.status ||
        (planned.status == solver::LpStatus::optimal &&
         !near(planned.objective, mono.objective, 1e-6))) {
      return fail_str("step " + std::to_string(step) + " (" + patch +
                      "): planned status " +
                      std::to_string(static_cast<int>(planned.status)) +
                      " objective " + std::to_string(planned.objective) +
                      " != revised " +
                      std::to_string(static_cast<int>(mono.status)) + " " +
                      std::to_string(mono.objective));
    }
  }
  return CaseResult::pass();
}

/// MipScheduler's incremental model builder: a faulted run whose patched
/// models are re-verified bitwise against a scratch build on every replan
/// (verify_incremental_build throws on the first diverging bit) must also
/// reproduce the scratch-built simulation exactly. Chaos is on so
/// topology-epoch bumps exercise the cache-invalidation path. `mip` picks
/// the scheduler: 24h (the default), peak (MIP-peak) or cost (MIP-cost on
/// a price series). The last two run solve_app's in-place econ and peak
/// stages on the cached model, so a stage edit left behind makes the next
/// patch diverge from its scratch build.
CaseResult eval_delta_model_identity(const Spec& spec) {
  const Scenario sc = make_scenario(spec);
  const std::string policy = spec.get("mip", std::string{"24h"});
  const energy::SiteSeries price =
      make_price_series(spec, sc.graph.n_sites(), sc.graph.n_ticks());
  fault::ChaosConfig chaos;
  chaos.intensity = std::max<std::int64_t>(0, spec.get("i100", 100)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(sc.graph, chaos, spec.child_seed("chaos"));
  const std::uint64_t noise = spec.child_seed("noise");

  std::int64_t patches = 0;
  std::int64_t invalidations = 0;
  const auto run_with = [&](bool incremental, bool verify) {
    fault::StreamInjector injector{sc.graph, noise, schedule};
    core::VmLevelConfig config;
    config.faults.hooks = &injector;
    core::MipSchedulerConfig mc = policy == "peak"
                                      ? core::make_mip_peak_config()
                                  : policy == "cost"
                                      ? core::make_mip_cost_config(&price)
                                      : core::make_mip24h_config();
    mc.incremental_build = incremental;
    mc.verify_incremental_build = verify;
    core::MipScheduler scheduler{mc};
    core::VmLevelResult result = core::run_fleet_simulation(
        injector.graph(), sc.apps, scheduler, config);
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
  fault::StreamInjector injector{sc.graph, spec.child_seed("noise"),
                                 schedule};
  core::VmLevelConfig vm_config;
  vm_config.faults.hooks = &injector;
  const auto scheduler = svc::make_service_scheduler(sched_policy(spec));
  try {
    (void)core::run_fleet_simulation(injector.graph(), sc.apps, *scheduler,
                                     vm_config);
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

/// StreamInjector against its frozen oracle, RefFaultInjector: a random
/// chaos schedule recorded by the schedule constructor (online=0), or
/// injected event by event at now = start - 1 while the clock runs
/// (online=1), must bake every power and forecast series bit for bit and
/// answer site_down, site_degraded, server_outages_at, topology_epoch and
/// link state identically on every tick.
CaseResult eval_fault_stream_parity(const Spec& spec) {
  const core::VbGraph graph = make_graph(spec);
  fault::ChaosConfig chaos;
  chaos.intensity = std::max<std::int64_t>(0, spec.get("i100", 200)) / 100.0;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(graph, chaos, spec.child_seed("chaos"));
  const std::uint64_t noise = spec.child_seed("noise");
  const bool online = spec.get("online", 0) != 0;

  RefFaultInjector ref{graph, schedule, noise};
  fault::StreamInjector stream =
      online ? fault::StreamInjector{graph, noise}
             : fault::StreamInjector{graph, noise, schedule};
  const std::size_t n_sites = graph.n_sites();
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto series_diff = [&](std::size_t s, std::size_t lo,
                               std::size_t hi) -> std::string {
    const core::VbSite& a = stream.graph().sites()[s];
    const core::VbSite& b = ref.graph().sites()[s];
    const auto& fa = stream.graph().forecast_norm(s);
    const auto& fb = ref.graph().forecast_norm(s);
    for (std::size_t i = lo; i < hi; ++i) {
      if (!same(a.power_norm[i], b.power_norm[i])) {
        return "power at site " + std::to_string(s) + " tick " +
               std::to_string(i);
      }
      for (std::size_t lead = 0; lead < fa.size(); ++lead) {
        if (!same(fa[lead][i], fb[lead][i])) {
          return "forecast lead " + std::to_string(lead) + " at site " +
                 std::to_string(s) + " tick " + std::to_string(i);
        }
      }
    }
    return "";
  };

  std::size_t next = 0;
  for (util::Tick t = 0; t < static_cast<util::Tick>(graph.n_ticks()); ++t) {
    const std::string at = " at tick " + std::to_string(t);
    // Events are sorted by start: deliver each just before its first tick.
    while (online && next < schedule.events.size() &&
           schedule.events[next].start <= t) {
      stream.inject(schedule.events[next++], t - 1);
    }
    stream.begin_tick(t);
    ref.begin_tick(t);
    if (stream.topology_epoch() != ref.topology_epoch()) {
      return fail_str("topology_epoch" + at);
    }
    const std::vector<core::ServerOutage> oa = stream.server_outages_at(t);
    const std::vector<core::ServerOutage> ob = ref.server_outages_at(t);
    if (oa.size() != ob.size()) return fail_str("outage count" + at);
    for (std::size_t i = 0; i < oa.size(); ++i) {
      if (oa[i].site != ob[i].site || oa[i].count != ob[i].count ||
          oa[i].repair_tick != ob[i].repair_tick) {
        return fail_str("outage " + std::to_string(i) + at);
      }
    }
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (stream.site_down(s, t) != ref.site_down(s, t)) {
        return fail_str("site_down of site " + std::to_string(s) + at);
      }
      if (stream.site_degraded(s, t) != ref.site_degraded(s, t)) {
        return fail_str("site_degraded of site " + std::to_string(s) + at);
      }
      for (std::size_t p = s + 1; p < n_sites; ++p) {
        if (stream.graph().latency().connected(s, p) !=
            ref.graph().latency().connected(s, p)) {
          return fail_str("link " + std::to_string(s) + "-" +
                          std::to_string(p) + at);
        }
      }
      // Everything that can touch tick t has been delivered by now.
      const auto i = static_cast<std::size_t>(t);
      if (std::string d = series_diff(s, i, i + 1); !d.empty()) {
        return fail_str(std::move(d));
      }
    }
  }
  // Whole series once more: a later injection must not rewrite history.
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (std::string d = series_diff(s, 0, graph.n_ticks()); !d.empty()) {
      return fail_str("after the run: " + d);
    }
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

/// Index of the first element whose bytes differ (so -0.0 != 0.0), or
/// npos when the two series are byte-identical.
std::size_t first_byte_diff(const std::vector<double>& a,
                            const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return i;
    }
  }
  return std::string::npos;
}

CaseResult eval_forecast_identity(const Spec& spec) {
  const energy::Fleet fleet = make_fleet(spec);
  const core::VbGraphConfig config = make_graph_config(spec);
  const core::VbGraph graph{fleet, config};
  const bool model = spec.get("trace", std::string{"square"}) == "model";
  if (graph.forecasts_built()) {
    return fail_str("a freshly built graph already holds forecasts");
  }

  // The graph fills its forecasts on the first read, whichever reader
  // comes first; every route must fill the whole lead set to the bytes
  // the oracle gives. Routes 2 and 3 fill a copy and must leave the
  // original graph unfilled.
  const std::int64_t route =
      std::clamp<std::int64_t>(spec.get("route", 0), 0, 3);
  const auto n_ticks = static_cast<util::Tick>(graph.n_ticks());
  std::optional<core::VbGraph> copy;
  std::optional<fault::StreamInjector> injector;
  const core::VbGraph* filled = &graph;
  switch (route) {
    case 0: {
      core::ForecastCache cache;
      cache.refresh(graph, -1, 0, n_ticks, util::ThreadPool::shared());
      break;
    }
    case 1:
      (void)graph.forecast_cores(graph.n_sites() - 1, n_ticks - 1, -1);
      break;
    case 2:
      copy.emplace(graph);
      (void)copy->forecast_series(0, -1, 0, n_ticks);
      filled = &*copy;
      break;
    default:
      injector.emplace(graph, spec.child_seed("noise"),
                       fault::FaultSchedule{});
      filled = &injector->graph();
      break;
  }
  const std::string via =
      " (first read by route " + std::to_string(route) + ")";
  if (!filled->forecasts_built()) {
    return fail_str("the first forecast read left the graph unfilled" + via);
  }
  if (filled != &graph && graph.forecasts_built()) {
    return fail_str("filling a copy filled the original graph" + via);
  }

  // The bulk forecast and generate_fleet fan their per-site work over a
  // pool; a zero-worker pool, one worker and three workers must all give
  // the same bytes.
  const std::vector<energy::ForecastInput> inputs =
      forecast_inputs(fleet.traces);
  util::ThreadPool serial_pool{0};
  const std::vector<std::vector<std::vector<double>>> serial =
      energy::Forecaster{config.forecaster}.forecast(
          inputs, fleet.axis, config.forecast_leads_hours, serial_pool);
  const energy::FleetConfig fleet_config = make_model_fleet_config(spec);
  for (const std::size_t workers : {0u, 1u, 3u}) {
    util::ThreadPool pool{workers};
    const std::string lanes = std::to_string(workers) + " workers";
    const auto pooled = energy::Forecaster{config.forecaster}.forecast(
        inputs, fleet.axis, config.forecast_leads_hours, pool);
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      for (std::size_t l = 0; l < serial[s].size(); ++l) {
        if (first_byte_diff(pooled[s][l], serial[s][l]) != std::string::npos) {
          return fail_str("site " + std::to_string(s) + " lead " +
                          std::to_string(l) + ": forecast on " + lanes +
                          " differs from the serial call");
        }
      }
    }
    if (!model) continue;
    const energy::Fleet again = energy::generate_fleet(
        fleet_config, fleet.axis, fleet.traces.front().size(), pool);
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      if (first_byte_diff(again.traces[s].normalized_series(),
                          fleet.traces[s].normalized_series()) !=
          std::string::npos) {
        return fail_str("site " + std::to_string(s) + ": generate_fleet on " +
                        lanes + " differs from the shared-pool fleet");
      }
    }
  }
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    const energy::PowerTrace& trace = fleet.traces[s];
    const std::string where = "site " + std::to_string(s);
    // generate_fleet shares fronts across sites; each trace must still be
    // what the site's own spec generates alone.
    if (model) {
      const energy::PowerTrace alone =
          fleet.specs[s].generate(fleet.axis, trace.size());
      if (alone.source() != trace.source() ||
          alone.peak_mw() != trace.peak_mw()) {
        return fail_str(where + ": fleet trace source/peak differs from "
                        "SiteSpec::generate");
      }
      const std::size_t at = first_byte_diff(alone.normalized_series(),
                                             trace.normalized_series());
      if (at != std::string::npos) {
        return fail_str(where + ": fleet trace differs from " +
                        "SiteSpec::generate at tick " + std::to_string(at));
      }
    }
    const core::VbSite& site = graph.site(s);
    if (first_byte_diff(site.power_norm, trace.normalized_series()) !=
        std::string::npos) {
      return fail_str(where + ": power_norm differs from the trace");
    }
    for (std::size_t l = 0; l < config.forecast_leads_hours.size(); ++l) {
      const double lead = config.forecast_leads_hours[l];
      const std::vector<double> want =
          config.oracle_forecasts
              ? trace.normalized_series()
              : reference_forecast(trace, lead, config.forecaster);
      const std::size_t at =
          first_byte_diff(filled->forecast_norm(s)[l], want);
      if (at != std::string::npos) {
        return fail_str(where + " lead " + std::to_string(lead) +
                        "h: forecast differs from the oracle at tick " +
                        std::to_string(at) + via);
      }
    }
  }
  return CaseResult::pass();
}

/// Empty when both overlays hold the same stats and save_state bytes
/// (which carry every field of every job and task record); otherwise
/// what differs first.
std::string diff_overlays(const workload::BatchOverlay& got,
                          const ReferenceOverlay& want) {
  if (!(got.stats() == want.stats())) return "stats differ";
  util::wire::Writer a;
  util::wire::Writer b;
  got.save_state(a);
  want.save_state(b);
  if (a.data() != b.data()) return "job/task state (save_state bytes) differs";
  return {};
}

CaseResult eval_overlay_identity(const Spec& spec) {
  // One stream per component, so shrinking one key leaves the others'
  // draws alone.
  util::Rng entity_rng{spec.child_seed("entities")};
  util::Rng dyn_rng{spec.child_seed("dynamic")};
  util::Rng free_rng{spec.child_seed("free")};
  const auto n_sites = static_cast<std::size_t>(spec.get("sites", 1));
  const util::Tick steps = spec.get("steps", 1);
  // Small id ranges make (deadline, id) ties, whose order the EDF sort
  // must resolve from the same input order as the scan did.
  const auto id_range =
      static_cast<std::uint64_t>(std::max<std::int64_t>(1, spec.get("ids", 1)));
  const auto draw_job = [&](util::Rng& rng, util::Tick arrival) {
    workload::DeadlineJob job;
    job.job_id = 1 + static_cast<std::int64_t>(rng.below(id_range));
    job.arrival = arrival;
    job.cores = 1 + static_cast<int>(rng.below(8));
    const auto run = 1 + static_cast<std::int64_t>(rng.below(12));
    job.work_core_ticks = std::max<std::int64_t>(
        1, job.cores * run - static_cast<std::int64_t>(rng.below(
                                 static_cast<std::uint64_t>(job.cores))));
    job.deadline = arrival + 1 + static_cast<util::Tick>(rng.below(
                                     static_cast<std::uint64_t>(3 * run)));
    return job;
  };
  const auto draw_task = [&](util::Rng& rng, util::Tick arrival) {
    workload::HarvestTask task;
    task.task_id = 1 + static_cast<std::int64_t>(rng.below(id_range));
    task.arrival = arrival;
    task.cores = 1 + static_cast<int>(rng.below(8));
    const auto run = 1 + static_cast<std::int64_t>(rng.below(12));
    task.work_core_ticks = task.cores * run;
    task.resume_latency_ticks = static_cast<util::Tick>(rng.below(4));
    task.deadline = arrival + 1 + static_cast<util::Tick>(rng.below(
                                      static_cast<std::uint64_t>(4 * run)));
    return task;
  };
  const auto draw_arrival = [&] {
    return static_cast<util::Tick>(
        entity_rng.below(static_cast<std::uint64_t>(steps)));
  };

  workload::BatchWorkload workload;
  for (std::int64_t i = 0; i < spec.get("jobs", 0); ++i) {
    workload.jobs.push_back(draw_job(entity_rng, draw_arrival()));
  }
  for (std::int64_t i = 0; i < spec.get("tasks", 0); ++i) {
    workload.tasks.push_back(draw_task(entity_rng, draw_arrival()));
  }
  workload::BatchOverlay got{workload};
  ReferenceOverlay want;
  for (const workload::DeadlineJob& job : workload.jobs) want.submit(job);
  for (const workload::HarvestTask& task : workload.tasks) want.submit(task);

  const std::int64_t dyn_pct = spec.get("dyn", 0);
  const util::Tick cut = spec.get("cut", -1);
  std::vector<std::int64_t> free(n_sites);
  for (util::Tick t = 0; t < steps; ++t) {
    if (t == cut) {
      util::wire::Writer w;
      got.save_state(w);
      workload::BatchOverlay restored;
      util::wire::Reader r{w.data()};
      restored.restore_state(r);
      got = std::move(restored);
    }
    // Dynamic submissions between steps, as control-plane events arrive:
    // already due (even overdue) or for a later tick.
    if (static_cast<std::int64_t>(dyn_rng.below(100)) < dyn_pct) {
      const util::Tick arrival = std::max<util::Tick>(
          0, t - 3 + static_cast<util::Tick>(dyn_rng.below(12)));
      if (dyn_rng.chance(0.5)) {
        const workload::DeadlineJob job = draw_job(dyn_rng, arrival);
        got.submit(job);
        want.submit(job);
      } else {
        const workload::HarvestTask task = draw_task(dyn_rng, arrival);
        got.submit(task);
        want.submit(task);
      }
    }
    for (std::int64_t& f : free) {
      f = free_rng.chance(0.2)
              ? 0
              : static_cast<std::int64_t>(free_rng.below(24));
    }
    got.step(t, free);
    want.step(t, free);
    const std::string diff = diff_overlays(got, want);
    if (!diff.empty()) {
      return fail_str("after step " + std::to_string(t) + ": " + diff);
    }
  }
  got.finalize();
  want.finalize();
  const std::string diff = diff_overlays(got, want);
  if (!diff.empty()) return fail_str("after finalize: " + diff);
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
  config.policy = sched_policy(spec);
  config.noise_seed = spec.child_seed("noise");
  return config;
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
  const core::SimResult batch = svc::run_batch_engine(scenario, config);
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

  // Oracle differentials also draw the allocation policy (place=0|1|2).
  const auto oracle_gen = [](util::Rng& rng) {
    Spec spec = gen_scenario_spec(rng);
    if (rng.chance(0.125)) spec.set("sched", std::string{"mip24h"});
    spec.set("place", static_cast<std::int64_t>(rng.below(3)));
    return spec;
  };

  registry.push_back({"sim", "conservation", scenario_gen, eval_conservation,
                      kScenarioShrink});
  registry.push_back({"sim", "chaos_zero", scenario_gen_sched,
                      eval_chaos_zero, kScenarioShrink});
  registry.push_back({"sim", "engine_diff", oracle_gen, eval_engine_diff,
                      kScenarioShrink});
  registry.push_back({"sim", "ledger_parity",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("sites",
                                 1 + static_cast<std::int64_t>(rng.below(6)));
                        spec.set("ticks",
                                 1 + static_cast<std::int64_t>(rng.below(64)));
                        spec.set("ops",
                                 1 + static_cast<std::int64_t>(rng.below(200)));
                        spec.set("order",
                                 static_cast<std::int64_t>(rng.below(3)));
                        return spec;
                      },
                      eval_ledger_parity,
                      {{"ops", 1}, {"sites", 1}, {"ticks", 1}, {"order", 0}}});
  registry.push_back({"fleet", "shard_invariance",
                      [oracle_gen](util::Rng& rng) {
                        Spec spec = oracle_gen(rng);
                        spec.set("i100", 50 + static_cast<std::int64_t>(
                                                  rng.below(250)));
                        return spec;
                      },
                      eval_fleet_chaos_diff, kScenarioShrink});

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
                      [oracle_gen](util::Rng& rng) {
                        Spec spec = oracle_gen(rng);
                        gen_batch_keys(spec, rng);
                        gen_econ_keys(spec, rng);
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
  registry.push_back({"solver", "decomposed_diff", gen_decompose_spec,
                      eval_decomposed_diff, kDecomposeShrink});
  registry.push_back({"solver", "compiled_identity",
                      [](util::Rng& rng) {
                        Spec spec = gen_decompose_spec(rng);
                        spec.set("patches",
                                 1 + static_cast<std::int64_t>(rng.below(12)));
                        return spec;
                      },
                      eval_compiled_identity,
                      {{"patches", 0}, {"chains", 0}, {"sites", 2},
                       {"buckets", 2}, {"vars", 1}, {"rows", 0},
                       {"ints", 0}}});
  registry.push_back({"solver", "delta_model_identity",
                      [](util::Rng& rng) {
                        Spec spec = gen_scenario_spec(rng);
                        spec.set("i100",
                                 static_cast<std::int64_t>(rng.below(300)));
                        static const char* kPolicies[] = {"24h", "peak",
                                                          "cost"};
                        spec.set("mip", std::string{kPolicies[rng.below(3)]});
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

  registry.push_back({"fault", "stream_parity",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        gen_graph_keys(spec, rng);
                        // Wider than the scenario draw (no simulation
                        // runs): more sites, links and days give more
                        // overlapping windows of every kind.
                        const auto sites =
                            1 + static_cast<std::int64_t>(rng.below(6));
                        spec.set("sites", sites);
                        spec.set("wind", static_cast<std::int64_t>(rng.below(
                                             static_cast<std::uint64_t>(
                                                 sites + 1))));
                        spec.set("days",
                                 1 + static_cast<std::int64_t>(rng.below(4)));
                        spec.set("i100",
                                 static_cast<std::int64_t>(rng.below(400)));
                        spec.set("online", rng.chance(0.5) ? 1 : 0);
                        return spec;
                      },
                      eval_fault_stream_parity,
                      {{"days", 1},
                       {"sites", 1},
                       {"wind", 0},
                       {"peak", 1},
                       {"amp", 0},
                       {"period", 1},
                       {"i100", 0},
                       {"online", 0}}});

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
  registry.push_back({"energy", "forecast_identity",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        gen_graph_keys(spec, rng);
                        // Wider than the scenario draw: up to 6 sites so
                        // several share a source (and a noise series),
                        // odd and multi-day spans, random windows (even
                        // and odd, wider than the trace) and noise seeds.
                        const auto sites =
                            1 + static_cast<std::int64_t>(rng.below(6));
                        spec.set("sites", sites);
                        spec.set("wind", static_cast<std::int64_t>(rng.below(
                                             static_cast<std::uint64_t>(
                                                 sites + 1))));
                        spec.set("days",
                                 1 + static_cast<std::int64_t>(rng.below(9)));
                        spec.set("oracle", rng.chance(0.25) ? 1 : 0);
                        spec.set("fwin",
                                 20 + static_cast<std::int64_t>(rng.below(481)));
                        spec.set("fseed",
                                 static_cast<std::int64_t>(rng.below(1u << 20)));
                        spec.set("route",
                                 static_cast<std::int64_t>(rng.below(4)));
                        return spec;
                      },
                      eval_forecast_identity,
                      {{"days", 1},
                       {"sites", 1},
                       {"wind", 0},
                       {"oracle", 0},
                       {"amp", 0},
                       {"period", 1},
                       {"fwin", 1},
                       {"fseed", 0},
                       {"route", 0}}});
  registry.push_back({"workload", "overlay_identity",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        spec.set("sites",
                                 1 + static_cast<std::int64_t>(rng.below(6)));
                        const auto steps =
                            1 + static_cast<std::int64_t>(rng.below(120));
                        spec.set("steps", steps);
                        spec.set("jobs", static_cast<std::int64_t>(rng.below(40)));
                        spec.set("tasks",
                                 static_cast<std::int64_t>(rng.below(40)));
                        spec.set("ids",
                                 rng.chance(0.3)
                                     ? 1 + static_cast<std::int64_t>(rng.below(4))
                                     : 1000000);
                        spec.set("dyn", static_cast<std::int64_t>(rng.below(60)));
                        spec.set("cut",
                                 rng.chance(0.75)
                                     ? static_cast<std::int64_t>(rng.below(
                                           static_cast<std::uint64_t>(steps)))
                                     : -1);
                        return spec;
                      },
                      eval_overlay_identity,
                      {{"sites", 1},
                       {"steps", 1},
                       {"jobs", 0},
                       {"tasks", 0},
                       {"ids", 1},
                       {"dyn", 0},
                       {"cut", -1}}});
  registry.push_back({"energy", "stable_monotone", gen_fleet_spec,
                      eval_stable_monotone,
                      {{"days", 1}, {"solar", 0}, {"wind", 0}}});
  registry.push_back({"wire", "crc_parity",
                      [](util::Rng& rng) {
                        Spec spec;
                        spec.set("seed",
                                 static_cast<std::int64_t>(rng.next() >> 1));
                        const auto len =
                            static_cast<std::int64_t>(rng.below(65537));
                        spec.set("len", len);
                        spec.set("offset",
                                 static_cast<std::int64_t>(rng.below(64)));
                        spec.set("split",
                                 static_cast<std::int64_t>(rng.below(
                                     static_cast<std::uint64_t>(len) + 1)));
                        spec.set("crc",
                                 static_cast<std::int64_t>(rng.next() >> 32));
                        return spec;
                      },
                      eval_crc_parity,
                      {{"len", 0}, {"offset", 0}, {"split", 0}}});

  return registry;
}

}  // namespace vbatt::testkit
