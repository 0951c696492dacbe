#include "vbatt/core/sim_stepper.h"

#include <algorithm>
#include <stdexcept>

namespace vbatt::core {

SimStepper::SimStepper(const VbGraph& graph, Scheduler& scheduler,
                       const SitePowerModel& power_model,
                       const FaultConfig* faults,
                       const ScenarioExtensions* ext)
    : graph_{graph},
      scheduler_{scheduler},
      power_model_{power_model},
      hooks_{faults ? faults->hooks : nullptr},
      book_{graph.latency(), hooks_,
            faults ? faults->retry : MoveRetryPolicy{}},
      econ_{power_model, graph, ext},
      n_sites_{graph.n_sites()},
      result_{graph.n_sites(), graph.n_ticks()},
      avail_cache_(graph.n_sites(), 0),
      site_apps_(graph.n_sites()) {
  state_.graph = &graph;
  state_.stable_cores.assign(n_sites_, 0);
  state_.degradable_cores.assign(n_sites_, 0);
  topo_epoch_ = hooks_ ? hooks_->topology_epoch() : 0;
  if (ext != nullptr && ext->batch != nullptr && !ext->batch->empty()) {
    overlay_ = workload::BatchOverlay{*ext->batch};
    has_overlay_ = true;
  }
}

void SimStepper::submit_batch_job(const workload::DeadlineJob& job) {
  overlay_.submit(job);
  has_overlay_ = true;
}

void SimStepper::submit_harvest_task(const workload::HarvestTask& task) {
  overlay_.submit(task);
  has_overlay_ = true;
}

void SimStepper::begin_tick(util::Tick t) {
  now_ = t;
  state_.now = t;
  begin_fault_tick(hooks_, t, topo_epoch_, scheduler_);
}

void SimStepper::seat(std::int64_t app_id, const LiveApp& app, int sign) {
  state_.stable_cores[app.site] += sign * app.app.stable_cores();
  state_.degradable_cores[app.site] +=
      sign * app.active_degradable * app.app.shape.cores;
  if (sign > 0) {
    site_apps_[app.site].insert(app_id);
  } else {
    site_apps_[app.site].erase(app_id);
  }
}

void SimStepper::relocate(std::int64_t app_id, LiveApp& app, std::size_t to) {
  const double gb = app.app.stable_memory_gb();
  result_.ledger.record_out(app.site, now_, gb);
  result_.ledger.record_in(to, now_, gb);
  result_.moved_gb[static_cast<std::size_t>(now_)] += gb;
  seat(app_id, app, -1);
  app.site = to;
  seat(app_id, app, +1);
}

void SimStepper::process_departures() {
  while (!departures_.empty() && departures_.begin()->first <= now_) {
    const std::int64_t app_id = departures_.begin()->second;
    departures_.erase(departures_.begin());
    depart_now(app_id);
  }
}

void SimStepper::depart_now(std::int64_t app_id) {
  const auto it = state_.apps.find(app_id);
  if (it == state_.apps.end()) return;  // defensive: apps depart once
  seat(app_id, it->second, -1);
  book_.drop(app_id);
  state_.apps.erase(it);
}

void SimStepper::maybe_replan() {
  if (scheduler_.replans_at(now_)) force_replan();
}

void SimStepper::force_replan() { book_.supersede(scheduler_.replan(state_)); }

void SimStepper::arrive(const workload::Application& app) {
  const Scheduler::Placement placement = scheduler_.place(app, state_);
  LiveApp live;
  live.app = app;
  live.end_tick = app.lifetime_ticks < 0 ? -1 : now_ + app.lifetime_ticks;
  live.site = placement.site;
  live.allowed = placement.allowed;
  live.active_degradable = app.n_degradable;
  seat(app.app_id, live, +1);
  if (live.end_tick >= 0) departures_.emplace(live.end_tick, app.app_id);
  state_.apps.emplace(app.app_id, std::move(live));
  book_.schedule(app.app_id, placement.scheduled_moves);
  ++result_.apps_placed;
}

void SimStepper::execute_due_moves() {
  book_.execute_due(
      now_, result_,
      [&](std::int64_t app_id) -> std::optional<std::size_t> {
        const auto it = state_.apps.find(app_id);
        if (it == state_.apps.end()) return std::nullopt;
        return it->second.site;
      },
      [&](std::int64_t app_id, const Move& move) {
        relocate(app_id, state_.apps.at(app_id), move.to_site);
        ++result_.planned_migrations;
      });
}

void SimStepper::enforce_and_meter() {
  const util::Tick t = now_;
  const auto i = static_cast<std::size_t>(t);

  // Capacity enforcement, site by site (resident apps only, via the
  // per-site index — no fleet-wide app sweep per site). A blacked-out site
  // has 0 available cores in the (baked) graph, so the ordering below is
  // exactly the emergency path: pause every degradable VM first (a), then
  // force-migrate stable apps out (b), and count whatever cannot leave as
  // displaced.
  std::int64_t displaced_this_tick = 0;
  for (std::size_t s = 0; s < n_sites_; ++s) {
    const int avail = graph_.available_cores(s, t);
    avail_cache_[s] = avail;

    // a. Degradable VMs absorb the dip first: pause until the site's
    //    stable + active-degradable demand fits (or all are paused).
    int stable = state_.stable_cores[s];
    int budget = avail - stable;  // cores left for degradable
    for (const std::int64_t id : site_apps_[s]) {
      LiveApp& app = state_.apps.at(id);
      if (app.app.n_degradable == 0) continue;
      const int want = app.app.n_degradable;
      const int can =
          std::clamp(budget / std::max(1, app.app.shape.cores), 0, want);
      if (can != app.active_degradable) {
        state_.degradable_cores[s] +=
            (can - app.active_degradable) * app.app.shape.cores;
        app.active_degradable = can;
      }
      budget -= can * app.app.shape.cores;
      result_.paused_degradable_vm_ticks += want - can;
      result_.degradable_active_vm_ticks += can;
    }

    // b. Forced migration of whole apps while stable demand exceeds
    //    powered capacity. Snapshot the residents: relocation mutates the
    //    per-site index mid-iteration.
    if (stable > avail) {
      const std::vector<std::int64_t> residents(site_apps_[s].begin(),
                                                site_apps_[s].end());
      for (const std::int64_t id : residents) {
        if (stable <= avail) break;
        LiveApp& app = state_.apps.at(id);
        if (app.site != s) continue;
        // Best target: allowed site with the most headroom that fits.
        std::size_t target = s;
        int best_headroom = 0;
        for (const std::size_t cand : app.allowed) {
          if (cand == s) continue;
          const int headroom = graph_.available_cores(cand, t) -
                               state_.stable_cores[cand] -
                               state_.degradable_cores[cand];
          if (headroom >= app.app.stable_cores() &&
              headroom > best_headroom) {
            target = cand;
            best_headroom = headroom;
          }
        }
        if (target == s) continue;  // nowhere to go
        relocate(id, app, target);
        ++result_.forced_migrations;
        stable = state_.stable_cores[s];
      }
      if (stable > avail) {
        result_.displaced_stable_core_ticks += stable - avail;
        displaced_this_tick += stable - avail;
        // Attribute the shortfall to resident apps (ascending id) so the
        // availability report can rank per-app impact.
        int deficit = stable - avail;
        for (const std::int64_t id : site_apps_[s]) {
          if (deficit <= 0) break;
          const LiveApp& app = state_.apps.at(id);
          const int hit = std::min(deficit, app.app.stable_cores());
          result_.displaced_by_app[id] += hit;
          deficit -= hit;
        }
      }
    }
  }

  // Batch overlay: gang-schedule deadline jobs and harvest fillers onto
  // whatever the service workload left free this tick. Strictly opt-in —
  // a run without an overlay never enters this branch.
  if (has_overlay_) {
    step_overlay(overlay_, t, avail_cache_, state_, overlay_free_);
  }

  // Energy accounting: a site powers ceil(active / cores_per_server)
  // servers.
  for (std::size_t s = 0; s < n_sites_; ++s) {
    const int active = state_.stable_cores[s] + state_.degradable_cores[s];
    if (active <= 0) continue;
    const int servers = (active + power_model_.cores_per_server - 1) /
                        power_model_.cores_per_server;
    econ_.add(result_, s, i, servers, active);
  }

  // Fault accounting and end-of-tick observation.
  end_fault_tick(hooks_, t, avail_cache_, state_, displaced_this_tick,
                 result_);
}

std::int64_t SimStepper::fallback_activations() const {
  return fallback_base_ + scheduler_.fallback_count();
}

SimResult SimStepper::take_result() {
  result_.fallback_activations = fallback_activations();
  result_.completed_ticks = now_ + 1;
  if (has_overlay_) {
    overlay_.finalize();
    result_.batch = overlay_.stats();
  }
  return std::move(result_);
}

// --- serialization --------------------------------------------------------
//
// Versioned flat encoding via util::wire. Everything result-bearing is
// written; rebuildable indices (site_apps_, avail_cache_) are not.

namespace {

// Version 2 appends the batch-overlay state and the econ ledgers.
constexpr std::uint32_t kStepperFormatVersion = 2;

void save_app(util::wire::Writer& w, const LiveApp& a) {
  w.i64(a.app.app_id);
  w.i64(a.app.arrival);
  w.i64(a.app.lifetime_ticks);
  w.i64(a.app.shape.cores);
  w.f64(a.app.shape.memory_gb);
  w.i64(a.app.n_stable);
  w.i64(a.app.n_degradable);
  w.i64(a.end_tick);
  w.u64(a.site);
  w.vec_u64(a.allowed);
  w.i64(a.active_degradable);
}

LiveApp load_app(util::wire::Reader& r) {
  LiveApp a;
  a.app.app_id = r.i64();
  a.app.arrival = r.i64();
  a.app.lifetime_ticks = r.i64();
  a.app.shape.cores = static_cast<int>(r.i64());
  a.app.shape.memory_gb = r.f64();
  a.app.n_stable = static_cast<int>(r.i64());
  a.app.n_degradable = static_cast<int>(r.i64());
  a.end_tick = r.i64();
  a.site = static_cast<std::size_t>(r.u64());
  a.allowed = r.vec_u64();
  a.active_degradable = static_cast<int>(r.i64());
  return a;
}

}  // namespace

void SimStepper::save(util::wire::Writer& w) const {
  w.u32(kStepperFormatVersion);
  w.i64(now_);
  w.u64(topo_epoch_);
  w.i64(fallback_base_ + scheduler_.fallback_count());

  w.u64(state_.apps.size());
  for (const auto& [id, app] : state_.apps) save_app(w, app);
  w.vec_int(state_.stable_cores);
  w.vec_int(state_.degradable_cores);

  book_.save(w);
  w.u64(departures_.size());
  for (const auto& [tick, id] : departures_) {
    w.i64(tick);
    w.i64(id);
  }

  // Result accumulators.
  w.vec_f64(result_.moved_gb);
  for (std::size_t s = 0; s < n_sites_; ++s) {
    w.vec_f64(result_.ledger.out_series(s));
    w.vec_f64(result_.ledger.in_series(s));
  }
  w.i64(result_.apps_placed);
  w.i64(result_.planned_migrations);
  w.i64(result_.forced_migrations);
  w.i64(result_.displaced_stable_core_ticks);
  w.i64(result_.paused_degradable_vm_ticks);
  w.i64(result_.degradable_active_vm_ticks);
  w.f64(result_.energy_mwh);
  w.vec_f64(result_.energy_mwh_per_tick);
  w.u64(result_.displaced_by_app.size());
  for (const auto& [id, v] : result_.displaced_by_app) {
    w.i64(id);
    w.i64(v);
  }
  w.i64(result_.faulted_site_ticks);
  w.i64(result_.retried_moves);
  w.i64(result_.abandoned_moves);
  w.i64(result_.stable_vm_downtime_ticks);
  w.vec_i64(result_.displaced_stable_cores_per_tick);

  // Scenario extensions (v2): the overlay carries its own definitions, so
  // a restore reproduces it even on a stepper constructed without one.
  w.u8(has_overlay_ ? 1 : 0);
  if (has_overlay_) overlay_.save_state(w);
  w.f64(result_.cost_usd);
  w.vec_f64(result_.cost_usd_per_tick);
  w.f64(result_.carbon_kg);
  w.vec_f64(result_.carbon_kg_per_tick);

  // The scheduler's decision-bearing caches ride along: placements between
  // replans read state (capacity/load ledgers, subgraph ranking) that a
  // fresh scheduler would not rebuild until its next refresh.
  scheduler_.save_state(w);
}

void SimStepper::restore(util::wire::Reader& r) {
  if (const std::uint32_t version = r.u32();
      version != kStepperFormatVersion) {
    throw std::runtime_error{"SimStepper::restore: unsupported version " +
                             std::to_string(version)};
  }
  now_ = r.i64();
  state_.now = now_;
  topo_epoch_ = r.u64();
  fallback_base_ = r.i64();

  state_.apps.clear();
  for (auto& site : site_apps_) site.clear();
  const std::uint64_t n_apps = r.u64();
  for (std::uint64_t i = 0; i < n_apps; ++i) {
    LiveApp app = load_app(r);
    const std::int64_t id = app.app.app_id;
    site_apps_[app.site].insert(id);
    state_.apps.emplace(id, std::move(app));
  }
  state_.stable_cores = r.vec_int();
  state_.degradable_cores = r.vec_int();
  if (state_.stable_cores.size() != n_sites_ ||
      state_.degradable_cores.size() != n_sites_) {
    throw std::runtime_error{"SimStepper::restore: site count mismatch"};
  }

  book_.restore(r);
  departures_.clear();
  const std::uint64_t n_dep = r.u64();
  for (std::uint64_t i = 0; i < n_dep; ++i) {
    const util::Tick tick = r.i64();
    const std::int64_t id = r.i64();
    departures_.emplace(tick, id);
  }

  result_ = SimResult{n_sites_, graph_.n_ticks()};
  result_.moved_gb = r.vec_f64();
  for (std::size_t s = 0; s < n_sites_; ++s) {
    const std::vector<double> out = r.vec_f64();
    const std::vector<double> in = r.vec_f64();
    for (std::size_t t = 0; t < out.size(); ++t) {
      const auto tick = static_cast<util::Tick>(t);
      if (out[t] != 0.0) result_.ledger.record_out(s, tick, out[t]);
      if (in[t] != 0.0) result_.ledger.record_in(s, tick, in[t]);
    }
  }
  result_.apps_placed = r.i64();
  result_.planned_migrations = r.i64();
  result_.forced_migrations = r.i64();
  result_.displaced_stable_core_ticks = r.i64();
  result_.paused_degradable_vm_ticks = r.i64();
  result_.degradable_active_vm_ticks = r.i64();
  result_.energy_mwh = r.f64();
  result_.energy_mwh_per_tick = r.vec_f64();
  result_.displaced_by_app.clear();
  const std::uint64_t n_disp = r.u64();
  for (std::uint64_t i = 0; i < n_disp; ++i) {
    const std::int64_t id = r.i64();
    result_.displaced_by_app[id] = r.i64();
  }
  result_.faulted_site_ticks = r.i64();
  result_.retried_moves = r.i64();
  result_.abandoned_moves = r.i64();
  result_.stable_vm_downtime_ticks = r.i64();
  result_.displaced_stable_cores_per_tick = r.vec_i64();
  has_overlay_ = r.u8() != 0;
  if (has_overlay_) {
    overlay_.restore_state(r);
  } else {
    overlay_ = workload::BatchOverlay{};
  }
  result_.cost_usd = r.f64();
  result_.cost_usd_per_tick = r.vec_f64();
  result_.carbon_kg = r.f64();
  result_.carbon_kg_per_tick = r.vec_f64();
  if (result_.moved_gb.size() != graph_.n_ticks() ||
      result_.energy_mwh_per_tick.size() != graph_.n_ticks()) {
    throw std::runtime_error{"SimStepper::restore: tick count mismatch"};
  }
  scheduler_.restore_state(r);
}

}  // namespace vbatt::core
