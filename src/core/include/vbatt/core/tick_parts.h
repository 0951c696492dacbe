// Tick parts shared by the app-level SimStepper (sim_stepper.h) and the
// VM-level fleet engine (fleet_sim.h): each is one decision both engines
// make at the same point of their tick. The frozen oracle
// testkit::reference_vm_run keeps its own copy of each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/net/latency.h"
#include "vbatt/util/wire.h"

namespace vbatt::core {

/// The proactive moves (§3.1) a simulator still owes its scheduler: each
/// app's pending moves, an index of apps by due tick, and the retry queue.
/// A move is blocked (hooks only) while its target site is down or the WAN
/// edge from the app's home is severed; it is retried with capped
/// exponential backoff and abandoned on attempt MoveRetryPolicy::max_attempts.
class MoveBook {
 public:
  MoveBook(const net::LatencyGraph& latency, FaultHooks* hooks,
           MoveRetryPolicy retry)
      : latency_{&latency}, hooks_{hooks}, retry_{retry} {}

  /// Adopt a replan's schedule: it supersedes every outstanding move and
  /// every queued retry.
  void supersede(const std::vector<Move>& moves);
  /// Register an arrival's placement-time moves
  /// (Scheduler::Placement::scheduled_moves).
  void schedule(std::int64_t app_id, const std::vector<Move>& moves);
  /// Forget a departed app's pending moves. Its due-index and retry
  /// entries stay behind and are skipped: `home` no longer finds the app.
  void drop(std::int64_t app_id) { pending_.erase(app_id); }

  /// Execute the moves due at `t` (apps in app_id order), then the retries
  /// due at `t`, skipping moves to the app's current site. The engine
  /// supplies `home(app_id)`, the live app's site (nullopt once departed),
  /// and `execute(app_id, move)`. Retries and abandonments go to `counts`.
  template <typename Home, typename Execute>
  void execute_due(util::Tick t, SimResult& counts, Home&& home,
                   Execute&& execute);

  /// The three maps, in the SimStepper snapshot layout.
  void save(util::wire::Writer& w) const;
  void restore(util::wire::Reader& r);

 private:
  struct PendingRetry {
    Move move;
    int attempts = 0;  // failed attempts so far
  };

  void defer(util::Tick t, const Move& move, int prior_attempts,
             SimResult& counts);

  const net::LatencyGraph* latency_;
  FaultHooks* hooks_;
  MoveRetryPolicy retry_;
  std::map<std::int64_t, std::vector<Move>> pending_;
  std::map<util::Tick, std::set<std::int64_t>> due_;
  std::map<util::Tick, std::vector<PendingRetry>> retries_;
};

template <typename Home, typename Execute>
void MoveBook::execute_due(util::Tick t, SimResult& counts, Home&& home,
                           Execute&& execute) {
  const auto attempt = [&](std::int64_t app_id, const Move& move,
                           int prior_attempts, std::size_t from) {
    if (hooks_ != nullptr && (hooks_->site_down(move.to_site, t) ||
                              !latency_->connected(from, move.to_site))) {
      defer(t, move, prior_attempts, counts);
    } else {
      execute(app_id, move);
    }
  };
  if (const auto due = due_.find(t); due != due_.end()) {
    for (const std::int64_t app_id : due->second) {
      const auto pend = pending_.find(app_id);
      if (pend == pending_.end()) continue;
      // Each app's moves are in ascending tick order (MipScheduler::commit
      // walks the trajectory forward, for a replan and a placement alike),
      // so the walk stops at the first later move; earlier ones are done.
      for (const Move& move : pend->second) {
        if (move.at_tick > t) break;
        if (move.at_tick < t) continue;
        const std::optional<std::size_t> at = home(app_id);
        if (!at) break;  // departed
        if (move.to_site != *at) attempt(app_id, move, 0, *at);
      }
    }
    due_.erase(due);
  }

  if (hooks_ == nullptr) return;  // only a blocked move is ever retried
  if (const auto due = retries_.find(t); due != retries_.end()) {
    const std::vector<PendingRetry> batch = std::move(due->second);
    retries_.erase(due);
    for (const PendingRetry& pr : batch) {
      const std::optional<std::size_t> at = home(pr.move.app_id);
      if (!at || pr.move.to_site == *at) continue;  // departed, or there
      attempt(pr.move.app_id, pr.move, pr.attempts, *at);
    }
  }
}

/// Fault prologue of tick `t` (no-op without hooks): link transitions apply
/// in FaultHooks::begin_tick; a topology-epoch advance tells the scheduler
/// to drop cached state keyed to the old fleet.
inline void begin_fault_tick(FaultHooks* hooks, util::Tick t,
                             std::uint64_t& topology_epoch,
                             Scheduler& scheduler) {
  if (hooks == nullptr) return;
  hooks->begin_tick(t);
  if (const std::uint64_t epoch = hooks->topology_epoch();
      epoch != topology_epoch) {
    topology_epoch = epoch;
    scheduler.on_topology_change();
  }
}

/// Fault epilogue of tick `t`: the displaced-cores series and, under hooks,
/// the downtime tick, faulted site-ticks and the end-of-tick TickSnapshot.
inline void end_fault_tick(FaultHooks* hooks, util::Tick t,
                           const std::vector<int>& available,
                           const FleetState& state, std::int64_t displaced,
                           SimResult& result) {
  result.displaced_stable_cores_per_tick[static_cast<std::size_t>(t)] =
      displaced;
  if (hooks == nullptr) return;
  if (displaced > 0) ++result.stable_vm_downtime_ticks;
  for (std::size_t s = 0; s < available.size(); ++s) {
    if (hooks->site_degraded(s, t)) ++result.faulted_site_ticks;
  }
  TickSnapshot snap;
  snap.t = t;
  snap.available = &available;
  snap.stable_cores = &state.stable_cores;
  snap.degradable_cores = &state.degradable_cores;
  snap.displaced_stable_cores = displaced;
  hooks->on_tick_end(snap);
}

/// Energy metering (goal iii of §3.1: powered servers draw idle power,
/// active cores draw incremental power) with the opt-in price and carbon
/// scores.
class EconMeter {
 public:
  EconMeter(const SitePowerModel& power, const VbGraph& graph,
            const ScenarioExtensions* ext)
      : power_{power},
        hours_per_tick_{graph.axis().minutes_per_tick() / 60.0},
        price_{ext != nullptr ? ext->price : nullptr},
        carbon_{ext != nullptr ? ext->carbon : nullptr} {}

  /// Add site `s`'s energy for `tick`, then its cost, then its carbon;
  /// engines call it in (tick, site) order.
  void add(SimResult& result, std::size_t s, std::size_t tick, int servers,
           int active_cores) const {
    const double mwh = (servers * power_.server_idle_watts +
                        active_cores * power_.watts_per_active_core) *
                       hours_per_tick_ / 1e6;
    result.energy_mwh += mwh;
    result.energy_mwh_per_tick[tick] += mwh;
    if (price_ != nullptr) {
      const double usd = price_->value(s, static_cast<double>(tick)) * mwh;
      result.cost_usd += usd;
      result.cost_usd_per_tick[tick] += usd;
    }
    if (carbon_ != nullptr) {
      // gCO2/kWh × MWh = kgCO2.
      const double kg = carbon_->value(s, static_cast<double>(tick)) * mwh;
      result.carbon_kg += kg;
      result.carbon_kg_per_tick[tick] += kg;
    }
  }

 private:
  SitePowerModel power_;
  double hours_per_tick_;
  const energy::SiteSeries* price_;
  const energy::SiteSeries* carbon_;
};

/// Step the batch overlay at tick `t` on the cores the service workload
/// leaves free at each site. `free_cores` is scratch.
inline void step_overlay(workload::BatchOverlay& overlay, util::Tick t,
                         const std::vector<int>& available,
                         const FleetState& state,
                         std::vector<std::int64_t>& free_cores) {
  free_cores.resize(available.size());
  for (std::size_t s = 0; s < available.size(); ++s) {
    const std::int64_t free = static_cast<std::int64_t>(available[s]) -
                              state.stable_cores[s] -
                              state.degradable_cores[s];
    free_cores[s] = std::max<std::int64_t>(0, free);
  }
  overlay.step(t, free_cores);
}

}  // namespace vbatt::core
