#include "vbatt/testkit/vm_reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "vbatt/testkit/ref_site.h"

namespace vbatt::testkit {

namespace {

using namespace vbatt;

struct RefTrackedApp {
  workload::Application app;
  util::Tick end_tick = 0;
  std::size_t home = 0;
  std::vector<std::size_t> allowed;
  std::vector<std::int64_t> stable_ids;
  /// Resident degradable VMs only; paused ones are counted, not listed.
  std::vector<std::int64_t> degradable_ids;
  int paused_degradable = 0;
};

struct RefDisplacedVm {
  dcsim::VmInstance vm;
  std::size_t source = 0;
};

/// A blocked proactive move waiting out its backoff.
struct RefRetry {
  core::Move move;  // at_tick = when the next attempt is due
  int attempts = 0;  // failed attempts so far
};

/// A server-outage batch due back in service at `tick`.
struct RefRepair {
  util::Tick tick = 0;
  std::size_t site = 0;
  int count = 0;
};

void erase_id(std::vector<std::int64_t>& ids, std::int64_t id) {
  const auto pos = std::find(ids.begin(), ids.end(), id);
  if (pos != ids.end()) ids.erase(pos);
}

}  // namespace

core::VmLevelResult reference_vm_run(
    const core::VbGraph& graph,
    const std::vector<workload::Application>& apps, core::Scheduler& scheduler,
    const core::VmLevelConfig& config) {
  const std::size_t n_sites = graph.n_sites();
  const std::size_t n_ticks = graph.n_ticks();
  core::VmLevelResult result{n_sites, n_ticks};

  std::vector<RefSite> sites;
  sites.reserve(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    sites.emplace_back(
        std::max(1, graph.site(s).capacity_cores / config.server.cores),
        config.server);
  }

  std::map<std::int64_t, RefTrackedApp> live;
  std::map<std::int64_t, std::vector<core::Move>> pending_moves;
  std::deque<RefDisplacedVm> displaced;
  std::int64_t next_vm_id = 0;
  std::size_t next_app = 0;

  core::FleetState state;
  state.graph = &graph;
  state.stable_cores.assign(n_sites, 0);
  state.degradable_cores.assign(n_sites, 0);

  std::unordered_map<std::int64_t, std::size_t> vm_site;

  // Fault machinery: every branch is gated on `hooks`.
  core::FaultHooks* const hooks = config.faults.hooks;
  const core::MoveRetryPolicy& retry = config.faults.retry;
  std::vector<RefRetry> retries;   // in the order they were deferred
  std::vector<RefRepair> repairs;  // in the order the outages began
  std::uint64_t topo_epoch = hooks ? hooks->topology_epoch() : 0;

  // Scenario extensions: the shared batch overlay plus econ meters.
  const core::ScenarioExtensions* ext = config.ext;
  const bool has_overlay =
      ext != nullptr && ext->batch != nullptr && !ext->batch->empty();
  workload::BatchOverlay overlay = has_overlay
                                       ? workload::BatchOverlay{*ext->batch}
                                       : workload::BatchOverlay{};
  const energy::SiteSeries* price = ext != nullptr ? ext->price : nullptr;
  const energy::SiteSeries* carbon = ext != nullptr ? ext->carbon : nullptr;

  const auto place_vm = [&](dcsim::VmInstance vm, std::size_t s) -> bool {
    if (!sites[s].place(vm, config.placement)) return false;
    if (vm.vm_class == workload::VmClass::stable) {
      state.stable_cores[s] += vm.shape.cores;
    } else {
      state.degradable_cores[s] += vm.shape.cores;
    }
    vm_site[vm.vm_id] = s;
    return true;
  };
  const auto remove_vm =
      [&](std::int64_t vm_id,
          std::size_t s) -> std::optional<dcsim::VmInstance> {
    const auto removed = sites[s].remove(vm_id);
    if (removed) {
      if (removed->vm_class == workload::VmClass::stable) {
        state.stable_cores[s] -= removed->shape.cores;
      } else {
        state.degradable_cores[s] -= removed->shape.cores;
      }
      vm_site.erase(vm_id);
    }
    return removed;
  };
  /// Evicted VMs (power shrink or server outage at `s`): stable ones join
  /// the displaced queue, degradable ones pause.
  const auto absorb_evicted =
      [&](std::size_t s, const std::vector<dcsim::VmInstance>& evicted) {
        for (const dcsim::VmInstance& vm : evicted) {
          vm_site.erase(vm.vm_id);
          if (vm.vm_class == workload::VmClass::stable) {
            state.stable_cores[s] -= vm.shape.cores;
            displaced.push_back(RefDisplacedVm{vm, s});
          } else {
            state.degradable_cores[s] -= vm.shape.cores;
            const auto it = live.find(vm.app_id);
            if (it != live.end()) {
              ++it->second.paused_degradable;
              erase_id(it->second.degradable_ids, vm.vm_id);
            }
          }
        }
      };

  const double hours_per_tick = graph.axis().minutes_per_tick() / 60.0;
  const util::Tick replan_period = scheduler.replan_period_ticks();
  std::vector<int> avail(n_sites, 0);

  for (std::size_t i = 0; i < n_ticks; ++i) {
    const auto t = static_cast<util::Tick>(i);
    state.now = t;
    ++result.base.completed_ticks;

    // 0. Faults: link transitions, topology epoch, due server repairs.
    if (hooks) {
      hooks->begin_tick(t);
      if (hooks->topology_epoch() != topo_epoch) {
        topo_epoch = hooks->topology_epoch();
        scheduler.on_topology_change();
      }
      for (auto it = repairs.begin(); it != repairs.end();) {
        if (it->tick == t) {
          sites[it->site].repair_servers(it->count);
          it = repairs.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (std::size_t s = 0; s < n_sites; ++s) {
      avail[s] = graph.available_cores(s, t);
    }

    // 1. App departures — full sweep of the live map.
    for (auto it = live.begin(); it != live.end();) {
      RefTrackedApp& app = it->second;
      if (app.end_tick >= 0 && app.end_tick <= t) {
        const auto remove_resident = [&](std::int64_t id) {
          const auto at = vm_site.find(id);
          if (at != vm_site.end()) remove_vm(id, at->second);
        };
        for (const std::int64_t id : app.stable_ids) remove_resident(id);
        for (const std::int64_t id : app.degradable_ids) remove_resident(id);
        pending_moves.erase(it->first);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    displaced.erase(
        std::remove_if(displaced.begin(), displaced.end(),
                       [&](const RefDisplacedVm& d) {
                         return !live.contains(d.vm.app_id);
                       }),
        displaced.end());

    // 2. Replanning; a replan supersedes every outstanding move, retries
    //    included.
    if (replan_period > 0 && t > 0 && t % replan_period == 0) {
      state.apps.clear();
      for (const auto& [id, app] : live) {
        core::LiveApp summary;
        summary.app = app.app;
        summary.end_tick = app.end_tick;
        summary.site = app.home;
        summary.allowed = app.allowed;
        summary.active_degradable =
            static_cast<int>(app.degradable_ids.size());
        state.apps.emplace(id, std::move(summary));
      }
      pending_moves.clear();
      retries.clear();
      for (core::Move& move : scheduler.replan(state)) {
        pending_moves[move.app_id].push_back(move);
      }
    }

    // 3. Arrivals. A degradable VM that finds no server starts paused: it
    //    is counted, and materializes with a fresh vm_id on resume.
    while (next_app < apps.size() && apps[next_app].arrival <= t) {
      const workload::Application& app = apps[next_app];
      const core::Scheduler::Placement placement = scheduler.place(app, state);
      RefTrackedApp tracked;
      tracked.app = app;
      tracked.end_tick = app.lifetime_ticks < 0 ? -1 : t + app.lifetime_ticks;
      tracked.home = placement.site;
      tracked.allowed = placement.allowed;
      const util::Tick vm_end = tracked.end_tick;
      for (int v = 0; v < app.n_stable + app.n_degradable; ++v) {
        dcsim::VmInstance vm;
        vm.vm_id = next_vm_id++;
        vm.app_id = app.app_id;
        vm.shape = app.shape;
        vm.vm_class = v < app.n_stable ? workload::VmClass::stable
                                       : workload::VmClass::degradable;
        vm.end_tick = vm_end;
        if (place_vm(vm, placement.site)) {
          (vm.vm_class == workload::VmClass::stable ? tracked.stable_ids
                                                    : tracked.degradable_ids)
              .push_back(vm.vm_id);
        } else if (vm.vm_class == workload::VmClass::stable) {
          ++result.fragmentation_failures;
          displaced.push_back(RefDisplacedVm{vm, placement.site});
          tracked.stable_ids.push_back(vm.vm_id);
        } else {
          ++tracked.paused_degradable;
        }
      }
      if (!placement.scheduled_moves.empty()) {
        pending_moves[app.app_id] = placement.scheduled_moves;
      }
      ++result.base.apps_placed;
      live.emplace(app.app_id, std::move(tracked));
      ++next_app;
    }

    // 4. Execute due proactive moves — scan of every pending entry. Under
    //    faults a move to a downed site or across a severed link is
    //    deferred with capped exponential backoff, then abandoned.
    const auto move_blocked = [&](const RefTrackedApp& app,
                                  const core::Move& move) {
      return hooks->site_down(move.to_site, t) ||
             !graph.latency().connected(app.home, move.to_site);
    };
    const auto defer_move = [&](const core::Move& move, int prior_attempts) {
      const int attempts = prior_attempts + 1;
      if (attempts >= retry.max_attempts) {
        ++result.base.abandoned_moves;
        return;
      }
      util::Tick backoff = retry.base_backoff_ticks;
      for (int a = 1; a < attempts && backoff < retry.max_backoff_ticks; ++a) {
        backoff *= 2;
      }
      core::Move again = move;
      again.at_tick = t + std::min(backoff, retry.max_backoff_ticks);
      retries.push_back(RefRetry{again, attempts});
      ++result.base.retried_moves;
    };
    const auto execute_move = [&](RefTrackedApp& app,
                                  const core::Move& move) {
      const std::size_t from = app.home;
      app.home = move.to_site;
      bool moved_any = false;
      for (const std::int64_t id : app.stable_ids) {
        const auto vm = remove_vm(id, from);
        if (!vm) continue;
        if (place_vm(*vm, move.to_site)) {
          const double gb = vm->shape.memory_gb;
          result.base.ledger.record_out(from, t, gb);
          result.base.ledger.record_in(move.to_site, t, gb);
          result.base.moved_gb[i] += gb;
          ++result.vm_migrations;
          moved_any = true;
        } else {
          ++result.fragmentation_failures;
          displaced.push_back(RefDisplacedVm{*vm, from});
        }
      }
      std::vector<std::int64_t> kept;
      kept.reserve(app.degradable_ids.size());
      for (const std::int64_t id : app.degradable_ids) {
        const auto vm = remove_vm(id, from);
        if (!vm) {
          kept.push_back(id);
          continue;
        }
        if (place_vm(*vm, move.to_site)) {
          kept.push_back(id);
        } else {
          ++app.paused_degradable;
        }
      }
      app.degradable_ids = std::move(kept);
      if (moved_any) ++result.base.planned_migrations;
    };
    for (auto& [app_id, moves] : pending_moves) {
      const auto live_it = live.find(app_id);
      if (live_it == live.end()) continue;
      RefTrackedApp& app = live_it->second;
      for (const core::Move& move : moves) {
        if (move.at_tick != t || move.to_site == app.home) continue;
        if (hooks && move_blocked(app, move)) {
          defer_move(move, 0);
        } else {
          execute_move(app, move);
        }
      }
    }

    if (hooks) {
      // 4b. Retry deferred moves whose backoff expires now, in deferral
      //     order. Entries deferred again land behind the cut.
      std::vector<RefRetry> due;
      for (auto it = retries.begin(); it != retries.end();) {
        if (it->move.at_tick == t) {
          due.push_back(*it);
          it = retries.erase(it);
        } else {
          ++it;
        }
      }
      for (const RefRetry& r : due) {
        const auto live_it = live.find(r.move.app_id);
        if (live_it == live.end()) continue;
        RefTrackedApp& app = live_it->second;
        if (r.move.to_site == app.home) continue;
        if (move_blocked(app, r.move)) {
          defer_move(r.move, r.attempts);
        } else {
          execute_move(app, r.move);
        }
      }

      // 4c. Server outages beginning now evict like a power shrink.
      for (const core::ServerOutage& outage : hooks->server_outages_at(t)) {
        if (outage.site >= n_sites || outage.count <= 0) continue;
        absorb_evicted(outage.site,
                       sites[outage.site].fail_servers(outage.count));
        if (outage.repair_tick > t) {
          repairs.push_back({outage.repair_tick, outage.site, outage.count});
        }
      }
    }

    // 5. Power enforcement, serial over sites.
    for (std::size_t s = 0; s < n_sites; ++s) {
      absorb_evicted(s, sites[s].shrink_to(avail[s]));
    }

    // 6. Re-home displaced stable VMs.
    for (std::size_t d = displaced.size(); d-- > 0;) {
      RefDisplacedVm entry = displaced.front();
      displaced.pop_front();
      const auto it = live.find(entry.vm.app_id);
      if (it == live.end()) continue;
      bool placed = false;
      for (const std::size_t cand : it->second.allowed) {
        if (avail[cand] - sites[cand].allocated_cores() <
            entry.vm.shape.cores) {
          continue;
        }
        if (place_vm(entry.vm, cand)) {
          const double gb = entry.vm.shape.memory_gb;
          if (cand != entry.source) {
            result.base.ledger.record_out(entry.source, t, gb);
            result.base.ledger.record_in(cand, t, gb);
            result.base.moved_gb[i] += gb;
            ++result.vm_migrations;
            ++result.base.forced_migrations;
          }
          placed = true;
          break;
        }
      }
      if (!placed) {
        result.base.displaced_stable_core_ticks += entry.vm.shape.cores;
        result.base.displaced_by_app[entry.vm.app_id] +=
            entry.vm.shape.cores;
        result.base.displaced_stable_cores_per_tick[i] +=
            entry.vm.shape.cores;
        displaced.push_back(entry);
      }
    }

    // 7. Resume paused degradable VMs — full sweep of the live map. The
    //    degradable_ids list holds exactly the resident VMs, so its size
    //    is the active count.
    for (auto& [id, app] : live) {
      while (app.paused_degradable > 0) {
        const int headroom =
            avail[app.home] - sites[app.home].allocated_cores();
        if (headroom < app.app.shape.cores) break;
        dcsim::VmInstance vm;
        vm.vm_id = next_vm_id++;
        vm.app_id = id;
        vm.shape = app.app.shape;
        vm.vm_class = workload::VmClass::degradable;
        vm.end_tick = app.end_tick;
        if (!place_vm(vm, app.home)) break;
        app.degradable_ids.push_back(vm.vm_id);
        --app.paused_degradable;
      }
      result.base.paused_degradable_vm_ticks += app.paused_degradable;
      result.base.degradable_active_vm_ticks +=
          static_cast<std::int64_t>(app.degradable_ids.size());
    }

    // 7b. Batch overlay on the cores the service ledger leaves free.
    if (has_overlay) {
      std::vector<std::int64_t> free(n_sites, 0);
      for (std::size_t s = 0; s < n_sites; ++s) {
        free[s] = std::max<std::int64_t>(
            0, static_cast<std::int64_t>(avail[s]) - state.stable_cores[s] -
                   state.degradable_cores[s]);
      }
      overlay.step(t, free);
    }

    // 8. Energy — per-server scan of every site, every tick — metered
    //    into cost and carbon when their series are attached.
    for (std::size_t s = 0; s < n_sites; ++s) {
      int powered = 0;
      int active_cores = 0;
      for (const RefServer& server : sites[s].servers()) {
        if (server.vm_count > 0) {
          ++powered;
          active_cores += config.server.cores - server.free_cores;
        }
      }
      result.powered_server_ticks += powered;
      const double mwh = (powered * config.power.server_idle_watts +
                          active_cores * config.power.watts_per_active_core) *
                         hours_per_tick / 1e6;
      result.base.energy_mwh += mwh;
      result.base.energy_mwh_per_tick[i] += mwh;
      if (price != nullptr) {
        const double usd = price->value(s, static_cast<double>(t)) * mwh;
        result.base.cost_usd += usd;
        result.base.cost_usd_per_tick[i] += usd;
      }
      if (carbon != nullptr) {
        const double kg = carbon->value(s, static_cast<double>(t)) * mwh;
        result.base.carbon_kg += kg;
        result.base.carbon_kg_per_tick[i] += kg;
      }
    }

    // 9. Fault accounting and end-of-tick observation.
    if (hooks) {
      const std::int64_t displaced_now =
          result.base.displaced_stable_cores_per_tick[i];
      if (displaced_now > 0) ++result.base.stable_vm_downtime_ticks;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (hooks->site_degraded(s, t)) ++result.base.faulted_site_ticks;
      }
      core::TickSnapshot snap;
      snap.t = t;
      snap.available = &avail;
      snap.stable_cores = &state.stable_cores;
      snap.degradable_cores = &state.degradable_cores;
      snap.displaced_stable_cores = displaced_now;
      hooks->on_tick_end(snap);
    }
  }
  if (has_overlay) {
    overlay.finalize();
    result.base.batch = overlay.stats();
  }
  result.base.fallback_activations = scheduler.fallback_count();
  return result;
}

std::string diff_vm_results(const core::VmLevelResult& a,
                            const core::VmLevelResult& b,
                            std::size_t n_sites, bool fault_counters) {
  std::ostringstream out;
  const auto mismatch = [&](const char* field, auto lhs, auto rhs) {
    out << field << ": " << lhs << " != " << rhs;
    return out.str();
  };
  if (a.vm_migrations != b.vm_migrations) {
    return mismatch("vm_migrations", a.vm_migrations, b.vm_migrations);
  }
  if (a.fragmentation_failures != b.fragmentation_failures) {
    return mismatch("fragmentation_failures", a.fragmentation_failures,
                    b.fragmentation_failures);
  }
  if (a.powered_server_ticks != b.powered_server_ticks) {
    return mismatch("powered_server_ticks", a.powered_server_ticks,
                    b.powered_server_ticks);
  }
  if (a.base.apps_placed != b.base.apps_placed) {
    return mismatch("apps_placed", a.base.apps_placed, b.base.apps_placed);
  }
  if (a.base.planned_migrations != b.base.planned_migrations) {
    return mismatch("planned_migrations", a.base.planned_migrations,
                    b.base.planned_migrations);
  }
  if (a.base.forced_migrations != b.base.forced_migrations) {
    return mismatch("forced_migrations", a.base.forced_migrations,
                    b.base.forced_migrations);
  }
  if (a.base.displaced_stable_core_ticks !=
      b.base.displaced_stable_core_ticks) {
    return mismatch("displaced_stable_core_ticks",
                    a.base.displaced_stable_core_ticks,
                    b.base.displaced_stable_core_ticks);
  }
  if (a.base.paused_degradable_vm_ticks !=
      b.base.paused_degradable_vm_ticks) {
    return mismatch("paused_degradable_vm_ticks",
                    a.base.paused_degradable_vm_ticks,
                    b.base.paused_degradable_vm_ticks);
  }
  if (a.base.degradable_active_vm_ticks !=
      b.base.degradable_active_vm_ticks) {
    return mismatch("degradable_active_vm_ticks",
                    a.base.degradable_active_vm_ticks,
                    b.base.degradable_active_vm_ticks);
  }
  if (a.base.energy_mwh != b.base.energy_mwh) {  // bit-equal, no tolerance
    return mismatch("energy_mwh", a.base.energy_mwh, b.base.energy_mwh);
  }
  if (a.base.moved_gb != b.base.moved_gb) return "moved_gb series differ";
  if (a.base.energy_mwh_per_tick != b.base.energy_mwh_per_tick) {
    return "energy_mwh_per_tick series differ";
  }
  if (a.base.displaced_by_app != b.base.displaced_by_app) {
    return "displaced_by_app maps differ";
  }
  if (a.base.displaced_stable_cores_per_tick !=
      b.base.displaced_stable_cores_per_tick) {
    return "displaced_stable_cores_per_tick series differ";
  }
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (a.base.ledger.out_series(s) != b.base.ledger.out_series(s) ||
        a.base.ledger.in_series(s) != b.base.ledger.in_series(s)) {
      return "ledger series differ at site " + std::to_string(s);
    }
  }
  if (a.base.batch != b.base.batch) return "batch overlay stats differ";
  if (a.base.cost_usd != b.base.cost_usd) {  // bit-equal, no tolerance
    return mismatch("cost_usd", a.base.cost_usd, b.base.cost_usd);
  }
  if (a.base.carbon_kg != b.base.carbon_kg) {
    return mismatch("carbon_kg", a.base.carbon_kg, b.base.carbon_kg);
  }
  if (a.base.cost_usd_per_tick != b.base.cost_usd_per_tick) {
    return "cost_usd_per_tick series differ";
  }
  if (a.base.carbon_kg_per_tick != b.base.carbon_kg_per_tick) {
    return "carbon_kg_per_tick series differ";
  }
  if (a.base.completed_ticks != b.base.completed_ticks) {
    return mismatch("completed_ticks", a.base.completed_ticks,
                    b.base.completed_ticks);
  }
  if (a.base.fallback_activations != b.base.fallback_activations) {
    return mismatch("fallback_activations", a.base.fallback_activations,
                    b.base.fallback_activations);
  }
  if (!fault_counters) return {};
  if (a.base.retried_moves != b.base.retried_moves) {
    return mismatch("retried_moves", a.base.retried_moves,
                    b.base.retried_moves);
  }
  if (a.base.abandoned_moves != b.base.abandoned_moves) {
    return mismatch("abandoned_moves", a.base.abandoned_moves,
                    b.base.abandoned_moves);
  }
  if (a.base.faulted_site_ticks != b.base.faulted_site_ticks) {
    return mismatch("faulted_site_ticks", a.base.faulted_site_ticks,
                    b.base.faulted_site_ticks);
  }
  if (a.base.stable_vm_downtime_ticks != b.base.stable_vm_downtime_ticks) {
    return mismatch("stable_vm_downtime_ticks",
                    a.base.stable_vm_downtime_ticks,
                    b.base.stable_vm_downtime_ticks);
  }
  return {};
}

std::string conservation_violation(
    const core::VbGraph& graph, const std::vector<workload::Application>& apps,
    const core::VmLevelResult& r) {
  const auto n_ticks = static_cast<util::Tick>(graph.n_ticks());
  const auto near = [](double a, double b, double tol_rel) {
    return std::abs(a - b) <=
           tol_rel * std::max({1.0, std::abs(a), std::abs(b)});
  };

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
    if (v < 0) return std::string{name} + " negative: " + std::to_string(v);
  }

  // Per-app displacement must sum to the fleet total, and so must the
  // per-tick series (both integer-exact).
  std::int64_t by_app = 0;
  for (const auto& [app_id, cores] : r.base.displaced_by_app) {
    if (cores < 0) return "negative displaced_by_app entry";
    by_app += cores;
  }
  if (by_app != r.base.displaced_stable_core_ticks) {
    return "sum(displaced_by_app)=" + std::to_string(by_app) +
           " != displaced_stable_core_ticks=" +
           std::to_string(r.base.displaced_stable_core_ticks);
  }
  std::int64_t by_tick = 0;
  for (const std::int64_t v : r.base.displaced_stable_cores_per_tick) {
    by_tick += v;
  }
  if (by_tick != r.base.displaced_stable_core_ticks) {
    return "sum(displaced_stable_cores_per_tick)=" + std::to_string(by_tick) +
           " != displaced_stable_core_ticks=" +
           std::to_string(r.base.displaced_stable_core_ticks);
  }

  // Degradable bookkeeping closes exactly: every degradable VM of a live
  // app is active or paused on every tick of the app's residency.
  std::int64_t expected_degradable = 0;
  for (const workload::Application& app : apps) {
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
    return "degradable active+paused=" + std::to_string(got) +
           " != n_degradable x live-ticks=" +
           std::to_string(expected_degradable);
  }

  // Ledger totals equal per-step sums: every migration records the same GB
  // out, in, and into moved_gb.
  double moved = 0.0;
  for (const double gb : r.base.moved_gb) moved += gb;
  double out_total = 0.0;
  double in_total = 0.0;
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    for (const double gb : r.base.ledger.out_series(s)) out_total += gb;
    for (const double gb : r.base.ledger.in_series(s)) in_total += gb;
  }
  if (!near(out_total, moved, 1e-9) || !near(in_total, moved, 1e-9)) {
    return "ledger totals out=" + std::to_string(out_total) +
           " in=" + std::to_string(in_total) +
           " != moved_gb sum=" + std::to_string(moved);
  }

  // Total energy equals the per-tick series (per-tick sums re-add in a
  // different order, so this is a tolerance check, not bitwise).
  double energy = 0.0;
  for (const double mwh : r.base.energy_mwh_per_tick) energy += mwh;
  if (!near(energy, r.base.energy_mwh, 1e-9)) {
    return "energy_mwh=" + std::to_string(r.base.energy_mwh) +
           " != per-tick sum=" + std::to_string(energy);
  }
  return {};
}

}  // namespace vbatt::testkit
