#include "vbatt/core/fleet_sim.h"

#include "vbatt/dcsim/site_block.h"
#include "vbatt/util/arena.h"
#include "vbatt/util/signal.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vbatt::core {

namespace {

constexpr std::size_t kWordBits = 64;

/// Dense bitset over app slots; iteration yields ascending slot order,
/// which equals ascending app_id order (slots are the rank of the app_id
/// in sorted order) — the same order the oracle's (testkit::reference_vm_run)
/// ordered-map walks produce.
class SlotBits {
 public:
  void resize(std::size_t n) { words_.assign((n + kWordBits - 1) / kWordBits, 0); }
  void set(std::size_t i) {
    words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }
  void clear(std::size_t i) {
    words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
  }
  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }
  /// Visit set slots in ascending order. The body may clear the slot it
  /// is visiting (each word is snapshotted before its bits are walked);
  /// it must not set new bits.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto i =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        f(i);
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

VmLevelResult run_fleet_simulation(
    const VbGraph& graph, const std::vector<workload::Application>& apps,
    Scheduler& scheduler, const VmLevelConfig& config,
    const FleetSimOptions& /*options: accepted and ignored*/) {
  const std::size_t n_sites = graph.n_sites();
  const std::size_t n_ticks = graph.n_ticks();
  VmLevelResult result{n_sites, n_ticks};

  // --- Sites: one SiteBlock spans the fleet; block site s is graph site s.
  dcsim::SiteBlock block = [&] {
    std::vector<dcsim::SiteConfig> configs(n_sites);
    for (std::size_t s = 0; s < n_sites; ++s) {
      configs[s].n_servers =
          std::max(1, graph.site(s).capacity_cores / config.server.cores);
      configs[s].server = config.server;
    }
    return dcsim::SiteBlock{configs};
  }();

  // --- App slots: rank of app_id in sorted order, so slot order ==
  // app_id order and every bitset walk reproduces the oracle's ordered
  // iteration.
  const std::size_t n_apps = apps.size();
  std::vector<std::int64_t> slot_app_id(n_apps);
  std::unordered_map<std::int64_t, std::int32_t> slot_of;
  slot_of.reserve(n_apps);
  {
    for (std::size_t i = 0; i < n_apps; ++i) slot_app_id[i] = apps[i].app_id;
    std::sort(slot_app_id.begin(), slot_app_id.end());
    if (std::adjacent_find(slot_app_id.begin(), slot_app_id.end()) !=
        slot_app_id.end()) {
      throw std::invalid_argument{
          "run_fleet_simulation: duplicate app_id in workload"};
    }
    for (std::size_t i = 0; i < n_apps; ++i) {
      slot_of.emplace(slot_app_id[i], static_cast<std::int32_t>(i));
    }
  }

  // Per-app columns (SoA replacement for a per-app TrackedApp map).
  // Shape/arrival data is filled up front from the workload; placement
  // state is written at arrival time.
  std::vector<std::int32_t> app_index(n_apps, -1);  // slot -> index in apps
  std::vector<std::int32_t> app_cores(n_apps, 0);
  std::vector<double> app_mem(n_apps, 0.0);
  std::vector<util::Tick> app_end(n_apps, -1);
  std::vector<std::int32_t> app_home(n_apps, 0);
  std::vector<std::int32_t> app_allowed(n_apps, -1);  // interned list id
  // Stable VM ids are handed out consecutively at arrival and never
  // added afterwards, so each app's stable list is the dense range
  // [stable_base, stable_base + stable_n) — no per-app vector needed.
  // Degradable lists mutate (evictions, respawns) and stay as vectors.
  std::vector<std::int64_t> app_stable_base(n_apps, 0);
  std::vector<std::int32_t> app_stable_n(n_apps, 0);
  std::vector<std::vector<std::int64_t>> app_degr_ids(n_apps);
  std::vector<std::int32_t> app_paused(n_apps, 0);
  std::vector<std::int32_t> app_displaced(n_apps, 0);
  SlotBits live_bits, paused_bits, displaced_bits;
  live_bits.resize(n_apps);
  paused_bits.resize(n_apps);
  displaced_bits.resize(n_apps);
  int max_shape_cores = 0;
  for (std::size_t i = 0; i < n_apps; ++i) {
    const std::int32_t slot = slot_of.at(apps[i].app_id);
    app_index[static_cast<std::size_t>(slot)] = static_cast<std::int32_t>(i);
    app_cores[static_cast<std::size_t>(slot)] = apps[i].shape.cores;
    app_mem[static_cast<std::size_t>(slot)] = apps[i].shape.memory_gb;
    max_shape_cores = std::max(max_shape_cores, apps[i].shape.cores);
  }

  // --- Allowed-site lists, interned. Schedulers hand out the same
  // allowed list to every app anchored at the same site; at 1000 sites x
  // millions of apps, storing each copy would dwarf everything else.
  // Lists are deduplicated by content into arena-backed spans.
  util::Arena allowed_arena;
  struct AllowedList {
    const std::int32_t* data = nullptr;
    std::int32_t size = 0;
  };
  std::vector<AllowedList> allowed_lists;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> allowed_index;
  const auto intern_allowed =
      [&](const std::vector<std::size_t>& sites) -> std::int32_t {
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a
    for (const std::size_t s : sites) {
      hash ^= static_cast<std::uint64_t>(s);
      hash *= 1099511628211ull;
    }
    std::vector<std::int32_t>& candidates = allowed_index[hash];
    for (const std::int32_t id : candidates) {
      const AllowedList& list = allowed_lists[static_cast<std::size_t>(id)];
      if (static_cast<std::size_t>(list.size) != sites.size()) continue;
      bool equal = true;
      for (std::int32_t j = 0; j < list.size && equal; ++j) {
        equal = list.data[j] == static_cast<std::int32_t>(sites[j]);
      }
      if (equal) return id;
    }
    std::int32_t* data = allowed_arena.allocate<std::int32_t>(sites.size());
    for (std::size_t j = 0; j < sites.size(); ++j) {
      data[j] = static_cast<std::int32_t>(sites[j]);
    }
    const auto id = static_cast<std::int32_t>(allowed_lists.size());
    allowed_lists.push_back(
        AllowedList{data, static_cast<std::int32_t>(sites.size())});
    candidates.push_back(id);
    return id;
  };

  // --- Per-VM record, indexed by vm_id (ids are handed out
  // sequentially, so registration is a push_back). -1 site = not
  // resident (displaced, paused, or departed). One 16-byte record per
  // VM instead of four parallel columns: every hot VM operation
  // (route-on-departure, detach, re-home) reads site/server/slot/degr
  // together, so packing them puts the whole lookup on one cache line.
  struct VmRec {
    std::int32_t site = -1;
    std::int32_t server = -1;
    std::int32_t slot = 0;
    std::uint8_t degr = 0;
  };
  std::vector<VmRec> vm_recs;
  {
    std::size_t vm_budget = 0;
    for (const workload::Application& app : apps) {
      vm_budget += static_cast<std::size_t>(app.n_stable + app.n_degradable);
    }
    vm_recs.reserve(vm_budget);
  }
  std::int64_t next_vm_id = 0;
  const auto register_vm = [&](std::int32_t slot, bool degradable)
      -> std::int64_t {
    const std::int64_t id = next_vm_id++;
    vm_recs.push_back(
        VmRec{-1, -1, slot, static_cast<std::uint8_t>(degradable ? 1 : 0)});
    return id;
  };

  // --- Fault machinery (identical bookkeeping to the oracle).
  FaultHooks* const hooks = config.faults.hooks;
  const MoveRetryPolicy retry = config.faults.retry;
  struct PendingRetry {
    Move move;
    int attempts = 0;
  };
  std::map<util::Tick, std::vector<PendingRetry>> retry_queue;
  std::map<util::Tick, std::vector<std::pair<std::size_t, int>>> repairs;

  // Fleet-wide degradable counters (per-tick paused/active stats in O(1)).
  std::int64_t fleet_degradable_ids = 0;
  std::int64_t fleet_paused = 0;

  // --- Displaced / paused machinery. The queue holds (vm_id, source);
  // shape and ownership come from the VM/app columns. Per-core-count
  // aggregates are flat arrays indexed by core count, with explicit entry
  // counters standing in for .empty().
  std::deque<std::pair<std::int64_t, std::int32_t>> displaced;
  std::vector<std::int64_t> displaced_core_counts(
      static_cast<std::size_t>(max_shape_cores) + 1, 0);
  std::vector<std::int64_t> paused_core_counts(
      static_cast<std::size_t>(max_shape_cores) + 1, 0);
  std::int64_t displaced_entries = 0;
  std::int64_t displaced_cores_total = 0;
  const auto displaced_add = [&](std::int32_t slot, int cores) {
    ++displaced_core_counts[static_cast<std::size_t>(cores)];
    ++displaced_entries;
    if (app_displaced[static_cast<std::size_t>(slot)]++ == 0) {
      displaced_bits.set(static_cast<std::size_t>(slot));
    }
    displaced_cores_total += cores;
  };
  const auto displaced_drop = [&](std::int32_t slot, int cores) {
    --displaced_core_counts[static_cast<std::size_t>(cores)];
    --displaced_entries;
    if (--app_displaced[static_cast<std::size_t>(slot)] == 0) {
      displaced_bits.clear(static_cast<std::size_t>(slot));
    }
    displaced_cores_total -= cores;
  };
  const auto pause_degradable = [&](std::int32_t slot) {
    ++app_paused[static_cast<std::size_t>(slot)];
    ++fleet_paused;
    ++paused_core_counts[
        static_cast<std::size_t>(app_cores[static_cast<std::size_t>(slot)])];
    paused_bits.set(static_cast<std::size_t>(slot));
  };
  const auto drop_degradable_id = [&](std::int32_t slot, std::int64_t vm_id) {
    std::vector<std::int64_t>& ids =
        app_degr_ids[static_cast<std::size_t>(slot)];
    const auto it = std::find(ids.begin(), ids.end(), vm_id);
    if (it != ids.end()) {
      ids.erase(it);
      --fleet_degradable_ids;
    }
  };

  // Event indices. The departure heap is keyed (end_tick, slot); slot
  // order == app_id order, so pops come out in (end_tick, app_id) order.
  using AppDeparture = std::pair<util::Tick, std::int32_t>;
  std::priority_queue<AppDeparture, std::vector<AppDeparture>,
                      std::greater<AppDeparture>>
      app_departures;
  std::map<std::int64_t, std::vector<Move>> pending_moves;
  std::map<util::Tick, std::set<std::int64_t>> due_moves;
  std::size_t next_app = 0;

  FleetState state;
  state.graph = &graph;
  state.stable_cores.assign(n_sites, 0);
  state.degradable_cores.assign(n_sites, 0);

  const auto place_vm = [&](std::int64_t vm_id, std::int32_t slot,
                            bool degradable, std::size_t s) -> bool {
    const int cores = app_cores[static_cast<std::size_t>(slot)];
    const double mem = app_mem[static_cast<std::size_t>(slot)];
    const int server =
        block.place(s, vm_id, cores, mem, degradable, config.placement);
    if (server < 0) return false;
    (degradable ? state.degradable_cores : state.stable_cores)[s] += cores;
    VmRec& rec = vm_recs[static_cast<std::size_t>(vm_id)];
    rec.site = static_cast<std::int32_t>(s);
    rec.server = server;
    return true;
  };
  /// Detach a VM known to be resident at site `s`.
  const auto remove_vm_at = [&](std::int64_t vm_id, std::size_t s) {
    VmRec& rec = vm_recs[static_cast<std::size_t>(vm_id)];
    const auto slot = static_cast<std::size_t>(rec.slot);
    const bool degradable = rec.degr != 0;
    block.remove(s, rec.server, vm_id, app_cores[slot], app_mem[slot],
                 degradable);
    (degradable ? state.degradable_cores : state.stable_cores)[s] -=
        app_cores[slot];
    rec.site = -1;
    rec.server = -1;
  };

  const double hours_per_tick = graph.axis().minutes_per_tick() / 60.0;
  const util::Tick replan_period = scheduler.replan_period_ticks();

  // This tick's power budget per site (graph.available_cores is pure in
  // (s, t), so it is read once per tick), and eviction scratch.
  std::vector<int> avail(n_sites, 0);
  state.avail_cache = &avail;
  std::vector<dcsim::SiteBlock::Evicted> evicted;

  // Opt-in scenario extensions. The overlay steps at the same point as the
  // oracle; econ terms accumulate in meter() below in the identical
  // (tick, site) order.
  const bool has_overlay = config.ext != nullptr &&
                           config.ext->batch != nullptr &&
                           !config.ext->batch->empty();
  workload::BatchOverlay overlay =
      has_overlay ? workload::BatchOverlay{*config.ext->batch}
                  : workload::BatchOverlay{};
  const energy::SiteSeries* price =
      config.ext != nullptr ? config.ext->price : nullptr;
  const energy::SiteSeries* carbon =
      config.ext != nullptr ? config.ext->carbon : nullptr;
  std::vector<std::int64_t> overlay_free;
  if (has_overlay) overlay_free.assign(n_sites, 0);

  /// Meter tick `tick`'s energy (and its price and carbon) from the
  /// block's counters, adding each site's share in site order. A tick is
  /// metered once its last mutation is done: at the top of the next tick,
  /// before any repair or departure touches a site, or after the loop.
  const auto meter = [&](std::size_t tick) {
    for (std::size_t s = 0; s < n_sites; ++s) {
      const int powered = block.powered_servers(s);
      const double mwh = (powered * config.power.server_idle_watts +
                          block.active_cores(s) *
                              config.power.watts_per_active_core) *
                         hours_per_tick / 1e6;
      result.powered_server_ticks += powered;
      result.base.energy_mwh += mwh;
      result.base.energy_mwh_per_tick[tick] += mwh;
      if (price != nullptr) {
        const double usd = price->value(s, static_cast<double>(tick)) * mwh;
        result.base.cost_usd += usd;
        result.base.cost_usd_per_tick[tick] += usd;
      }
      if (carbon != nullptr) {
        const double kg = carbon->value(s, static_cast<double>(tick)) * mwh;
        result.base.carbon_kg += kg;
        result.base.carbon_kg_per_tick[tick] += kg;
      }
    }
  };

  /// Fold a batch of evicted VMs (power shrink or server failure at site
  /// `s`) into the displaced/paused machinery, in site order.
  const auto absorb_evicted =
      [&](std::size_t s, const std::vector<dcsim::SiteBlock::Evicted>& batch) {
        for (const dcsim::SiteBlock::Evicted& vm : batch) {
          VmRec& rec = vm_recs[static_cast<std::size_t>(vm.vm_id)];
          rec.site = -1;
          rec.server = -1;
          const std::int32_t slot = rec.slot;
          if (!vm.degradable) {
            state.stable_cores[s] -= vm.cores;
            displaced.emplace_back(vm.vm_id, static_cast<std::int32_t>(s));
            displaced_add(slot, vm.cores);
          } else {
            state.degradable_cores[s] -= vm.cores;
            if (live_bits.test(static_cast<std::size_t>(slot))) {
              drop_degradable_id(slot, vm.vm_id);
              pause_degradable(slot);
            }
          }
        }
      };

  std::uint64_t topo_epoch = hooks ? hooks->topology_epoch() : 0;

  for (std::size_t i = 0; i < n_ticks; ++i) {
    if (util::shutdown_requested()) break;
    const auto t = static_cast<util::Tick>(i);
    state.now = t;
    ++result.base.completed_ticks;

    // 0. Fault prologue: link transitions apply inside begin_tick. A
    //    topology-epoch advance tells the scheduler to drop cached state
    //    keyed to the old fleet.
    if (hooks) {
      hooks->begin_tick(t);
      if (const std::uint64_t epoch = hooks->topology_epoch();
          epoch != topo_epoch) {
        topo_epoch = epoch;
        scheduler.on_topology_change();
      }
    }

    // 1. Meter tick t-1: no site has changed since it ended. Then apply
    //    due server repairs and fill this tick's power budget.
    if (i > 0) meter(i - 1);
    if (const auto due = repairs.find(t); due != repairs.end()) {
      for (const auto& [s, count] : due->second) block.repair_servers(s, count);
      repairs.erase(due);
    }
    for (std::size_t s = 0; s < n_sites; ++s) {
      avail[s] = graph.available_cores(s, t);
    }

    // 1b. Departures: pop the app calendar (end_tick, app_id order),
    //     detach each resident VM, retire the paused/displaced aggregates
    //     and drop the app.
    while (!app_departures.empty() && app_departures.top().first <= t) {
      const std::int32_t slot = app_departures.top().second;
      app_departures.pop();
      const auto u = static_cast<std::size_t>(slot);
      if (!live_bits.test(u)) continue;  // defensive: apps depart once
      live_bits.clear(u);
      const auto detach = [&](std::int64_t id) {
        const std::int32_t at = vm_recs[static_cast<std::size_t>(id)].site;
        if (at >= 0) remove_vm_at(id, static_cast<std::size_t>(at));
      };
      const std::int64_t stable_hi = app_stable_base[u] + app_stable_n[u];
      for (std::int64_t id = app_stable_base[u]; id < stable_hi; ++id) {
        detach(id);
      }
      for (const std::int64_t id : app_degr_ids[u]) detach(id);

      fleet_degradable_ids -= static_cast<std::int64_t>(app_degr_ids[u].size());
      fleet_paused -= app_paused[u];
      if (app_paused[u] > 0) {
        paused_core_counts[static_cast<std::size_t>(app_cores[u])] -=
            app_paused[u];
        app_paused[u] = 0;
      }
      if (app_displaced[u] > 0) {
        const int cores = app_cores[u];
        displaced_core_counts[static_cast<std::size_t>(cores)] -=
            app_displaced[u];
        displaced_entries -= app_displaced[u];
        displaced_cores_total -=
            static_cast<std::int64_t>(app_displaced[u]) * cores;
        app_displaced[u] = 0;
        displaced_bits.clear(u);
      }
      paused_bits.clear(u);
      pending_moves.erase(slot_app_id[u]);
      // Release, not clear: a year-long run retires millions of apps and
      // their id lists must not linger at peak capacity.
      app_stable_n[u] = 0;
      std::vector<std::int64_t>().swap(app_degr_ids[u]);
    }

    // 2. Replanning. The FleetState mirror is rebuilt from the app
    //    columns in slot (== app_id) order.
    if (replan_period > 0 && t > 0 && t % replan_period == 0) {
      state.apps.clear();
      live_bits.for_each([&](std::size_t u) {
        LiveApp summary;
        summary.app = apps[static_cast<std::size_t>(app_index[u])];
        summary.end_tick = app_end[u];
        summary.site = static_cast<std::size_t>(app_home[u]);
        const AllowedList& list =
            allowed_lists[static_cast<std::size_t>(app_allowed[u])];
        summary.allowed.reserve(static_cast<std::size_t>(list.size));
        for (std::int32_t j = 0; j < list.size; ++j) {
          summary.allowed.push_back(static_cast<std::size_t>(list.data[j]));
        }
        summary.active_degradable = static_cast<int>(app_degr_ids[u].size());
        state.apps.emplace_hint(state.apps.end(), slot_app_id[u],
                                std::move(summary));
      });
      pending_moves.clear();
      due_moves.clear();
      retry_queue.clear();  // a replan supersedes every outstanding move
      for (Move& move : scheduler.replan(state)) {
        due_moves[move.at_tick].insert(move.app_id);
        pending_moves[move.app_id].push_back(move);
      }
    }

    // 3. Arrivals, in order: every placement consults the scheduler and
    //    changes the capacity the next one sees.
    while (next_app < apps.size() && apps[next_app].arrival <= t) {
      const workload::Application& app = apps[next_app];
      const Scheduler::Placement placement = scheduler.place(app, state);
      const std::int32_t slot = slot_of.at(app.app_id);
      const auto u = static_cast<std::size_t>(slot);
      app_end[u] = app.lifetime_ticks < 0 ? -1 : t + app.lifetime_ticks;
      app_home[u] = static_cast<std::int32_t>(placement.site);
      app_allowed[u] = intern_allowed(placement.allowed);
      app_stable_base[u] = next_vm_id;
      app_stable_n[u] = app.n_stable;
      app_degr_ids[u].reserve(static_cast<std::size_t>(app.n_degradable));
      for (int v = 0; v < app.n_stable + app.n_degradable; ++v) {
        const bool degradable = v >= app.n_stable;
        const std::int64_t vm_id = register_vm(slot, degradable);
        if (place_vm(vm_id, slot, degradable, placement.site)) {
          if (degradable) app_degr_ids[u].push_back(vm_id);
        } else if (!degradable) {
          ++result.fragmentation_failures;
          displaced.emplace_back(vm_id,
                                 static_cast<std::int32_t>(placement.site));
          displaced_add(slot, app.shape.cores);
        } else {
          ++app_paused[u];
        }
      }
      if (!placement.scheduled_moves.empty()) {
        for (const Move& move : placement.scheduled_moves) {
          due_moves[move.at_tick].insert(app.app_id);
        }
        pending_moves[app.app_id] = placement.scheduled_moves;
      }
      fleet_degradable_ids += static_cast<std::int64_t>(app_degr_ids[u].size());
      fleet_paused += app_paused[u];
      if (app_paused[u] > 0) {
        paused_core_counts[static_cast<std::size_t>(app.shape.cores)] +=
            app_paused[u];
        paused_bits.set(u);
      }
      if (app_end[u] >= 0) app_departures.emplace(app_end[u], slot);
      ++result.base.apps_placed;
      live_bits.set(u);
      ++next_app;
    }

    // 4. Execute due proactive moves, in order: capacity interactions
    //    between same-tick moves are order-dependent.
    const auto move_blocked = [&](std::int32_t slot, const Move& move) {
      return hooks->site_down(move.to_site, t) ||
             !graph.latency().connected(
                 static_cast<std::size_t>(
                     app_home[static_cast<std::size_t>(slot)]),
                 move.to_site);
    };
    const auto defer_move = [&](const Move& move, int prior_attempts) {
      const int attempts = prior_attempts + 1;
      if (attempts >= retry.max_attempts) {
        ++result.base.abandoned_moves;
        return;
      }
      util::Tick backoff = retry.base_backoff_ticks;
      for (int a = 1; a < attempts && backoff < retry.max_backoff_ticks; ++a) {
        backoff *= 2;
      }
      backoff = std::min(backoff, retry.max_backoff_ticks);
      Move again = move;
      again.at_tick = t + backoff;
      retry_queue[again.at_tick].push_back({again, attempts});
      ++result.base.retried_moves;
    };
    const auto execute_app_move = [&](std::int64_t app_id, std::int32_t slot,
                                      const Move& move) {
      const auto u = static_cast<std::size_t>(slot);
      const auto from = static_cast<std::int32_t>(app_home[u]);
      app_home[u] = static_cast<std::int32_t>(move.to_site);
      bool moved_any = false;
      const std::int64_t stable_hi = app_stable_base[u] + app_stable_n[u];
      for (std::int64_t id = app_stable_base[u]; id < stable_hi; ++id) {
        // Only VMs resident at the old home move (a displaced VM re-homed
        // elsewhere stays put, as in the oracle).
        if (vm_recs[static_cast<std::size_t>(id)].site != from) continue;
        remove_vm_at(id, static_cast<std::size_t>(from));
        if (place_vm(id, slot, false, move.to_site)) {
          const double gb = app_mem[u];
          result.base.ledger.record_out(static_cast<std::size_t>(from), t, gb);
          result.base.ledger.record_in(move.to_site, t, gb);
          result.base.moved_gb[i] += gb;
          ++result.vm_migrations;
          moved_any = true;
        } else {
          ++result.fragmentation_failures;
          displaced.emplace_back(id, from);
          displaced_add(slot, app_cores[u]);
        }
      }
      std::vector<std::int64_t> kept_degradable;
      kept_degradable.reserve(app_degr_ids[u].size());
      for (const std::int64_t id : app_degr_ids[u]) {
        if (vm_recs[static_cast<std::size_t>(id)].site != from) {
          kept_degradable.push_back(id);
          continue;
        }
        remove_vm_at(id, static_cast<std::size_t>(from));
        if (place_vm(id, slot, true, move.to_site)) {
          kept_degradable.push_back(id);
        } else {
          pause_degradable(slot);
        }
        // Degradable respawn: no WAN traffic.
      }
      fleet_degradable_ids -= static_cast<std::int64_t>(
          app_degr_ids[u].size() - kept_degradable.size());
      app_degr_ids[u] = std::move(kept_degradable);
      if (moved_any) ++result.base.planned_migrations;
      (void)app_id;
    };
    if (const auto due = due_moves.find(t); due != due_moves.end()) {
      for (const std::int64_t app_id : due->second) {
        const auto pend = pending_moves.find(app_id);
        if (pend == pending_moves.end()) continue;
        const auto slot_it = slot_of.find(app_id);
        if (slot_it == slot_of.end() ||
            !live_bits.test(static_cast<std::size_t>(slot_it->second))) {
          continue;
        }
        const std::int32_t slot = slot_it->second;
        for (const Move& move : pend->second) {
          if (move.at_tick != t ||
              move.to_site ==
                  static_cast<std::size_t>(
                      app_home[static_cast<std::size_t>(slot)])) {
            continue;
          }
          if (hooks && move_blocked(slot, move)) {
            defer_move(move, 0);
          } else {
            execute_app_move(app_id, slot, move);
          }
        }
      }
      due_moves.erase(due);
    }

    // 4b. Retry moves whose backoff expires now (fault runs only).
    if (hooks) {
      if (const auto due = retry_queue.find(t); due != retry_queue.end()) {
        std::vector<PendingRetry> batch = std::move(due->second);
        retry_queue.erase(due);
        for (const PendingRetry& pr : batch) {
          const auto slot_it = slot_of.find(pr.move.app_id);
          if (slot_it == slot_of.end() ||
              !live_bits.test(static_cast<std::size_t>(slot_it->second))) {
            continue;  // departed meanwhile
          }
          const std::int32_t slot = slot_it->second;
          if (pr.move.to_site ==
              static_cast<std::size_t>(
                  app_home[static_cast<std::size_t>(slot)])) {
            continue;  // already there
          }
          if (move_blocked(slot, pr.move)) {
            defer_move(pr.move, pr.attempts);
          } else {
            execute_app_move(pr.move.app_id, slot, pr.move);
          }
        }
      }

      // 4c. Server failures beginning this tick.
      for (const ServerOutage& outage : hooks->server_outages_at(t)) {
        if (outage.site >= n_sites || outage.count <= 0) continue;
        evicted.clear();
        block.fail_servers(outage.site, outage.count, evicted);
        absorb_evicted(outage.site, evicted);
        if (outage.repair_tick > t) {
          repairs[outage.repair_tick].emplace_back(outage.site, outage.count);
        }
      }
    }

    // 5. Shrink every site to its power budget, absorbing the evictions
    //    in site order, and note the largest headroom left.
    int max_headroom = std::numeric_limits<int>::min();
    for (std::size_t s = 0; s < n_sites; ++s) {
      evicted.clear();
      block.shrink_to(s, avail[s], evicted);
      max_headroom =
          std::max(max_headroom, avail[s] - block.allocated_cores(s));
      absorb_evicted(s, evicted);
    }

    // 6. Re-home displaced stable VMs (rotation identical to the oracle's
    //    pass). max_headroom proves in O(1) when nothing can fit: absorbing
    //    evictions changed no allocation, so it is still exact.
    bool any_can_fit = false;
    if (displaced_entries > 0) {
      int min_cores = 0;
      while (displaced_core_counts[static_cast<std::size_t>(min_cores)] == 0) {
        ++min_cores;
      }
      any_can_fit = max_headroom >= min_cores;
    }
    std::int64_t displaced_this_tick = 0;
    if (!any_can_fit) {
      result.base.displaced_stable_core_ticks += displaced_cores_total;
      displaced_this_tick = displaced_cores_total;
      displaced_bits.for_each([&](std::size_t u) {
        result.base.displaced_by_app[slot_app_id[u]] +=
            static_cast<std::int64_t>(app_displaced[u]) * app_cores[u];
      });
    } else {
      for (std::size_t d = displaced.size(); d-- > 0;) {
        const auto [vm_id, source] = displaced.front();
        displaced.pop_front();
        const std::int32_t slot = vm_recs[static_cast<std::size_t>(vm_id)].slot;
        const auto u = static_cast<std::size_t>(slot);
        if (!live_bits.test(u)) continue;  // tombstone: aggregates retired
        const int cores = app_cores[u];
        bool placed = false;
        const AllowedList& list =
            allowed_lists[static_cast<std::size_t>(app_allowed[u])];
        for (std::int32_t j = 0; j < list.size; ++j) {
          const auto cand = static_cast<std::size_t>(list.data[j]);
          // The state columns mirror the block's allocation exactly, and
          // three flat-array reads beat a read of the block's site header.
          if (avail[cand] - state.stable_cores[cand] -
                  state.degradable_cores[cand] <
              cores) {
            continue;
          }
          if (place_vm(vm_id, slot, false, cand)) {
            const double gb = app_mem[u];
            if (cand != static_cast<std::size_t>(source)) {
              result.base.ledger.record_out(static_cast<std::size_t>(source),
                                            t, gb);
              result.base.ledger.record_in(cand, t, gb);
              result.base.moved_gb[i] += gb;
              ++result.vm_migrations;
              ++result.base.forced_migrations;
            }
            displaced_drop(slot, cores);
            placed = true;
            break;
          }
        }
        if (!placed) {
          result.base.displaced_stable_core_ticks += cores;
          result.base.displaced_by_app[slot_app_id[u]] += cores;
          displaced_this_tick += cores;
          displaced.emplace_back(vm_id, source);
        }
      }
    }

    // 7. Resume paused degradable VMs (slot == app_id order). The
    //    any_can_resume scan re-checks live headroom because step 6's
    //    placements may have consumed what step 5 reported.
    bool any_can_resume = false;
    if (fleet_paused > 0) {
      int min_cores = 0;
      while (paused_core_counts[static_cast<std::size_t>(min_cores)] == 0) {
        ++min_cores;
      }
      for (std::size_t s = 0; s < n_sites && !any_can_resume; ++s) {
        any_can_resume = avail[s] - state.stable_cores[s] -
                             state.degradable_cores[s] >=
                         min_cores;
      }
    }
    if (any_can_resume) {
      paused_bits.for_each([&](std::size_t u) {
        const auto slot = static_cast<std::int32_t>(u);
        const auto home = static_cast<std::size_t>(app_home[u]);
        while (app_paused[u] > 0) {
          const int headroom = avail[home] - state.stable_cores[home] -
                               state.degradable_cores[home];
          if (headroom < app_cores[u]) break;
          const std::int64_t vm_id = register_vm(slot, true);
          if (!place_vm(vm_id, slot, true, home)) break;  // fragmentation
          app_degr_ids[u].push_back(vm_id);
          ++fleet_degradable_ids;
          --app_paused[u];
          --fleet_paused;
          --paused_core_counts[static_cast<std::size_t>(app_cores[u])];
        }
        if (app_paused[u] == 0) paused_bits.clear(u);
      });
    }
    result.base.paused_degradable_vm_ticks += fleet_paused;
    result.base.degradable_active_vm_ticks += fleet_degradable_ids;

    // 7b. Batch overlay: identical free-core formula and step point as
    //     the oracle, so the overlay trajectory is bit-identical.
    if (has_overlay) {
      for (std::size_t s = 0; s < n_sites; ++s) {
        const std::int64_t free = static_cast<std::int64_t>(avail[s]) -
                                  state.stable_cores[s] -
                                  state.degradable_cores[s];
        overlay_free[s] = free > 0 ? free : 0;
      }
      overlay.step(t, overlay_free);
    }

    // 8. This tick's energy is metered at the top of the next one (step 1),
    //    or after the loop for the last tick.

    // 9. Fault accounting and end-of-tick observation.
    result.base.displaced_stable_cores_per_tick[i] = displaced_this_tick;
    if (hooks) {
      if (displaced_this_tick > 0) ++result.base.stable_vm_downtime_ticks;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (hooks->site_degraded(s, t)) ++result.base.faulted_site_ticks;
      }
      TickSnapshot snap;
      snap.t = t;
      snap.available = &avail;
      snap.stable_cores = &state.stable_cores;
      snap.degradable_cores = &state.degradable_cores;
      snap.displaced_stable_cores = displaced_this_tick;
      hooks->on_tick_end(snap);
    }
  }

  // The last completed tick has no next tick to meter it (on a shutdown
  // request that is not the last tick of the axis).
  if (result.base.completed_ticks > 0) {
    meter(static_cast<std::size_t>(result.base.completed_ticks - 1));
  }

  if (has_overlay) {
    overlay.finalize();
    result.base.batch = overlay.stats();
  }
  result.base.fallback_activations = scheduler.fallback_count();
  return result;
}

}  // namespace vbatt::core
