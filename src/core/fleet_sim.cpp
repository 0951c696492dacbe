#include "vbatt/core/fleet_sim.h"

#include "vbatt/core/tick_parts.h"
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
#include <optional>
#include <queue>
#include <span>
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

dcsim::SiteBlock make_block(const VbGraph& graph,
                            const dcsim::ServerSpec& server) {
  std::vector<dcsim::SiteConfig> configs(graph.n_sites());
  for (std::size_t s = 0; s < configs.size(); ++s) {
    configs[s].n_servers =
        std::max(1, graph.site(s).capacity_cores / server.cores);
    configs[s].server = server;
  }
  return dcsim::SiteBlock{configs};
}

/// One VM-level run: its state, and one member per step of the tick order
/// in docs/SIMULATOR.md, which run_fleet_simulation calls in that order.
/// Steps walk sites in site order and apps in app_id order (the oracle's).
class FleetEngine {
 public:
  FleetEngine(const VbGraph& graph,
              const std::vector<workload::Application>& apps,
              Scheduler& scheduler, const VmLevelConfig& config)
      : graph_{graph},
        apps_{apps},
        scheduler_{scheduler},
        config_{config},
        n_sites_{graph.n_sites()},
        result_{graph.n_sites(), graph.n_ticks()},
        block_{make_block(graph, config.server)},
        avail_(graph.n_sites(), 0),
        hooks_{config.faults.hooks},
        topo_epoch_{hooks_ ? hooks_->topology_epoch() : 0},
        moves_{graph.latency(), hooks_, config.faults.retry},
        econ_{config.power, graph, config.ext},
        has_overlay_{config.ext != nullptr && config.ext->batch != nullptr &&
                     !config.ext->batch->empty()} {
    // App slots: rank of app_id in sorted order, so slot order == app_id
    // order and every bitset walk reproduces the oracle's ordered
    // iteration.
    const std::size_t n_apps = apps.size();
    slot_app_id_.resize(n_apps);
    for (std::size_t i = 0; i < n_apps; ++i) slot_app_id_[i] = apps[i].app_id;
    std::sort(slot_app_id_.begin(), slot_app_id_.end());
    if (std::adjacent_find(slot_app_id_.begin(), slot_app_id_.end()) !=
        slot_app_id_.end()) {
      throw std::invalid_argument{
          "run_fleet_simulation: duplicate app_id in workload"};
    }
    slot_of_.reserve(n_apps);
    for (std::size_t i = 0; i < n_apps; ++i) {
      slot_of_.emplace(slot_app_id_[i], static_cast<std::int32_t>(i));
    }

    // Per-app columns: shape from the workload now, placement at arrival.
    app_index_.assign(n_apps, -1);
    app_cores_.assign(n_apps, 0);
    app_mem_.assign(n_apps, 0.0);
    app_end_.assign(n_apps, -1);
    app_home_.assign(n_apps, 0);
    app_allowed_.assign(n_apps, -1);
    app_stable_base_.assign(n_apps, 0);
    app_stable_n_.assign(n_apps, 0);
    app_degr_ids_.resize(n_apps);
    app_paused_.assign(n_apps, 0);
    app_displaced_.assign(n_apps, 0);
    live_bits_.resize(n_apps);
    paused_bits_.resize(n_apps);
    displaced_bits_.resize(n_apps);
    int max_shape_cores = 0;
    std::size_t vm_budget = 0;
    for (std::size_t i = 0; i < n_apps; ++i) {
      const auto u = static_cast<std::size_t>(slot_of_.at(apps[i].app_id));
      app_index_[u] = static_cast<std::int32_t>(i);
      app_cores_[u] = apps[i].shape.cores;
      app_mem_[u] = apps[i].shape.memory_gb;
      max_shape_cores = std::max(max_shape_cores, apps[i].shape.cores);
      vm_budget +=
          static_cast<std::size_t>(apps[i].n_stable + apps[i].n_degradable);
    }
    vm_recs_.reserve(vm_budget);
    displaced_core_counts_.assign(
        static_cast<std::size_t>(max_shape_cores) + 1, 0);
    paused_core_counts_.assign(static_cast<std::size_t>(max_shape_cores) + 1,
                               0);

    state_.graph = &graph;
    state_.stable_cores.assign(n_sites_, 0);
    state_.degradable_cores.assign(n_sites_, 0);
    state_.avail_cache = &avail_;
    if (has_overlay_) overlay_ = workload::BatchOverlay{*config.ext->batch};
  }

  // -- tick steps, in order. Each stays out of line, so a profile names it.

  /// Step 0: the fault prologue.
  [[gnu::noinline]] void begin_tick(util::Tick t) {
    state_.now = t;
    ++result_.base.completed_ticks;
    begin_fault_tick(hooks_, t, topo_epoch_, scheduler_);
  }

  /// Step 1 (and 8): meter tick `tick` from the block's counters, once its
  /// last mutation is done: at the top of the next tick, or after the loop.
  [[gnu::noinline]] void meter(std::size_t tick) {
    for (std::size_t s = 0; s < n_sites_; ++s) {
      const int powered = block_.powered_servers(s);
      result_.powered_server_ticks += powered;
      econ_.add(result_.base, s, tick, powered, block_.active_cores(s));
    }
  }

  /// Step 1: due server repairs, then this tick's power budget
  /// (graph.available_cores is pure in (s, t), so it is read once).
  [[gnu::noinline]] void repairs_and_budget(util::Tick t) {
    if (const auto due = repairs_.find(t); due != repairs_.end()) {
      for (const auto& [s, count] : due->second) {
        block_.repair_servers(s, count);
      }
      repairs_.erase(due);
    }
    for (std::size_t s = 0; s < n_sites_; ++s) {
      avail_[s] = graph_.available_cores(s, t);
    }
  }

  /// Step 1b: pop the app calendar (end_tick, app_id order), detach each
  /// resident VM and retire the app's paused/displaced aggregates.
  [[gnu::noinline]] void departures(util::Tick t) {
    while (!app_departures_.empty() && app_departures_.top().first <= t) {
      const std::int32_t slot = app_departures_.top().second;
      app_departures_.pop();
      const auto u = static_cast<std::size_t>(slot);
      if (!live_bits_.test(u)) continue;  // defensive: apps depart once
      live_bits_.clear(u);
      const auto detach = [&](std::int64_t id) {
        const std::int32_t at = vm_recs_[static_cast<std::size_t>(id)].site;
        if (at >= 0) remove_vm_at(id, static_cast<std::size_t>(at));
      };
      const std::int64_t stable_hi = app_stable_base_[u] + app_stable_n_[u];
      for (std::int64_t id = app_stable_base_[u]; id < stable_hi; ++id) {
        detach(id);
      }
      for (const std::int64_t id : app_degr_ids_[u]) detach(id);

      fleet_degradable_ids_ -=
          static_cast<std::int64_t>(app_degr_ids_[u].size());
      fleet_paused_ -= app_paused_[u];
      if (app_paused_[u] > 0) {
        paused_core_counts_[static_cast<std::size_t>(app_cores_[u])] -=
            app_paused_[u];
        app_paused_[u] = 0;
      }
      if (app_displaced_[u] > 0) {
        const int cores = app_cores_[u];
        displaced_core_counts_[static_cast<std::size_t>(cores)] -=
            app_displaced_[u];
        displaced_entries_ -= app_displaced_[u];
        displaced_cores_total_ -=
            static_cast<std::int64_t>(app_displaced_[u]) * cores;
        app_displaced_[u] = 0;
        displaced_bits_.clear(u);
      }
      paused_bits_.clear(u);
      moves_.drop(slot_app_id_[u]);
      // Release, not clear: a year-long run retires millions of apps and
      // their id lists must not linger at peak capacity.
      app_stable_n_[u] = 0;
      std::vector<std::int64_t>().swap(app_degr_ids_[u]);
    }
  }

  /// Step 2: at the scheduler's cadence, mirror the live apps into
  /// FleetState (slot == app_id order) and adopt the replan.
  [[gnu::noinline]] void replan(util::Tick t) {
    if (!scheduler_.replans_at(t)) return;
    state_.apps.clear();
    live_bits_.for_each([&](std::size_t u) {
      LiveApp summary;
      summary.app = apps_[static_cast<std::size_t>(app_index_[u])];
      summary.end_tick = app_end_[u];
      summary.site = static_cast<std::size_t>(app_home_[u]);
      const AllowedList list =
          allowed_lists_[static_cast<std::size_t>(app_allowed_[u])];
      summary.allowed.assign(list.begin(), list.end());
      summary.active_degradable = static_cast<int>(app_degr_ids_[u].size());
      state_.apps.emplace_hint(state_.apps.end(), slot_app_id_[u],
                               std::move(summary));
    });
    moves_.supersede(scheduler_.replan(state_));
  }

  /// Step 3: arrivals, in order: every placement consults the scheduler
  /// and changes the capacity the next one sees.
  [[gnu::noinline]] void arrivals(util::Tick t) {
    while (next_app_ < apps_.size() && apps_[next_app_].arrival <= t) {
      const workload::Application& app = apps_[next_app_];
      const Scheduler::Placement placement = scheduler_.place(app, state_);
      const std::int32_t slot = slot_of_.at(app.app_id);
      const auto u = static_cast<std::size_t>(slot);
      app_end_[u] = app.lifetime_ticks < 0 ? -1 : t + app.lifetime_ticks;
      app_home_[u] = static_cast<std::int32_t>(placement.site);
      app_allowed_[u] = intern_allowed(placement.allowed);
      app_stable_base_[u] = next_vm_id_;
      app_stable_n_[u] = app.n_stable;
      app_degr_ids_[u].reserve(static_cast<std::size_t>(app.n_degradable));
      for (int v = 0; v < app.n_stable + app.n_degradable; ++v) {
        const bool degradable = v >= app.n_stable;
        const std::int64_t vm_id = register_vm(slot, degradable);
        if (place_vm(vm_id, slot, degradable, placement.site)) {
          if (degradable) app_degr_ids_[u].push_back(vm_id);
        } else if (!degradable) {
          ++result_.fragmentation_failures;
          displace(vm_id, slot, static_cast<std::int32_t>(placement.site));
        } else {
          pause_degradable(slot);
        }
      }
      moves_.schedule(app.app_id, placement.scheduled_moves);
      fleet_degradable_ids_ +=
          static_cast<std::int64_t>(app_degr_ids_[u].size());
      if (app_end_[u] >= 0) app_departures_.emplace(app_end_[u], slot);
      ++result_.base.apps_placed;
      live_bits_.set(u);
      ++next_app_;
    }
  }

  /// Step 4: proactive moves and retries due now, in order (same-tick
  /// moves interact through capacity), then server failures beginning now.
  [[gnu::noinline]] void moves_and_outages(util::Tick t) {
    moves_.execute_due(
        t, result_.base,
        [&](std::int64_t app_id) -> std::optional<std::size_t> {
          const auto it = slot_of_.find(app_id);
          if (it == slot_of_.end() ||
              !live_bits_.test(static_cast<std::size_t>(it->second))) {
            return std::nullopt;
          }
          return static_cast<std::size_t>(
              app_home_[static_cast<std::size_t>(it->second)]);
        },
        [&](std::int64_t app_id, const Move& move) {
          move_app(t, slot_of_.at(app_id), move);
        });
    if (hooks_ == nullptr) return;
    for (const ServerOutage& outage : hooks_->server_outages_at(t)) {
      if (outage.site >= n_sites_ || outage.count <= 0) continue;
      evicted_.clear();
      block_.fail_servers(outage.site, outage.count, evicted_);
      absorb_evicted(outage.site);
      if (outage.repair_tick > t) {
        repairs_[outage.repair_tick].emplace_back(outage.site, outage.count);
      }
    }
  }

  /// Step 5: shrink each site to its power budget and absorb its
  /// evictions. Returns the largest headroom left.
  [[gnu::noinline]] int shrink_and_absorb() {
    int max_headroom = std::numeric_limits<int>::min();
    for (std::size_t s = 0; s < n_sites_; ++s) {
      evicted_.clear();
      block_.shrink_to(s, avail_[s], evicted_);
      max_headroom =
          std::max(max_headroom, avail_[s] - block_.allocated_cores(s));
      absorb_evicted(s);
    }
    return max_headroom;
  }

  /// Step 6: one rotation of the displaced queue (the oracle's pass).
  /// Step 5's `max_headroom` is still exact, so it proves in O(1) when
  /// nothing fits. Returns the stable cores left displaced.
  [[gnu::noinline]] std::int64_t rehome(util::Tick t, int max_headroom) {
    if (displaced_entries_ == 0 ||
        max_headroom < smallest(displaced_core_counts_)) {
      result_.base.displaced_stable_core_ticks += displaced_cores_total_;
      displaced_bits_.for_each([&](std::size_t u) {
        result_.base.displaced_by_app[slot_app_id_[u]] +=
            static_cast<std::int64_t>(app_displaced_[u]) * app_cores_[u];
      });
      return displaced_cores_total_;
    }
    std::int64_t displaced_this_tick = 0;
    for (std::size_t d = displaced_.size(); d-- > 0;) {
      const auto [vm_id, source] = displaced_.front();
      displaced_.pop_front();
      const std::int32_t slot = vm_recs_[static_cast<std::size_t>(vm_id)].slot;
      const auto u = static_cast<std::size_t>(slot);
      if (!live_bits_.test(u)) continue;  // tombstone: aggregates retired
      const int cores = app_cores_[u];
      bool placed = false;
      for (const std::int32_t c :
           allowed_lists_[static_cast<std::size_t>(app_allowed_[u])]) {
        const auto cand = static_cast<std::size_t>(c);
        if (headroom(cand) < cores) continue;
        if (place_vm(vm_id, slot, false, cand)) {
          if (cand != static_cast<std::size_t>(source)) {
            record_move(t, static_cast<std::size_t>(source), cand,
                        app_mem_[u]);
            ++result_.base.forced_migrations;
          }
          --displaced_core_counts_[static_cast<std::size_t>(cores)];
          --displaced_entries_;
          if (--app_displaced_[u] == 0) displaced_bits_.clear(u);
          displaced_cores_total_ -= cores;
          placed = true;
          break;
        }
      }
      if (!placed) {
        result_.base.displaced_stable_core_ticks += cores;
        result_.base.displaced_by_app[slot_app_id_[u]] += cores;
        displaced_this_tick += cores;
        displaced_.emplace_back(vm_id, source);
      }
    }
    return displaced_this_tick;
  }

  /// Step 7: resume paused degradable VMs at their app's home. The scan
  /// re-checks live headroom: step 6 may have used what step 5 reported.
  [[gnu::noinline]] void resume() {
    bool any_can_resume = false;
    if (fleet_paused_ > 0) {
      const int min_cores = smallest(paused_core_counts_);
      for (std::size_t s = 0; s < n_sites_ && !any_can_resume; ++s) {
        any_can_resume = headroom(s) >= min_cores;
      }
    }
    if (any_can_resume) {
      paused_bits_.for_each([&](std::size_t u) {
        const auto slot = static_cast<std::int32_t>(u);
        const auto home = static_cast<std::size_t>(app_home_[u]);
        while (app_paused_[u] > 0) {
          if (headroom(home) < app_cores_[u]) break;
          const std::int64_t vm_id = register_vm(slot, true);
          if (!place_vm(vm_id, slot, true, home)) break;  // fragmentation
          app_degr_ids_[u].push_back(vm_id);
          ++fleet_degradable_ids_;
          --app_paused_[u];
          --fleet_paused_;
          --paused_core_counts_[static_cast<std::size_t>(app_cores_[u])];
        }
        if (app_paused_[u] == 0) paused_bits_.clear(u);
      });
    }
    result_.base.paused_degradable_vm_ticks += fleet_paused_;
    result_.base.degradable_active_vm_ticks += fleet_degradable_ids_;
  }

  /// Step 7b: the batch overlay, at the oracle's step point.
  [[gnu::noinline]] void overlay(util::Tick t) {
    if (has_overlay_) step_overlay(overlay_, t, avail_, state_, overlay_free_);
  }

  /// Step 9: the fault epilogue.
  [[gnu::noinline]] void end_tick(util::Tick t, std::int64_t displaced) {
    end_fault_tick(hooks_, t, avail_, state_, displaced, result_.base);
  }

  /// Meter the last completed tick (not the axis's last on a shutdown
  /// request) and close the run.
  VmLevelResult finish() {
    if (result_.base.completed_ticks > 0) {
      meter(static_cast<std::size_t>(result_.base.completed_ticks - 1));
    }
    if (has_overlay_) {
      overlay_.finalize();
      result_.base.batch = overlay_.stats();
    }
    result_.base.fallback_activations = scheduler_.fallback_count();
    return std::move(result_);
  }

 private:
  /// An interned allowed-site list (see intern_allowed).
  using AllowedList = std::span<const std::int32_t>;

  /// Per-VM record, indexed by the sequential vm_id. -1 site = not resident
  /// (displaced, paused, or departed). Every hot VM operation reads all
  /// four fields, so one 16-byte record beats four columns.
  struct VmRec {
    std::int32_t site = -1;
    std::int32_t server = -1;
    std::int32_t slot = 0;
    std::uint8_t degr = 0;
  };

  /// Allowed-site lists, deduplicated by content into arena-backed spans:
  /// schedulers hand every app anchored at a site the same list.
  std::int32_t intern_allowed(const std::vector<std::size_t>& sites) {
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a
    for (const std::size_t s : sites) {
      hash ^= static_cast<std::uint64_t>(s);
      hash *= 1099511628211ull;
    }
    std::vector<std::int32_t>& candidates = allowed_index_[hash];
    for (const std::int32_t id : candidates) {
      const AllowedList list = allowed_lists_[static_cast<std::size_t>(id)];
      if (std::equal(list.begin(), list.end(), sites.begin(), sites.end(),
                     [](std::int32_t a, std::size_t b) {
                       return a == static_cast<std::int32_t>(b);
                     })) {
        return id;
      }
    }
    std::int32_t* data = allowed_arena_.allocate<std::int32_t>(sites.size());
    for (std::size_t j = 0; j < sites.size(); ++j) {
      data[j] = static_cast<std::int32_t>(sites[j]);
    }
    const auto id = static_cast<std::int32_t>(allowed_lists_.size());
    allowed_lists_.emplace_back(data, sites.size());
    candidates.push_back(id);
    return id;
  }

  std::int64_t register_vm(std::int32_t slot, bool degradable) {
    vm_recs_.push_back(
        VmRec{-1, -1, slot, static_cast<std::uint8_t>(degradable ? 1 : 0)});
    return next_vm_id_++;
  }

  /// Queue stable VM `vm_id` (of `slot`, last at site `source`) for step 6.
  void displace(std::int64_t vm_id, std::int32_t slot, std::int32_t source) {
    const auto u = static_cast<std::size_t>(slot);
    displaced_.emplace_back(vm_id, source);
    ++displaced_core_counts_[static_cast<std::size_t>(app_cores_[u])];
    ++displaced_entries_;
    if (app_displaced_[u]++ == 0) displaced_bits_.set(u);
    displaced_cores_total_ += app_cores_[u];
  }

  void pause_degradable(std::int32_t slot) {
    ++app_paused_[static_cast<std::size_t>(slot)];
    ++fleet_paused_;
    ++paused_core_counts_[static_cast<std::size_t>(
        app_cores_[static_cast<std::size_t>(slot)])];
    paused_bits_.set(static_cast<std::size_t>(slot));
  }

  /// Free cores at site `s` this tick. The state columns mirror the block
  /// exactly, and are cheaper to read than its site header.
  int headroom(std::size_t s) const {
    return avail_[s] - state_.stable_cores[s] - state_.degradable_cores[s];
  }

  /// The smallest core count with a nonzero entry in `counts`.
  static int smallest(const std::vector<std::int64_t>& counts) {
    int cores = 0;
    while (counts[static_cast<std::size_t>(cores)] == 0) ++cores;
    return cores;
  }

  bool place_vm(std::int64_t vm_id, std::int32_t slot, bool degradable,
                std::size_t s) {
    const int cores = app_cores_[static_cast<std::size_t>(slot)];
    const double mem = app_mem_[static_cast<std::size_t>(slot)];
    const int server =
        block_.place(s, vm_id, cores, mem, degradable, config_.placement);
    if (server < 0) return false;
    (degradable ? state_.degradable_cores : state_.stable_cores)[s] += cores;
    VmRec& rec = vm_recs_[static_cast<std::size_t>(vm_id)];
    rec.site = static_cast<std::int32_t>(s);
    rec.server = server;
    return true;
  }

  /// Detach a VM known to be resident at site `s`.
  void remove_vm_at(std::int64_t vm_id, std::size_t s) {
    VmRec& rec = vm_recs_[static_cast<std::size_t>(vm_id)];
    const auto slot = static_cast<std::size_t>(rec.slot);
    const bool degradable = rec.degr != 0;
    block_.remove(s, rec.server, vm_id, app_cores_[slot], app_mem_[slot],
                  degradable);
    (degradable ? state_.degradable_cores : state_.stable_cores)[s] -=
        app_cores_[slot];
    rec.site = -1;
    rec.server = -1;
  }

  /// Charge one VM's stable memory to the WAN ledger as a cross-site move.
  void record_move(util::Tick t, std::size_t from, std::size_t to,
                   double gb) {
    result_.base.ledger.record_out(from, t, gb);
    result_.base.ledger.record_in(to, t, gb);
    result_.base.moved_gb[static_cast<std::size_t>(t)] += gb;
    ++result_.vm_migrations;
  }

  /// Fold `evicted_` (a power shrink or server failure at site `s`) into
  /// the displaced/paused machinery, in order.
  void absorb_evicted(std::size_t s) {
    for (const dcsim::SiteBlock::Evicted& vm : evicted_) {
      VmRec& rec = vm_recs_[static_cast<std::size_t>(vm.vm_id)];
      rec.site = -1;
      rec.server = -1;
      const std::int32_t slot = rec.slot;
      if (!vm.degradable) {
        state_.stable_cores[s] -= vm.cores;
        displace(vm.vm_id, slot, static_cast<std::int32_t>(s));
      } else {
        state_.degradable_cores[s] -= vm.cores;
        if (live_bits_.test(static_cast<std::size_t>(slot))) {
          std::vector<std::int64_t>& ids =
              app_degr_ids_[static_cast<std::size_t>(slot)];
          if (const auto it = std::find(ids.begin(), ids.end(), vm.vm_id);
              it != ids.end()) {
            ids.erase(it);
            --fleet_degradable_ids_;
          }
          pause_degradable(slot);
        }
      }
    }
  }

  /// One proactive move of the app in `slot`: its VMs resident at the old
  /// home move, as in the oracle. Stable VMs that do not fit are displaced;
  /// degradable ones respawn (no WAN traffic) or pause.
  void move_app(util::Tick t, std::int32_t slot, const Move& move) {
    const auto u = static_cast<std::size_t>(slot);
    const auto from = static_cast<std::int32_t>(app_home_[u]);
    app_home_[u] = static_cast<std::int32_t>(move.to_site);
    bool moved_any = false;
    const std::int64_t stable_hi = app_stable_base_[u] + app_stable_n_[u];
    for (std::int64_t id = app_stable_base_[u]; id < stable_hi; ++id) {
      if (vm_recs_[static_cast<std::size_t>(id)].site != from) continue;
      remove_vm_at(id, static_cast<std::size_t>(from));
      if (place_vm(id, slot, false, move.to_site)) {
        record_move(t, static_cast<std::size_t>(from), move.to_site,
                    app_mem_[u]);
        moved_any = true;
      } else {
        ++result_.fragmentation_failures;
        displace(id, slot, from);
      }
    }
    std::vector<std::int64_t> kept_degradable;
    kept_degradable.reserve(app_degr_ids_[u].size());
    for (const std::int64_t id : app_degr_ids_[u]) {
      if (vm_recs_[static_cast<std::size_t>(id)].site != from) {
        kept_degradable.push_back(id);
        continue;
      }
      remove_vm_at(id, static_cast<std::size_t>(from));
      if (place_vm(id, slot, true, move.to_site)) {
        kept_degradable.push_back(id);
      } else {
        pause_degradable(slot);
      }
    }
    fleet_degradable_ids_ -= static_cast<std::int64_t>(
        app_degr_ids_[u].size() - kept_degradable.size());
    app_degr_ids_[u] = std::move(kept_degradable);
    if (moved_any) ++result_.base.planned_migrations;
  }

  const VbGraph& graph_;
  const std::vector<workload::Application>& apps_;
  Scheduler& scheduler_;
  const VmLevelConfig& config_;
  const std::size_t n_sites_;
  VmLevelResult result_;

  /// One SiteBlock spans the fleet; block site s is graph site s.
  dcsim::SiteBlock block_;
  FleetState state_;
  std::vector<int> avail_;  // this tick's power budget per site
  std::vector<dcsim::SiteBlock::Evicted> evicted_;  // eviction scratch

  // App slots and per-app columns, indexed by slot.
  std::vector<std::int64_t> slot_app_id_;
  std::unordered_map<std::int64_t, std::int32_t> slot_of_;
  std::vector<std::int32_t> app_index_;  // slot -> index in apps_
  std::vector<std::int32_t> app_cores_;
  std::vector<double> app_mem_;
  std::vector<util::Tick> app_end_;
  std::vector<std::int32_t> app_home_;
  std::vector<std::int32_t> app_allowed_;  // interned list id
  // Stable VM ids are handed out consecutively at arrival and never added
  // afterwards, so each app's stable list is the dense range
  // [stable_base, stable_base + stable_n) — no per-app vector needed.
  // Degradable lists mutate (evictions, respawns) and stay as vectors.
  std::vector<std::int64_t> app_stable_base_;
  std::vector<std::int32_t> app_stable_n_;
  std::vector<std::vector<std::int64_t>> app_degr_ids_;
  std::vector<std::int32_t> app_paused_;
  std::vector<std::int32_t> app_displaced_;
  SlotBits live_bits_, paused_bits_, displaced_bits_;

  util::Arena allowed_arena_;
  std::vector<AllowedList> allowed_lists_;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> allowed_index_;

  std::vector<VmRec> vm_recs_;
  std::int64_t next_vm_id_ = 0;

  FaultHooks* const hooks_;
  std::uint64_t topo_epoch_;
  MoveBook moves_;
  std::map<util::Tick, std::vector<std::pair<std::size_t, int>>> repairs_;

  // Fleet-wide degradable counters (per-tick paused/active stats in O(1)).
  std::int64_t fleet_degradable_ids_ = 0;
  std::int64_t fleet_paused_ = 0;

  // Displaced / paused machinery. The queue holds (vm_id, source); shape
  // and ownership come from the VM/app columns. Per-core-count aggregates
  // are flat arrays indexed by core count, with explicit entry counters
  // standing in for .empty().
  std::deque<std::pair<std::int64_t, std::int32_t>> displaced_;
  std::vector<std::int64_t> displaced_core_counts_;
  std::vector<std::int64_t> paused_core_counts_;
  std::int64_t displaced_entries_ = 0;
  std::int64_t displaced_cores_total_ = 0;

  // The departure heap is keyed (end_tick, slot); slot order == app_id
  // order, so pops come out in (end_tick, app_id) order.
  using AppDeparture = std::pair<util::Tick, std::int32_t>;
  std::priority_queue<AppDeparture, std::vector<AppDeparture>,
                      std::greater<AppDeparture>>
      app_departures_;
  std::size_t next_app_ = 0;

  EconMeter econ_;
  const bool has_overlay_;
  workload::BatchOverlay overlay_;
  std::vector<std::int64_t> overlay_free_;
};

}  // namespace

VmLevelResult run_fleet_simulation(
    const VbGraph& graph, const std::vector<workload::Application>& apps,
    Scheduler& scheduler, const VmLevelConfig& config,
    const FleetSimOptions& /*options: accepted and ignored*/) {
  FleetEngine engine{graph, apps, scheduler, config};
  for (std::size_t i = 0; i < graph.n_ticks(); ++i) {
    if (util::shutdown_requested()) break;
    const auto t = static_cast<util::Tick>(i);
    engine.begin_tick(t);
    if (i > 0) engine.meter(i - 1);  // no site has changed since it ended
    engine.repairs_and_budget(t);
    engine.departures(t);
    engine.replan(t);
    engine.arrivals(t);
    engine.moves_and_outages(t);
    const int max_headroom = engine.shrink_and_absorb();
    const std::int64_t displaced = engine.rehome(t, max_headroom);
    engine.resume();
    engine.overlay(t);
    engine.end_tick(t, displaced);
  }
  return engine.finish();
}

}  // namespace vbatt::core
