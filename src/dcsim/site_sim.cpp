#include "vbatt/dcsim/site_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace vbatt::dcsim {

namespace {

/// A VM waiting for power (rejected at arrival or evicted): relaunching it
/// counts as in-migration.
struct PendingVm {
  VmInstance vm;
  util::Tick lifetime_ticks = 0;  // remaining run time once (re)launched
  util::Tick queued_at = 0;
};

/// The site's servers — a one-site SiteBlock packed best-fit — plus what
/// the block does not keep: the resident VM table and a departure calendar.
class Cluster {
 public:
  explicit Cluster(const SiteConfig& config) : block_{{config}} {}

  int allocated_cores() const { return block_.allocated_cores(0); }
  int powered_servers() const { return block_.powered_servers(0); }
  int active_cores() const { return block_.active_cores(0); }

  /// Best-fit placement; false when no server fits (admission is the
  /// caller's check).
  bool place(VmInstance vm) {
    if (vms_.contains(vm.vm_id)) {
      throw std::invalid_argument{"simulate_site: duplicate vm_id"};
    }
    vm.server = block_.place(0, vm.vm_id, vm.shape.cores, vm.shape.memory_gb,
                             degradable(vm), BlockPolicy::best_fit);
    if (vm.server < 0) return false;
    if (vm.end_tick >= 0) departures_.emplace(vm.end_tick, vm.vm_id);
    vms_.emplace(vm.vm_id, vm);
    return true;
  }

  /// Remove every VM whose end_tick <= t, in (end_tick, vm_id) order.
  /// Calendar entries are lazily invalidated: one whose VM left earlier
  /// (evicted) or was relaunched with a different end_tick is skipped.
  void depart(util::Tick t) {
    while (!departures_.empty() && departures_.top().first <= t) {
      const auto [end_tick, vm_id] = departures_.top();
      departures_.pop();
      const auto it = vms_.find(vm_id);
      if (it == vms_.end() || it->second.end_tick != end_tick) continue;
      const VmInstance& vm = it->second;
      block_.remove(0, vm.server, vm.vm_id, vm.shape.cores,
                    vm.shape.memory_gb, degradable(vm));
      vms_.erase(it);
    }
  }

  /// Evict round-robin until allocated cores <= available; returns the
  /// victims in eviction order.
  std::vector<VmInstance> shrink_to(int available) {
    std::vector<SiteBlock::Evicted> evicted;
    block_.shrink_to(0, available, evicted);
    std::vector<VmInstance> victims;
    victims.reserve(evicted.size());
    for (const SiteBlock::Evicted& e : evicted) {
      const auto it = vms_.find(e.vm_id);
      victims.push_back(it->second);
      vms_.erase(it);
    }
    return victims;
  }

 private:
  static bool degradable(const VmInstance& vm) {
    return vm.vm_class == workload::VmClass::degradable;
  }

  SiteBlock block_;
  std::unordered_map<std::int64_t, VmInstance> vms_;
  using Departure = std::pair<util::Tick, std::int64_t>;
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departures_;
};

}  // namespace

SiteSimResult simulate_site(const energy::PowerTrace& power,
                            const std::vector<workload::VmRequest>& vms,
                            const SiteSimConfig& config) {
  const std::size_t n_ticks = power.size();
  if (n_ticks == 0) throw std::invalid_argument{"simulate_site: empty trace"};
  if (config.utilization_cap <= 0.0 || config.utilization_cap > 1.0) {
    throw std::invalid_argument{
        "simulate_site: utilization_cap out of (0, 1]"};
  }

  Cluster site{config.site};
  const int total_cores = config.site.n_servers * config.site.server.cores;
  // Admission control: allocated cores stay within the cap's share of the
  // powered capacity.
  const auto admits = [&](const workload::VmShape& shape, int available) {
    const int after = site.allocated_cores() + shape.cores;
    return static_cast<double>(after) <=
           config.utilization_cap *
               static_cast<double>(std::min(available, total_cores));
  };

  SiteSimResult result;
  result.out_gb.assign(n_ticks, 0.0);
  result.in_gb.assign(n_ticks, 0.0);
  result.available_cores.assign(n_ticks, 0);
  result.allocated_cores.assign(n_ticks, 0);

  // Opt-in batch overlay on the cores the service VMs leave free.
  const bool has_overlay = config.batch != nullptr && !config.batch->empty();
  workload::BatchOverlay overlay = has_overlay
                                       ? workload::BatchOverlay{*config.batch}
                                       : workload::BatchOverlay{};
  std::vector<std::int64_t> overlay_free(1, 0);

  std::deque<PendingVm> pending;
  std::size_t next_vm = 0;
  int prev_available = total_cores;
  const util::Tick retry_ticks =
      power.axis().from_hours(config.pending_retry_window_hours);

  for (std::size_t i = 0; i < n_ticks; ++i) {
    const auto t = static_cast<util::Tick>(i);
    // The farm at full output powers the full cluster (paper's scaling).
    const int available = static_cast<int>(
        std::floor(power.normalized(t) * total_cores));
    result.available_cores[i] = available;
    if (i > 0 && available != prev_available) ++result.power_change_ticks;

    // 1. Departures free resources.
    site.depart(t);

    // 2. Power shrink: idle cores absorb the dip for free; evict past that.
    if (site.allocated_cores() > available) {
      const std::vector<VmInstance> evicted = site.shrink_to(available);
      if (!evicted.empty() && i > 0 && available != prev_available) {
        ++result.migration_ticks;
      }
      for (const VmInstance& vm : evicted) {
        result.out_gb[i] += vm.shape.memory_gb;
        ++result.vms_evicted;
        if (config.relaunch_evicted && (vm.end_tick < 0 || vm.end_tick > t)) {
          const util::Tick remaining =
              vm.end_tick < 0 ? -1 : vm.end_tick - t;
          pending.push_back(PendingVm{vm, remaining, t});
        }
      }
    }

    // 3. Arrivals.
    while (next_vm < vms.size() && vms[next_vm].arrival <= t) {
      const workload::VmRequest& req = vms[next_vm];
      VmInstance vm;
      vm.vm_id = req.vm_id;
      vm.app_id = req.app_id;
      vm.shape = req.shape;
      vm.vm_class = req.vm_class;
      vm.end_tick = req.lifetime_ticks < 0 ? -1 : t + req.lifetime_ticks;
      if (admits(vm.shape, available) && site.place(vm)) {
        // Admitted fresh arrivals are not migration traffic.
      } else {
        ++result.vms_rejected;
        pending.push_back(PendingVm{
            vm, req.lifetime_ticks < 0 ? -1 : req.lifetime_ticks, t});
      }
      ++next_vm;
    }

    // 4. Power growth: relaunch pending VMs ("migrated into the site").
    std::size_t scan = pending.size();
    while (scan-- > 0 && !pending.empty()) {
      PendingVm entry = pending.front();
      pending.pop_front();
      // A request does not wait longer than its own lifetime or the retry
      // window; it would have been served elsewhere.
      const util::Tick waited = t - entry.queued_at;
      if ((entry.lifetime_ticks >= 0 && waited > entry.lifetime_ticks) ||
          waited > retry_ticks) {
        continue;
      }
      if (!admits(entry.vm.shape, available)) {
        pending.push_back(entry);
        continue;
      }
      VmInstance vm = entry.vm;
      vm.end_tick =
          entry.lifetime_ticks < 0 ? -1 : t + entry.lifetime_ticks;
      if (site.place(vm)) {
        result.in_gb[i] += vm.shape.memory_gb;
        ++result.vms_relaunched;
      } else {
        pending.push_back(entry);
      }
    }

    result.allocated_cores[i] = site.allocated_cores();
    prev_available = available;

    if (has_overlay) {
      const std::int64_t free = available - site.allocated_cores();
      overlay_free[0] = free > 0 ? free : 0;
      overlay.step(t, overlay_free);
    }

    // Energy: powered servers (those hosting VMs) draw idle + active-core
    // power for this tick. Both counts are maintained incrementally by the
    // block, so this is O(1) instead of a server sweep.
    const int powered = site.powered_servers();
    const int active_cores = site.active_cores();
    result.powered_server_ticks += powered;
    const double hours_per_tick = power.axis().minutes_per_tick() / 60.0;
    result.energy_mwh += (powered * config.server_idle_watts +
                          active_cores * config.watts_per_active_core) *
                         hours_per_tick / 1e6;
  }
  if (has_overlay) {
    overlay.finalize();
    result.batch = overlay.stats();
  }
  return result;
}

}  // namespace vbatt::dcsim
