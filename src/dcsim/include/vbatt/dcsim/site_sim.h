// Single-site trace-driven simulation (§3, Figure 4).
//
// Replays a VM arrival trace against one VB site powered by a renewable
// trace scaled so that full farm output powers the whole cluster. Power
// drops first power down unallocated cores; if allocation still exceeds
// the budget, VMs are evicted server-by-server round-robin and their
// memory footprint is charged as outbound migration traffic. Rejected or
// evicted VMs are relaunched when power returns, charged as inbound
// traffic (the paper's accounting). Servers are a one-site SiteBlock
// packed best-fit (Protean-style consolidation, which is what produces
// the paper's ">80% of power changes cause no migration"); the simulator
// keeps its own VM table and departure calendar next to the block.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/energy/trace.h"
#include "vbatt/net/ledger.h"
#include "vbatt/dcsim/site_block.h"
#include "vbatt/util/time.h"
#include "vbatt/workload/batch.h"
#include "vbatt/workload/vm.h"

namespace vbatt::dcsim {

/// A VM resident on (or pending for) a site.
struct VmInstance {
  std::int64_t vm_id = 0;
  std::int64_t app_id = -1;
  workload::VmShape shape{};
  workload::VmClass vm_class = workload::VmClass::stable;
  /// Tick at which the VM departs (exclusive); <0 = runs forever.
  util::Tick end_tick = -1;
  /// Server currently hosting the VM (meaningful for placed VMs only).
  int server = -1;
};

struct SiteSimConfig {
  SiteConfig site{};
  /// Admission control rejects VMs that would push allocated cores above
  /// this fraction of the *currently powered* capacity (the paper's 70%);
  /// must lie in (0, 1]. The 30% headroom is exactly what lets minor power
  /// dips be absorbed by powering down unallocated cores (Fig. 4a: >80% of
  /// power changes cause no migration).
  double utilization_cap = 0.70;
  /// If true (Fig. 4 accounting), evicted VMs re-enter the pending queue
  /// and are relaunched ("migrated in") when power returns.
  bool relaunch_evicted = true;
  /// How long a rejected/evicted VM waits for power before being served
  /// elsewhere. Bounded: a request never outwaits its own lifetime either.
  /// This is what keeps dawn relaunch floods small relative to dusk
  /// eviction cliffs (Fig. 4b: in-spikes ≈7x smaller than out at the 99th).
  double pending_retry_window_hours = 3.0;
  /// Server power model: a server hosting at least one VM draws idle
  /// power plus per-active-core power; empty servers are off (the paper's
  /// "power down unallocated cores", at server granularity).
  double server_idle_watts = 150.0;
  double watts_per_active_core = 8.0;
  /// Opt-in batch overlay (deadline jobs + suspendable harvest tasks),
  /// gang-scheduled each tick onto `available - allocated` cores. Site
  /// indices in the workload must all be 0 (one site). Null keeps the run
  /// byte-identical.
  const workload::BatchWorkload* batch = nullptr;
};

struct SiteSimResult {
  /// Per-tick outbound / inbound migration traffic, GB.
  std::vector<double> out_gb;
  std::vector<double> in_gb;
  /// Per-tick available cores (after the power cap) and allocated cores.
  std::vector<int> available_cores;
  std::vector<int> allocated_cores;

  std::int64_t power_change_ticks = 0;   // ticks where the core budget moved
  std::int64_t migration_ticks = 0;      // power-change ticks with evictions
  std::int64_t vms_rejected = 0;         // admission-control rejections
  std::int64_t vms_evicted = 0;
  std::int64_t vms_relaunched = 0;
  /// Compute energy drawn over the run, MWh, and its powered-server basis
  /// (allocation-policy consolidation shows up here).
  double energy_mwh = 0.0;
  std::int64_t powered_server_ticks = 0;
  /// Batch overlay counters; all zero unless SiteSimConfig::batch is set.
  workload::BatchStats batch;

  /// Fraction of power changes that caused no migration (paper: >80%).
  double no_migration_fraction() const noexcept {
    return power_change_ticks == 0
               ? 1.0
               : 1.0 - static_cast<double>(migration_ticks) /
                           static_cast<double>(power_change_ticks);
  }
};

/// Run the simulation: `power` supplies one normalized sample per tick and
/// `vms` must be sorted by arrival tick (as the generator emits them).
/// Throws std::invalid_argument on an empty trace, a non-positive site
/// capacity, a utilization cap outside (0, 1], or a VM placed while
/// another VM with its vm_id is resident.
SiteSimResult simulate_site(const energy::PowerTrace& power,
                            const std::vector<workload::VmRequest>& vms,
                            const SiteSimConfig& config);

}  // namespace vbatt::dcsim
