// VM-granular multi-site simulation (§3.1 step 4 integrated) at fleet
// scale.
//
// The app-level simulator (simulation.h) treats each VB node as a bag of
// cores — the right granularity for Table 1. This engine additionally
// models every node as a cluster of servers and places each VM through an
// allocation policy, so intra-site effects become visible:
//   * fragmentation: cores may be free but no server fits a VM;
//   * consolidation: best-fit packing leaves whole servers empty, and
//     empty servers draw no power (the paper's "power down unallocated
//     cores" taken to server granularity);
//   * per-VM eviction: a power dip evicts individual VMs round-robin over
//     servers rather than whole applications.
//
// At fleet scale (1000 sites, millions of VMs) per-VM heap objects and
// global sweeps would dominate, so the hot per-site state of the whole
// fleet lives in one SoA dcsim::SiteBlock, per-VM and per-app state in
// flat columns, and departures in a calendar queue. The engine is serial:
// run_fleet_simulation drives a FleetEngine (private to fleet_sim.cpp)
// with one member per step of the tick order in docs/SIMULATOR.md (meter,
// repairs and budget, departures, replan, arrivals, moves and outages,
// shrink and absorb, re-home, resume, overlay), walking sites in site
// order and apps in app_id order, so the result is field-for-field equal
// to the frozen linear-scan oracle testkit::reference_vm_run. The move
// book, fault and econ code are the tick parts it shares with the
// app-level SimStepper (tick_parts.h).
#pragma once

#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/dcsim/site_block.h"

namespace vbatt::util {
class ThreadPool;
}

namespace vbatt::core {

struct VmLevelConfig {
  dcsim::ServerSpec server{40, 512.0};
  SitePowerModel power{};
  /// Which allocation policy packs VMs onto servers.
  dcsim::BlockPolicy placement = dcsim::BlockPolicy::best_fit;
  /// Optional fault injection (hooks == nullptr keeps the no-fault path
  /// byte-identical) plus the move retry/backoff discipline.
  FaultConfig faults{};
  /// Opt-in scenario extensions (batch overlay, price/carbon series); null
  /// keeps the run byte-identical. The overlay is stepped after degradable
  /// resume, the same point the oracle steps it.
  const ScenarioExtensions* ext = nullptr;
};

struct VmLevelResult {
  SimResult base;
  /// Individual VM moves (the app-level sim counts app moves).
  std::int64_t vm_migrations = 0;
  /// Placements that failed on fragmentation despite aggregate headroom.
  std::int64_t fragmentation_failures = 0;
  /// Tick-summed count of powered servers across the fleet (for energy /
  /// consolidation comparisons).
  std::int64_t powered_server_ticks = 0;

  VmLevelResult(std::size_t n_sites, std::size_t n_ticks)
      : base{n_sites, n_ticks} {}
};

/// Accepted and ignored: the engine is serial and has no knobs. The
/// frozen end-to-end benchmark still sets both fields; delete the struct
/// and run_fleet_simulation's 5th parameter with the next benchmark change.
struct FleetSimOptions {
  int n_shards = 0;
  util::ThreadPool* pool = nullptr;
};

/// Run `apps` against `graph` at VM granularity under `scheduler` (the
/// same Scheduler implementations the app-level simulator uses). Throws
/// std::invalid_argument on duplicate app ids.
VmLevelResult run_fleet_simulation(
    const VbGraph& graph, const std::vector<workload::Application>& apps,
    Scheduler& scheduler, const VmLevelConfig& config = {},
    const FleetSimOptions& options = {});

}  // namespace vbatt::core
