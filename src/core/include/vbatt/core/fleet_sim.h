// VM-granular multi-site simulation (§3.1 step 4 integrated), sharded for
// fleet scale.
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
// global sweeps would dominate, so the fleet is split into contiguous site
// ranges, each owning its sites' hot state as one SoA dcsim::SiteBlock,
// and each tick alternates between
//
//   * parallel shard phases — work that only touches one site and
//     commutes across sites (energy metering, server repairs, power-budget
//     fill, departure removals, power shrinks), fanned over the
//     ThreadPool with every shard writing only its own slices; and
//   * serial coordinator phases — every decision whose outcome depends on
//     cross-site order (scheduler calls, proactive moves, displaced
//     re-home, resume, and all floating-point reductions), executed in
//     global site / app_id order.
//
// Cross-shard effects (inter-site migrations, displacements) are emitted
// as per-shard logs during parallel phases and merged by the coordinator
// in global site order at the epoch barrier between phases, so the result
// is bit-identical for every VBATT_THREADS and shard-count setting, and
// field-for-field equal to the frozen linear-scan oracle
// testkit::reference_vm_run. The determinism contract and the phase
// schedule are documented in docs/SIMULATOR.md.
#pragma once

#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/dcsim/site_block.h"
#include "vbatt/util/thread_pool.h"

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
  /// keeps the run byte-identical. The overlay is stepped at a serial
  /// point after degradable resume, so its trajectory is the same at any
  /// shard or thread count.
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

struct FleetSimOptions {
  /// Number of shards (contiguous site ranges). 0 = one shard per pool
  /// lane (pool size + 1; 1 when pool is null), clamped to [1, n_sites].
  /// The shard count never changes the result, only the partitioning.
  int n_shards = 0;
  /// Pool for the parallel shard phases; nullptr runs them inline.
  util::ThreadPool* pool = nullptr;
};

/// Run `apps` against `graph` at VM granularity under `scheduler` (the
/// same Scheduler implementations the app-level simulator uses). The
/// result is the same, field-for-field and bit-for-bit, for every
/// `options` setting. Throws std::invalid_argument on duplicate app ids.
VmLevelResult run_fleet_simulation(
    const VbGraph& graph, const std::vector<workload::Application>& apps,
    Scheduler& scheduler, const VmLevelConfig& config = {},
    const FleetSimOptions& options = {});

}  // namespace vbatt::core
