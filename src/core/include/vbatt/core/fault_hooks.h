// Fault-injection seam between the simulators and vbatt::fault.
//
// The simulators never depend on the fault library; they only talk to this
// abstract interface. When no hooks are installed (the default), every
// fault branch in the simulators is skipped and the output is byte-for-byte
// identical to a build that has never heard of faults. fault::StreamInjector
// is the one production implementation: it additionally *bakes* power
// faults (blackout, brownout, forecast error) into a private copy of the
// VbGraph, so the hot paths keep reading plain arrays — no virtual call per
// core lookup, only a handful per tick — and checks the end-of-tick
// invariants on every hooked tick. The only other implementation is
// StreamInjector's frozen oracle in testkit (ref_fault_injector.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vbatt/util/time.h"

namespace vbatt::core {

/// A batch of servers at one site going offline this tick; they return at
/// `repair_tick` (exclusive — repaired at the top of that tick).
struct ServerOutage {
  std::size_t site = 0;
  int count = 0;
  util::Tick repair_tick = 0;
};

/// End-of-tick observation handed to the hooks (drives invariant checking
/// and per-tick fault accounting). Pointers refer to simulator-owned
/// per-site arrays, valid only for the duration of the call.
struct TickSnapshot {
  util::Tick t = 0;
  /// Per-site available cores after faults (what the sim enforced against).
  const std::vector<int>* available = nullptr;
  /// Per-site resident stable cores after enforcement.
  const std::vector<int>* stable_cores = nullptr;
  /// Per-site currently active degradable cores.
  const std::vector<int>* degradable_cores = nullptr;
  /// Stable cores with no powered home this tick, fleet-wide.
  std::int64_t displaced_stable_cores = 0;
};

/// Interface the simulators call at fixed points of the tick loop. All
/// methods are invoked from the simulation thread only.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// Top of tick `t`, before any simulator step. Dynamic topology faults
  /// (WAN link down/up transitions) are applied to the graph here.
  virtual void begin_tick(util::Tick t) = 0;

  /// Monotone counter bumped whenever the topology the schedulers plan
  /// against changes shape: a WAN link going down or up, a server-failure
  /// batch starting, or its repair landing. Simulators compare it across
  /// begin_tick calls and notify schedulers (Scheduler::on_topology_change)
  /// so cross-replan solver state (dual values, basis snapshots) keyed to
  /// the old topology is discarded rather than seeded into a stale solve.
  /// Default 0 forever: no topology faults, nothing to invalidate.
  virtual std::uint64_t topology_epoch() const { return 0; }

  /// True while site `s` is blacked out at `t` — power forced to zero *by a
  /// fault*. A solar night is not a blackout; the simulators use this to
  /// trigger emergency eviction rather than ordinary shrinking.
  virtual bool site_down(std::size_t s, util::Tick t) const = 0;

  /// True while any fault (blackout, brownout, server outage) is active on
  /// site `s` at `t`; feeds the faulted-site-tick counter.
  virtual bool site_degraded(std::size_t s, util::Tick t) const = 0;

  /// Server-failure batches that begin at tick `t` (empty for most ticks).
  virtual std::vector<ServerOutage> server_outages_at(util::Tick t) = 0;

  /// Bottom of tick `t`, after energy accounting. Observation only.
  virtual void on_tick_end(const TickSnapshot& snap) = 0;
};

/// Retry discipline for proactive moves that cannot execute (target down,
/// link severed, no room): capped exponential backoff, then abandonment.
struct MoveRetryPolicy {
  util::Tick base_backoff_ticks = 2;
  util::Tick max_backoff_ticks = 16;
  int max_attempts = 5;
};

/// Everything a simulator needs to run under fault injection. `hooks ==
/// nullptr` disables every fault branch.
struct FaultConfig {
  FaultHooks* hooks = nullptr;
  MoveRetryPolicy retry{};
};

}  // namespace vbatt::core
