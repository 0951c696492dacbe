// Per-tick invariant checking for hooked runs.
//
// StreamInjector runs the checker at the end of every tick it is installed
// for, handing it the simulator's end-of-tick snapshot plus the injector's
// view of which sites are blacked out; a violation throws std::logic_error
// naming the law. It exists to catch silent accounting corruption the
// moment a fault path breaks it, not ticks later when a counter looks odd.
// The passing path allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/core/fault_hooks.h"

namespace vbatt::fault {

class InvariantChecker {
 public:
  /// Verify the tick. `site_down` holds, per site, whether a blackout is
  /// active this tick. Laws enforced:
  ///   1. Ledger sanity: per-site stable/degradable core counts are
  ///      non-negative, and the fleet displaced total is non-negative.
  ///   2. Capacity: served cores beyond a site's available budget must be
  ///      covered by the displaced total (nothing runs on unpowered
  ///      cores unaccounted).
  ///   3. Blackout: a blacked-out site has no available cores (the bake
  ///      worked) and no active degradable VMs on it.
  void check(const core::TickSnapshot& snap,
             const std::vector<char>& site_down);

  std::int64_t checked_ticks() const noexcept { return checked_ticks_; }

 private:
  std::int64_t checked_ticks_ = 0;
};

}  // namespace vbatt::fault
