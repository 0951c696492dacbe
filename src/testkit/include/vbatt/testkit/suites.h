// The built-in property registry.
//
// Five suites, each an oracle inventory entry (docs/TESTING.md):
//   sim     conservation laws on VmLevelResult, thread-count invariance,
//           empty-chaos identity, the event-driven engine vs the
//           frozen seed engine (vm_reference.h), and the sparse migration
//           ledger vs the frozen dense RefLedger (ref_ledger.h)
//   dcsim   SiteBlock vs the frozen linear-scan RefSite (ref_site.h):
//           place / shrink / outage answers under all three policies
//   solver  revised engine vs frozen seed solver (objective + feasibility
//           audit), decomposed vs revised and the default engine vs seed,
//           MIP dominance over sampled feasible points, compiled-plan and
//           incremental-model identity (MIP-24h, MIP-peak, MIP-cost)
//   fault   schedule CSV round-trip + malformed-CSV diagnostics, chaos
//           generator determinism, InvariantChecker-armed chaos runs
//   energy  trace/forecast range invariants, stable-share superadditivity
//           under aggregation
#pragma once

#include <vector>

#include "vbatt/testkit/property.h"

namespace vbatt::testkit {

/// All built-in properties, in stable registration order.
std::vector<Property> all_properties();

}  // namespace vbatt::testkit
