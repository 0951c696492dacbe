// Frozen seed VM-level engine — the differential oracle for
// core::run_fleet_simulation.
//
// This is the pre-index engine (linear-scan placement, rebuild-and-sort
// shrink, full live-map sweeps, per-server energy scan) that used to live
// inside bench_scale_dcsim; it moved here so the fuzz properties and the
// benches share one oracle. It intentionally stays O(n_servers)-per-
// operation — it is an executable specification, not a fast engine — and
// covers the whole VmLevelConfig surface: all three placement policies,
// fault hooks (topology epochs, server outages and repairs, blocked moves
// with retry/backoff, fault counters), and the scenario extensions (batch
// overlay, price and carbon metering).
#pragma once

#include <string>
#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/workload/app.h"

namespace vbatt::testkit {

/// Run the frozen seed engine. Must produce results field-for-field
/// identical to core::run_fleet_simulation on the same inputs — that
/// identity is the differential property.
/// Fault runs need a fresh, identically seeded hooks instance per engine:
/// injectors are stateful.
core::VmLevelResult reference_vm_run(
    const core::VbGraph& graph,
    const std::vector<workload::Application>& apps, core::Scheduler& scheduler,
    const core::VmLevelConfig& config = {});

/// Field-for-field comparison of two VM-level results, including the
/// energy series (bit-equal, no tolerance), displaced/ledger series,
/// per-app displacement, overlay and econ meters, completed ticks and
/// scheduler fallbacks. `fault_counters` also compares the four
/// hook-gated counters (retried/abandoned moves, faulted site-ticks,
/// stable VM downtime); pass false only to compare a hooked run against
/// a bare one. Returns "" when identical, else a description naming the
/// first differing field.
std::string diff_vm_results(const core::VmLevelResult& a,
                            const core::VmLevelResult& b,
                            std::size_t n_sites, bool fault_counters = true);

/// The conservation laws every fleet-engine result obeys, whatever its
/// size: no counter is negative; per-app and per-tick displacement sum to
/// the fleet total; every degradable VM of a live app is active or paused
/// on every tick of its residency; the ledger's out and in totals equal
/// the moved-GB series; total energy equals the per-tick series (to 1e-9
/// relative). `r` is the run of `apps` on `graph`. Returns "" when every
/// law holds, else a description of the first violation.
std::string conservation_violation(
    const core::VbGraph& graph, const std::vector<workload::Application>& apps,
    const core::VmLevelResult& r);

}  // namespace vbatt::testkit
