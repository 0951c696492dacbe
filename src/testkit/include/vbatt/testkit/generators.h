// Seeded builders for every fuzzable input in the system.
//
// Each builder is a pure function of a Spec: the spec's integer keys set
// the sizes/knobs and its `seed` key roots the util::Rng child streams, so
// the same spec always produces the same fleet/workload/schedule/model on
// every platform. The matching `gen_*_keys` helpers draw a random spec; a
// property composes them, and the shrinker then edits the keys directly.
//
// Spec key glossary (all integers unless noted):
//   graph   sites (total), wind (wind sites among them), days, peak (MW),
//           region (km), oracle (0/1), trace (token: model|square|cliff|
//           calm), amp (power-drop amplitude, percent of peak), period
//           (square-wave half-period, ticks), fwin (forecast window per
//           lead hour x1000; unset = the ForecastConfig default), fseed
//           (forecast noise seed; unset = the default)
//   apps    aph100 (apps per hour x100), maxvms, deg100 (degradable
//           fraction x100), life (median lifetime, hours)
//   faults  events (event count; event i draws from child stream
//           ("fault", i), so shrinking `events` keeps a prefix)
//   model   vars, rows, ints (integer variables among vars)
//   batch   jph100 / tph100 (deadline-job / harvest-task arrivals per hour
//           x100), bcores (max gang width), brun (max run ticks),
//           bslack100 (max deadline slack x100), blat (max resume latency)
//   econ    pbase/pswing/pspread (price $/MWh), cbase/cswing/cspread
//           (carbon gCO2/kWh)
#pragma once

#include <vector>

#include "vbatt/core/vb_graph.h"
#include "vbatt/energy/signal.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/solver/model.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/util/rng.h"
#include "vbatt/workload/app.h"
#include "vbatt/workload/batch.h"

namespace vbatt::testkit {

/// Build the fleet a spec describes. trace=model runs the full
/// solar/wind generator; square/cliff/calm build adversarial synthetic
/// traces (square wave between 1 and 1-amp%, one cliff drop, or a flat
/// line) that stress exactly the power-dip paths directed tests
/// under-sample.
energy::Fleet make_fleet(const Spec& spec);

/// The generate_fleet config make_fleet uses under trace=model.
energy::FleetConfig make_model_fleet_config(const Spec& spec);

/// Graph config a spec describes (oracle forecasts, forecaster knobs).
core::VbGraphConfig make_graph_config(const Spec& spec);

/// The VB graph of make_fleet(spec) under make_graph_config(spec).
core::VbGraph make_graph(const Spec& spec);

/// Application arrival trace sized to the spec'd graph.
std::vector<workload::Application> make_apps(const Spec& spec,
                                             const core::VbGraph& graph);

struct Scenario {
  core::VbGraph graph;
  std::vector<workload::Application> apps;
};

/// make_graph + make_apps in one call.
Scenario make_scenario(const Spec& spec);

/// Random fault events (`events` of them; not tied to any graph — sites
/// and ticks are drawn inside generous fixed ranges). Used by the CSV
/// round-trip properties, which need arbitrary well-formed events rather
/// than graph-consistent ones.
fault::FaultSchedule make_fault_events(const Spec& spec);

/// Random bounded LP/MIP: `vars` variables (first `ints` integral, all
/// with finite upper bounds so no run is unbounded), `rows` constraints of
/// mixed sense. Infeasible draws are intentional — the engines must agree
/// on the status, too.
solver::Model make_model(const Spec& spec);

/// Deadline-job + harvest-task overlay workload over `n_ticks` (child
/// stream "batch"). jph100=0 and tph100=0 disable a class each; both zero
/// yields an empty workload.
workload::BatchWorkload make_batch(const Spec& spec, const util::TimeAxis& axis,
                                   std::size_t n_ticks);

/// Per-site day-ahead electricity price series (child stream "price").
energy::SiteSeries make_price_series(const Spec& spec, std::size_t n_sites,
                                     std::size_t n_ticks);

/// Per-site grid carbon-intensity series (child stream "carbon").
energy::SiteSeries make_carbon_series(const Spec& spec, std::size_t n_sites,
                                      std::size_t n_ticks);

// Spec drawers: append this component's keys to `spec` using `rng`.
void gen_graph_keys(Spec& spec, util::Rng& rng);
void gen_app_keys(Spec& spec, util::Rng& rng);
void gen_batch_keys(Spec& spec, util::Rng& rng);
void gen_econ_keys(Spec& spec, util::Rng& rng);

}  // namespace vbatt::testkit
