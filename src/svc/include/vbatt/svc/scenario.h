// Scripted scenarios: the bridge between the batch engine and the service.
//
// make_scenario() is the one builder of a scenario (fleet -> VbGraph, apps,
// chaos schedule, batch workload): `vbatt schedule`, `vbatt_svc` (both
// reading their flags through tools::scenario_flags), the Table 1 benches
// and the testkit properties all call it, and ScenarioConfig{}'s defaults
// are the paper's Table 1 cell. scenario_events() then flattens it into
// the event stream a telemetry plane would have produced live: full
// power/forecast series as upfront readings, fault reports in schedule
// order, then per tick the arrivals due that tick followed by a
// tick_advance (and optional heartbeats).
//
// Feeding that stream through a ControlPlane must produce the same
// SimResult as run_simulation() over the same scenario — the
// batch-equivalence contract pinned by test_svc_service and the testkit
// property svc.batch_diff. The stream deliberately exercises the telemetry
// path (the readings overwrite the baselines with identical values), so
// equivalence also proves set_power/set_forecast are lossless.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/core/simulation.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/svc/event.h"
#include "vbatt/workload/app.h"

namespace vbatt::svc {

struct ScenarioConfig {
  std::size_t days = 2;
  int n_solar = 4;
  int n_wind = 6;
  double region_km = 2500.0;
  bool storms = false;
  double cores_per_mw = 20.0;
  double apps_per_hour = 2.2;
  /// 0 = fault-free; otherwise a seeded chaos schedule of this intensity.
  /// make_scenario() rejects a negative one (fault::validate_chaos_config).
  double chaos_intensity = 0.0;
  std::uint64_t chaos_seed = 7;
  /// Batch overlay arrival rates (entities per hour); both 0 leaves
  /// Scenario::batch empty (the default, baseline-identical scenario).
  double batch_jobs_per_hour = 0.0;
  double batch_tasks_per_hour = 0.0;
  std::uint64_t batch_seed = 17;
};

struct Scenario {
  core::VbGraph graph;  // pristine, fault-free
  std::vector<workload::Application> apps;
  fault::FaultSchedule schedule;  // empty when chaos_intensity == 0
  /// Optional batch overlay workload; scenario_events() emits one
  /// batch_job / harvest_task submission per entity, and the batch driver
  /// passes it through ScenarioExtensions. Empty on a default scenario.
  workload::BatchWorkload batch;
};

/// Throws std::runtime_error naming the field unless `days` >= 1 and every
/// real-valued field (region_km, cores_per_mw, apps_per_hour, the chaos
/// intensity and both batch rates) is finite and >= 0.
void validate_scenario_config(const ScenarioConfig& config);

/// Validates `config` (validate_scenario_config) before building anything.
Scenario make_scenario(const ScenarioConfig& config);

/// Flatten a scenario into the full event stream (sequence numbers unset —
/// submit() assigns them). `heartbeats` adds one beat per site per tick.
std::vector<Event> scenario_events(const Scenario& scenario,
                                   bool heartbeats = false);

/// Deterministic byte encoding of every field of a SimResult, ledger
/// included. Two results are equivalent iff their fingerprints are equal —
/// the service-vs-batch comparison and the recovery identity both hang off
/// this single definition of "same result". The ledger is encoded sparsely
/// (per site and direction: the nonzero cell count, then (tick, GB) pairs),
/// which is equal exactly when every dense series is bitwise equal. The
/// bytes are compared in-process only and never persisted; snapshots keep
/// writing the dense ledger series until the svc format change.
std::string result_fingerprint(const core::SimResult& result);

}  // namespace vbatt::svc
