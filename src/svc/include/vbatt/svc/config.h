// Service configuration (snippet-2-style typed config with validation).
//
// Everything an operator can set is validated up front with an error that
// names the offending field — a resident service that silently runs with a
// nonsense timeout is worse than one that refuses to start. The same
// validator runs on construction, on every `reconfigure` event, and after
// snapshot restore, so no path can smuggle in an invalid state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/util/time.h"

namespace vbatt::svc {

struct Scenario;

/// Per-site liveness timeouts, in ticks without a heartbeat.
struct HealthConfig {
  /// Master switch: off (default) means no health tracking at all — no
  /// heartbeats expected, no site ever suspected.
  bool enabled = false;
  /// Alive -> Suspect after this many ticks of silence.
  util::Tick suspect_after = 4;
  /// Suspect -> Dead after this many ticks of silence (total, from the
  /// last heartbeat; must exceed suspect_after).
  util::Tick dead_after = 12;
  /// Recovering -> Alive after this many ticks of renewed heartbeats.
  util::Tick recovering_ticks = 2;
};

struct ServiceConfig {
  /// Scheduler policy: greedy | mip | mip24h | mippeak, built exactly as
  /// the CLI builds it (make_service_scheduler).
  std::string policy = "mip";
  HealthConfig health{};
  /// Seed for forecast-noise child streams of streamed fault reports.
  std::uint64_t noise_seed = 7;
  /// Force an immediate replan on the tick after a fault report or a
  /// health-machine death (default: wait for the scheduler's cadence).
  bool replan_on_fault = false;
  core::MoveRetryPolicy retry{};
  core::SitePowerModel power_model{};
};

/// Reject invalid fields with a std::runtime_error naming the field
/// ("ServiceConfig: field 'health.dead_after' ...").
void validate_service_config(const ServiceConfig& config);

/// Apply a "key=value;key=value" reconfigure payload in place, then
/// re-validate. Reconfigurable keys: health.enabled, health.suspect_after,
/// health.dead_after, health.recovering_ticks, replan_on_fault. Unknown
/// keys and non-reconfigurable fields (policy, seeds) are rejected by
/// name. Throws without modifying `config` on any error.
void apply_reconfigure(ServiceConfig& config, std::string_view spec);

/// The one map from a policy name to a scheduler: GreedyScheduler or the
/// make_mip*_config() MipScheduler. The ControlPlane, the batch side of
/// the equivalence check, `vbatt schedule` (all but its econ objectives
/// and replication), the benches and the testkit properties all build
/// their schedulers here, so none can drift apart. A scheduler rebuilt
/// during recovery is a pure function of the replayed fleet state (see
/// sim_stepper.h on why that pins output identity).
std::unique_ptr<core::Scheduler> make_service_scheduler(
    const std::string& policy);

/// The batch side of the streamed-vs-batch equivalence check
/// (`vbatt_svc --verify`, the svc.batch_diff fuzz property,
/// test_svc_service): run_simulation over `scenario` under `config`'s
/// policy, retry discipline and power model, with the whole fault schedule
/// baked into a StreamInjector before tick 0 and the batch overlay attached
/// up front. The injector is installed even for an empty schedule, so
/// hook-gated accounting matches the service on fault-free runs too.
core::SimResult run_batch_engine(const Scenario& scenario,
                                 const ServiceConfig& config);

}  // namespace vbatt::svc
