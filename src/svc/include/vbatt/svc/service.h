// ControlPlane: the resident control-plane service.
//
// A single-threaded event-sourced state machine. Fleet state — the
// effective graph (StreamInjector), the simulation engine (SimStepper),
// the health machine, and the service's own bookkeeping — is a pure
// function of (initial graph, initial config, accepted event sequence).
// That single invariant buys everything this module promises:
//
//   * determinism: same events in, same bytes out, at any thread count;
//   * durability: persist the accepted events (event_log.h) and state can
//     always be rebuilt by replay;
//   * cheap snapshots: serialize the current state, recovery = snapshot +
//     replay of the log suffix, byte-identical to the uninterrupted run.
//
// Apply-then-log: submit() validates and applies the event first, assigns
// it the next sequence number, and only then appends it to the log. A
// rejected event therefore never reaches the log (replay cannot trip over
// it), and a crash between apply and append loses at most the one event
// whose effect was never made durable — the recovered state is exactly the
// logged prefix, which is a valid state of the machine.
//
// tick_advance is an event like any other: time only moves when the log
// says it does, which is what makes replay reproduce the interleaving of
// telemetry, faults, and ticks exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vbatt/core/sim_stepper.h"
#include "vbatt/fault/stream.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/event.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/health.h"

namespace vbatt::svc {

inline constexpr std::string_view kSnapshotMagic{"VBSNAP01"};

/// Operator-facing status surface (the `status` command).
struct ServiceStatus {
  util::Tick tick = -1;  // last fully simulated tick
  std::uint64_t last_seq = 0;
  std::uint64_t applied_events = 0;
  bool paused = false;
  std::size_t pending_arrivals = 0;
  std::size_t pending_departures = 0;
  std::uint64_t accepted_faults = 0;
  std::uint64_t topology_epoch = 0;
  std::size_t sites_alive = 0;
  std::size_t sites_suspect = 0;
  std::size_t sites_dead = 0;
  std::size_t sites_recovering = 0;
  std::size_t sites_draining = 0;
  std::int64_t apps_placed = 0;
  std::int64_t planned_migrations = 0;
  std::int64_t fallback_activations = 0;

  std::string to_string() const;
};

class ControlPlane {
 public:
  /// Own a copy of `graph` (via the injector) and a scheduler built from
  /// `config.policy`. Throws if the config is invalid.
  ControlPlane(const core::VbGraph& graph, const ServiceConfig& config);

  // -- ingestion -----------------------------------------------------------

  /// Validate and apply one event; on success assign it the next sequence
  /// number, append it to the attached log (if any), and return the
  /// sequence number. Throws std::runtime_error on a rejected event —
  /// rejected events mutate nothing and are never logged.
  std::uint64_t submit(Event e);

  /// Re-apply logged records (recovery). Records with seq <= last_seq()
  /// are skipped (already covered by the snapshot); the rest are applied
  /// WITHOUT being re-logged. Returns the number applied.
  std::uint64_t replay(const std::vector<std::string>& records);

  /// Attach (or detach with nullptr) the durable log. Attached after
  /// replay during recovery so replayed events are not double-logged.
  void attach_log(std::unique_ptr<EventLogWriter> log);
  EventLogWriter* log() noexcept { return log_.get(); }

  // -- state ---------------------------------------------------------------

  util::Tick now() const noexcept { return stepper_->now(); }
  std::uint64_t last_seq() const noexcept { return seq_; }
  std::uint64_t applied_events() const noexcept { return applied_; }
  bool paused() const noexcept { return paused_; }
  std::size_t n_sites() const noexcept { return injector_->graph().n_sites(); }
  std::size_t n_ticks() const noexcept { return injector_->graph().n_ticks(); }
  const ServiceConfig& config() const noexcept { return config_; }
  const HealthTracker& health() const noexcept { return health_; }
  const fault::StreamInjector& injector() const noexcept { return *injector_; }
  /// Live result accumulators (finalized counters only in finish()).
  const core::SimResult& result() const noexcept { return stepper_->result(); }

  ServiceStatus status() const;

  /// Wall-clock milliseconds of each replan executed so far. Observability
  /// only — never serialized, never part of the deterministic state.
  const std::vector<double>& replan_latencies_ms() const noexcept {
    return replan_ms_;
  }

  /// Model-construction milliseconds inside each replan (the scheduler's
  /// own meter, so incremental builds show up as near-zero entries);
  /// index-aligned with replan_latencies_ms. Zero for schedulers that
  /// build no models. Observability only, like the latencies.
  const std::vector<double>& replan_build_latencies_ms() const noexcept {
    return replan_build_ms_;
  }

  /// Finalize and move the SimResult out (the stepper is spent; the
  /// service accepts no further events).
  core::SimResult finish();

  // -- durability ----------------------------------------------------------

  /// Serialize the complete logical state: magic, CRC-framed body holding
  /// seq/applied/flags, config, buffered events, health, injector, and
  /// stepper. Deterministic: equal states produce equal bytes.
  std::string snapshot_bytes() const;

  /// Inverse of snapshot_bytes(). Must be called on a freshly constructed
  /// service (no events applied) over the same graph; the snapshot's
  /// policy must match the constructed one (the scheduler is rebuilt, not
  /// serialized). Throws on corruption or mismatch.
  void restore_snapshot(std::string_view bytes);

 private:
  void apply(const Event& e);          // dispatch, validated, may throw
  void advance_one_tick();             // the tick_advance handler
  void check_site(std::size_t site, const char* what) const;

  ServiceConfig config_;
  std::unique_ptr<fault::StreamInjector> injector_;
  std::unique_ptr<core::Scheduler> scheduler_;
  core::FaultConfig fault_config_;
  std::unique_ptr<core::SimStepper> stepper_;
  HealthTracker health_;

  std::uint64_t seq_ = 0;      // last assigned sequence number
  std::uint64_t applied_ = 0;  // events applied (replay included)
  bool paused_ = false;
  bool replan_trigger_ = false;  // force a replan at the next tick

  /// Events buffered between ticks, applied in FIFO order at the next
  /// tick_advance (the stepper's arrival/departure phases).
  std::vector<workload::Application> pending_arrivals_;
  std::vector<std::int64_t> pending_departures_;

  std::unique_ptr<EventLogWriter> log_;
  std::vector<double> replan_ms_;
  std::vector<double> replan_build_ms_;
  /// Size of the last snapshot_bytes() frame, which sizes the next one's
  /// buffer up front. Capacity only — never part of the snapshot bytes.
  mutable std::size_t snapshot_size_hint_ = 0;
  bool finished_ = false;
};

}  // namespace vbatt::svc
