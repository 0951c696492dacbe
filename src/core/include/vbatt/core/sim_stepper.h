// Incremental tick-stepping core of the app-level simulator.
//
// run_simulation() (simulation.h) is a batch driver: it owns the tick loop
// and feeds arrivals from a pre-loaded trace. The control-plane service
// (vbatt::svc) needs the same engine advanced one phase at a time by
// *streamed* events — arrivals, departures, and replans arrive from the
// outside world instead of a trace. SimStepper is that seam: it holds all
// the per-run state (fleet ledgers, pending proactive moves, retry queue,
// departure calendar, result accumulators) and exposes the tick phases in
// the exact order the batch loop runs them, so a trace-driven run through
// the stepper is byte-identical to the historical run_simulation body.
//
// Phase order per tick t (the batch loop's steps 0-7):
//   begin_tick(t)          fault bookkeeping, topology-epoch watch
//   process_departures()   calendar-due app departures
//   [depart_now(id)...]    externally ordered departures (service only)
//   maybe_replan()         cadence replan  — or force_replan() on trigger
//   [arrive(app)...]       arrivals due this tick, in trace order
//   execute_due_moves()    proactive moves due now + fault retries
//   enforce_and_meter()    capacity enforcement, energy, fault accounting
//
// save()/restore() serialize the complete logical state between ticks
// (after enforce_and_meter, before the next begin_tick), so a restored
// stepper continues bit-identically. The scheduler is NOT serialized:
// recovery constructs a fresh one, which is output-identical only for
// schedulers that carry no result-bearing state across replans (Greedy
// always; MipScheduler with warm_start and reuse_basis off — warm starts
// are cutoff-only, but a carried basis can steer which equal-cost optimum
// the revised engine lands on, so the service disables both).
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "vbatt/core/simulation.h"
#include "vbatt/util/wire.h"

namespace vbatt::core {

class SimStepper {
 public:
  /// State is sized to `graph.n_ticks()`; ticks step 0, 1, ….
  /// `ext` (optional) attaches the opt-in scenario extensions: a batch
  /// overlay stepped inside enforce_and_meter, and price/carbon series
  /// that score the metered energy. Null leaves the run byte-identical.
  SimStepper(const VbGraph& graph, Scheduler& scheduler,
             const SitePowerModel& power_model = {},
             const FaultConfig* faults = nullptr,
             const ScenarioExtensions* ext = nullptr);

  /// Last tick fully stepped (-1 before the first begin_tick).
  util::Tick now() const noexcept { return now_; }
  std::size_t n_sites() const noexcept { return n_sites_; }
  std::size_t n_ticks() const noexcept { return n_ticks_; }
  const FleetState& fleet() const noexcept { return state_; }
  const SimResult& result() const noexcept { return result_; }

  // -- tick phases, in order -----------------------------------------------
  void begin_tick(util::Tick t);
  void process_departures();
  /// Depart `app_id` immediately (externally ordered — a VmDeparture event).
  /// Unknown ids are ignored, matching the calendar's defensive skip.
  void depart_now(std::int64_t app_id);
  void maybe_replan();
  /// Replan immediately regardless of cadence (service fault trigger).
  void force_replan();
  void arrive(const workload::Application& app);
  void execute_due_moves();
  void enforce_and_meter();

  /// Dynamic batch submissions (BatchJob / HarvestTask service events).
  /// Entities are admitted to the overlay on the next
  /// enforce_and_meter whose tick has reached their arrival.
  void submit_batch_job(const workload::DeadlineJob& job);
  void submit_harvest_task(const workload::HarvestTask& task);

  /// Finalize counters copied from the scheduler and move the result out.
  /// The stepper is spent afterwards.
  SimResult take_result();

  /// Scheduler fallback rungs taken so far, including pre-restore history.
  std::int64_t fallback_activations() const;

  /// Serialize every result-bearing field. Deterministic: equal logical
  /// states produce equal bytes.
  void save(util::wire::Writer& w) const;
  /// Inverse of save(). The stepper must be freshly constructed against the
  /// same graph/scheduler/config the saved one used.
  void restore(util::wire::Reader& r);

 private:
  struct PendingRetry {
    Move move;
    int attempts = 0;  // failed attempts so far
  };

  bool move_blocked(const LiveApp& app, const Move& move) const;
  void execute_move(std::int64_t app_id, LiveApp& app, const Move& move);
  void defer_move(const Move& move, int prior_attempts);
  void adopt_replan(std::vector<Move> moves);

  const VbGraph& graph_;
  Scheduler& scheduler_;
  SitePowerModel power_model_;
  FaultHooks* hooks_ = nullptr;
  MoveRetryPolicy retry_;
  std::size_t n_sites_ = 0;
  std::size_t n_ticks_ = 0;
  util::Tick replan_period_ = 0;

  util::Tick now_ = -1;
  FleetState state_;
  SimResult result_;
  std::vector<int> avail_cache_;  // per-tick available, for the snapshot

  /// Opt-in extensions: the overlay executor plus econ series pointers.
  /// has_overlay_ flips on when a BatchWorkload is attached or the first
  /// dynamic submission arrives; a default run never touches these.
  workload::BatchOverlay overlay_;
  bool has_overlay_ = false;
  const energy::SiteSeries* price_ = nullptr;
  const energy::SiteSeries* carbon_ = nullptr;
  std::vector<std::int64_t> overlay_free_;  // scratch, per-site free cores

  /// Pending proactive moves per app (replans replace the whole set), plus
  /// a due-tick index so each tick touches only apps with a move due now.
  std::map<std::int64_t, std::vector<Move>> pending_;
  std::map<util::Tick, std::set<std::int64_t>> due_moves_;
  std::map<util::Tick, std::vector<PendingRetry>> retry_queue_;

  /// Departure calendar, ordered (end_tick, app_id) — pop order identical
  /// to the historical min-heap, and trivially serializable.
  std::set<std::pair<util::Tick, std::int64_t>> departures_;
  std::vector<std::set<std::int64_t>> site_apps_;

  std::uint64_t topo_epoch_ = 0;
  /// Fallback rungs recorded by schedulers that died before a restore;
  /// added to the live scheduler's count at take_result().
  std::int64_t fallback_base_ = 0;
};

}  // namespace vbatt::core
