// Incremental tick-stepping core of the app-level simulator.
//
// run_simulation() (simulation.h) is a batch driver: it owns the tick loop
// and feeds arrivals from a pre-loaded trace. The control-plane service
// (vbatt::svc) needs the same engine advanced one phase at a time by
// *streamed* events — arrivals, departures, and replans arrive from the
// outside world instead of a trace. SimStepper is that seam: it holds all
// the per-run state (fleet ledgers, move book, departure calendar, result
// accumulators) and exposes the tick phases in the order the batch loop
// runs them. The move book, the fault prologue and epilogue, the econ
// meter and the overlay step are the tick parts it shares with the
// VM-level fleet engine (tick_parts.h).
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
// (after enforce_and_meter, before the next begin_tick), including the
// scheduler's decision-bearing caches (Scheduler::save_state), so a
// restored stepper continues bit-identically.
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "vbatt/core/simulation.h"
#include "vbatt/core/tick_parts.h"
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
  const SimResult& result() const noexcept { return result_; }

  // -- tick phases, in order -----------------------------------------------
  void begin_tick(util::Tick t);
  void process_departures();
  /// Depart `app_id` immediately (externally ordered — a VmDeparture event).
  /// Unknown ids are ignored, matching the calendar's defensive skip.
  void depart_now(std::int64_t app_id);
  /// Replan when Scheduler::replans_at(now) says the cadence falls here.
  void maybe_replan();
  /// Replan immediately regardless of cadence (the service calls it on a
  /// cadence tick and on a fault trigger).
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
  /// Add (sign +1) or remove (sign -1) `app` at its site: the state's
  /// core ledgers and the per-site index.
  void seat(std::int64_t app_id, const LiveApp& app, int sign);
  /// Move `app` to site `to`, charging its stable memory to the WAN ledger.
  void relocate(std::int64_t app_id, LiveApp& app, std::size_t to);

  const VbGraph& graph_;
  Scheduler& scheduler_;
  SitePowerModel power_model_;
  FaultHooks* hooks_ = nullptr;
  /// Pending proactive moves, their due-tick index and the retry queue.
  MoveBook book_;
  EconMeter econ_;
  std::size_t n_sites_ = 0;

  util::Tick now_ = -1;
  FleetState state_;
  SimResult result_;
  std::vector<int> avail_cache_;  // this tick's available cores per site

  /// Opt-in batch overlay. has_overlay_ flips on when a BatchWorkload is
  /// attached or the first dynamic submission arrives; a default run never
  /// touches these.
  workload::BatchOverlay overlay_;
  bool has_overlay_ = false;
  std::vector<std::int64_t> overlay_free_;  // scratch, per-site free cores

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
