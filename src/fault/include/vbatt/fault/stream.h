// StreamInjector: the fault injector. Every chaos path — `vbatt schedule
// --chaos`, bench_chaos, the control-plane service and its batch-side
// check, the testkit chaos properties — installs one as its
// core::FaultHooks.
//
// The injector owns the effective graph: a copy of the VbGraph with power
// faults (blackout, brownout) and forecast corruption baked directly into
// the copied series, so simulators run against it through the ordinary
// const VbGraph& path and the hot loops read plain arrays. Only the dynamic
// faults (WAN link flaps, server failures) act at runtime, through the
// hooks. Each site is baked from pristine baselines, so events can arrive
// two ways:
//   StreamInjector(graph, seed, schedule) — a whole FaultSchedule known
//       upfront: validated, recorded in schedule order, each site baked
//       once (batch runs, benches, tests).
//   inject(event, now) — one event while the clock runs: only the
//       affected site is re-baked and only *future* ticks change (events
//       that start at or before `now` are rejected).
// Both record the same state, so a schedule delivered before tick 0 bakes
// the same graph either way. Forecast noise draws one child stream per
// accepted event, seed_for(noise_seed, "forecast-noise", i), i the
// acceptance index. The frozen one-shot baker in testkit
// (ref_fault_injector.h) is the oracle: the fault.stream_parity fuzz
// property and test_fault_stream pin every series and hook output to it
// bit for bit.
//
// on_tick_end runs the InvariantChecker on every hooked tick (throws
// std::logic_error on a violation); checked_ticks() counts the vetted ticks.
//
// On top of scheduled fault kinds the service needs three administrative
// controls with distinct semantics:
//   admin_down / admin_up  — a site declared Dead by the health machine:
//                            power zeroed, site_down + degraded masks set,
//                            topology epoch bumped (emergency eviction).
//   drain / undrain        — operator drain: power zeroed so capacity
//                            enforcement migrates residents out, but the
//                            site is NOT reported down or degraded — a
//                            graceful evacuation, not a fault.
//   set_power/set_forecast — streamed telemetry (PowerReading /
//                            ForecastUpdate events) overriding the
//                            *baseline* series from a tick onward.
//
// save()/restore() serialize baselines plus the accepted-event state (not
// the derived arrays); restore() re-bakes, so a restored injector is
// byte-equivalent to the uninterrupted one.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/fault/invariants.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/util/wire.h"

namespace vbatt::fault {

class StreamInjector final : public core::FaultHooks {
 public:
  /// Copy `graph` as both the pristine baseline and the effective graph.
  /// `noise_seed` drives the forecast-noise child streams.
  explicit StreamInjector(const core::VbGraph& graph,
                          std::uint64_t noise_seed = 0);

  /// Bake a whole schedule: `schedule.validate` against `graph`, then
  /// every event recorded at now = -1 in schedule order (so event i draws
  /// forecast-noise stream i) and each site baked once.
  StreamInjector(const core::VbGraph& graph, std::uint64_t noise_seed,
                 const FaultSchedule& schedule);

  /// The effective (faulted) graph: run the stepper against *this*.
  const core::VbGraph& graph() const noexcept { return graph_; }

  /// Number of fault events accepted so far (also the next forecast-noise
  /// child-stream index).
  std::uint64_t accepted_events() const noexcept { return accepted_; }

  /// Ticks the InvariantChecker has vetted (one per on_tick_end).
  std::int64_t checked_ticks() const noexcept {
    return checker_.checked_ticks();
  }

  /// Accept a fault event. `now` is the last fully stepped tick; the event
  /// must start strictly after it (history is immutable). Throws
  /// std::runtime_error naming the offending field on a malformed event.
  void inject(const FaultEvent& e, util::Tick now);

  /// Health-machine site kill: zero power, set down + degraded masks and
  /// bump the topology epoch from `from` (exclusive end `until`, default
  /// the horizon). admin_up() closes the open window at `from`.
  void admin_down(std::size_t site, util::Tick from);
  void admin_up(std::size_t site, util::Tick from);
  /// True while an admin window on `site` is still open.
  bool admin_is_down(std::size_t site) const;

  /// Operator drain: zero power from `from` (so enforcement migrates
  /// residents away) without marking the site down or degraded.
  void drain(std::size_t site, util::Tick from);
  void undrain(std::size_t site, util::Tick from);
  bool is_draining(std::size_t site) const;

  /// Override the baseline power series of `site` for ticks
  /// [start, start + values.size()); start must be > now.
  void set_power(std::size_t site, util::Tick start,
                 const std::vector<double>& values, util::Tick now);
  /// Same for the forecast series of one lead index.
  void set_forecast(std::size_t site, std::size_t lead, util::Tick start,
                    const std::vector<double>& values, util::Tick now);

  // core::FaultHooks
  void begin_tick(util::Tick t) override;
  std::uint64_t topology_epoch() const override { return epoch_; }
  bool site_down(std::size_t s, util::Tick t) const override;
  bool site_degraded(std::size_t s, util::Tick t) const override;
  std::vector<core::ServerOutage> server_outages_at(util::Tick t) override;
  void on_tick_end(const core::TickSnapshot& snap) override;

  /// Serialize baselines + accepted-event state. Deterministic.
  void save(util::wire::Writer& w) const;
  /// Inverse of save(); must be called on a freshly constructed injector
  /// over the same original graph. Re-bakes every derived series/mask.
  void restore(util::wire::Reader& r);

 private:
  struct Window {
    util::Tick start = 0;
    util::Tick end = 0;  // exclusive
  };
  struct Brownout {
    util::Tick start = 0;
    util::Tick end = 0;
    double alpha = 0.0;
  };
  struct ForecastFault {
    util::Tick start = 0;
    util::Tick end = 0;
    double alpha = 0.0;
    double sigma = 0.0;
    std::uint64_t noise_index = 0;  // child-stream index at acceptance
  };

  /// Validate `e` against `now` and append it to the accepted-event state
  /// without baking.
  void record(const FaultEvent& e, util::Tick now);
  /// Restore site `s` from its baselines, then bake_site(s).
  void rebake_site(std::size_t s);
  /// Apply every accepted window of site `s` to its (pristine) effective
  /// series and rebuild its masks.
  void bake_site(std::size_t s);
  void rebake_masks(std::size_t s);
  void rebake_all();

  core::VbGraph graph_;  // effective copy the simulator reads
  std::uint64_t noise_seed_ = 0;
  std::size_t n_sites_ = 0;
  std::size_t n_ticks_ = 0;

  /// Pristine per-site series, mutated only by set_power/set_forecast.
  std::vector<std::vector<double>> base_power_;
  std::vector<std::vector<std::vector<double>>> base_forecast_;

  // Accepted-event state, in acceptance order per site.
  std::vector<std::vector<Window>> blackouts_;
  std::vector<std::vector<Brownout>> brownouts_;
  std::vector<std::vector<ForecastFault>> forecast_faults_;
  std::vector<std::vector<Window>> outage_windows_;  // degraded-mask only
  std::vector<std::vector<Window>> admin_;  // last may be open (end==horizon)
  std::vector<std::vector<Window>> drains_;
  std::vector<char> admin_open_;
  std::vector<char> drain_open_;

  /// Link transitions due at a tick: (a, b, up); consumed by begin_tick.
  std::map<util::Tick,
           std::vector<std::tuple<std::size_t, std::size_t, bool>>>
      link_transitions_;
  /// Currently severed edges (canonical a < b), for restore.
  std::set<std::pair<std::size_t, std::size_t>> severed_;
  std::map<util::Tick, std::vector<core::ServerOutage>> outages_;
  /// Pending topology-epoch bumps; consumed by begin_tick.
  std::map<util::Tick, std::uint64_t> epoch_bumps_;
  std::uint64_t epoch_ = 0;
  std::uint64_t accepted_ = 0;

  /// Per-site fault masks, tick-indexed (site * n_ticks + t).
  std::vector<char> down_;
  std::vector<char> degraded_;

  InvariantChecker checker_;
  /// Per-site blackout mask of the tick being checked (reused scratch).
  std::vector<char> down_now_;
};

}  // namespace vbatt::fault
