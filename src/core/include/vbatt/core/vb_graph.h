// The VB fleet graph (§3.1, Figure 6).
//
// Nodes are VB sites carrying capacity, actual power, and multi-horizon
// forecasts; edges connect sites whose RTT is under the scheduling
// threshold (50 ms). This is the input to subgraph identification and to
// every scheduler.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "vbatt/energy/forecast.h"
#include "vbatt/energy/site.h"
#include "vbatt/energy/trace.h"
#include "vbatt/net/latency.h"
#include "vbatt/util/time.h"

namespace vbatt::core {

/// One VB site as the scheduler sees it.
struct VbSite {
  int id = 0;
  std::string name;
  energy::Source source = energy::Source::solar;
  util::GeoPoint location{};
  /// Cluster size when fully powered.
  int capacity_cores = 0;
  /// Actual normalized power per tick.
  std::vector<double> power_norm;
};

struct VbGraphConfig {
  double rtt_threshold_ms = 50.0;
  net::RttModel rtt{};
  /// Fixed forecast leads precomputed per site; schedulers snap a query
  /// lead to the nearest not-smaller entry (conservative: farther lead =
  /// blurrier forecast). Must be ascending.
  std::vector<double> forecast_leads_hours{3.0, 6.0, 12.0, 24.0,
                                           48.0, 96.0, 168.0};
  energy::ForecastConfig forecaster{};
  /// Cores per MW of farm peak capacity (sizes each site's cluster so full
  /// farm output powers it completely, as in §3's setup).
  double cores_per_mw = 70.0;
  /// Oracle mode: forecasts are the actual series at every lead. Used by
  /// ablations to measure the value of forecast accuracy (§3.1's premise
  /// isolated from everything else).
  bool oracle_forecasts = false;
};

/// Immutable scheduling substrate built from a generated fleet.
///
/// The forecasts (one series per configured lead per site) are filled on
/// the first read, not at construction: Greedy and the fleet engine never
/// read one, and at the default 7 leads they are 7 doubles per site-tick,
/// more than the rest of such a run. The whole lead set is filled exactly once,
/// by whichever of these comes first:
///   - forecast_norm, forecast_series, or forecast_cores for a target past
///     `now` (earlier targets read the actual power);
///   - ForecastCache::refresh, which fills on its calling thread before it
///     fans forecast_series over its pool;
///   - the fault::StreamInjector constructor (it copies the forecasts as
///     its baseline) and svc::scenario_events (it streams them);
///   - mutable_sites() and mutable_forecast_norm(), so a fault baked into
///     the power series can never feed, or be overwritten by, a later fill;
///   - build_forecasts(), for callers that want the cost paid up front.
/// The fill fans the per-site work over util::ThreadPool::shared(); a first
/// read inside one of that pool's chunks, on the caller or on a worker,
/// fills inline (the pool's nesting rule). Both give the same bytes: the
/// noise is keyed per (seed, source, lead) and each site writes only its
/// own slot. Concurrent first reads are safe: one thread fills, the others
/// wait for it. The filler never waits on another thread's pool job (a
/// pool that is busy runs the fill inline), so a fill racing a shared-pool
/// job whose chunks first-read the same graph cannot deadlock; it only
/// loses the fan-out. ForecastCache::refresh fills before it fans out.
///
/// Copies and moves are independent graphs. A filled graph's copy carries
/// its forecasts; an unfilled graph's copy fills on its own first read, to
/// the same bytes, since it keeps the power series, axis and forecast
/// config the fill reads.
class VbGraph {
 public:
  VbGraph(const energy::Fleet& fleet, const VbGraphConfig& config);

  std::size_t n_sites() const noexcept { return sites_.size(); }
  std::size_t n_ticks() const noexcept { return n_ticks_; }
  const util::TimeAxis& axis() const noexcept { return axis_; }
  const VbSite& site(std::size_t s) const { return sites_.at(s); }
  const std::vector<VbSite>& sites() const noexcept { return sites_; }
  const net::LatencyGraph& latency() const noexcept { return latency_; }

  /// Site s's forecast series per lead (parallel to
  /// VbGraphConfig::forecast_leads_hours); fills the graph on first use.
  /// Oracle graphs hold the actual series at every lead.
  const std::vector<std::vector<double>>& forecast_norm(std::size_t s) const;

  /// Fill every forecast now, if nothing has yet (see the class comment).
  void build_forecasts() const;

  /// Whether the forecasts have been filled. An observer only: a fresh
  /// graph reports false until its first forecast read.
  bool forecasts_built() const noexcept {
    return forecasts_.built.load(std::memory_order_acquire);
  }

  // Fault-injection seams (vbatt::fault bakes faults into a *copy* of the
  // graph through these; nothing else mutates a built graph, so the
  // schedulers' immutability assumption holds on the original). Both fill
  // the forecasts first, from the pristine power series.
  std::vector<VbSite>& mutable_sites();
  std::vector<std::vector<double>>& mutable_forecast_norm(std::size_t s);
  net::LatencyGraph& mutable_latency() noexcept { return latency_; }

  /// Cores actually available at site `s`, tick `t`.
  int available_cores(std::size_t s, util::Tick t) const;

  /// Cores predicted available at `target` as seen from `now` (lead =
  /// target - now, snapped to the next precomputed horizon). A perfect
  /// oracle for target <= now.
  int forecast_cores(std::size_t s, util::Tick target, util::Tick now) const;

  /// Bulk forecast: element i is forecast_cores(s, begin + i, now) for
  /// every tick in [begin, end), value-identical to the per-tick calls.
  /// One bounds check and a single monotone walk over the lead table for
  /// the whole range instead of a lead search per tick — this is the
  /// hot-path API; ForecastCache materializes it once per replan.
  std::vector<int> forecast_series(std::size_t s, util::Tick now,
                                   util::Tick begin, util::Tick end) const;

 private:
  /// The first-read forecast fill: series[s][l] once `built`. Its own copy
  /// and move give every graph its own lock and flag; a copy takes the
  /// source's lock, so it sees the series either unfilled or whole.
  struct Forecasts {
    mutable std::mutex mutex;
    std::atomic<bool> built{false};
    std::vector<std::vector<std::vector<double>>> series;

    Forecasts() = default;
    Forecasts(const Forecasts& other);
    Forecasts(Forecasts&& other) noexcept;
    Forecasts& operator=(const Forecasts& other);
    Forecasts& operator=(Forecasts&& other) noexcept;
  };

  util::TimeAxis axis_{};
  std::size_t n_ticks_ = 0;
  std::vector<VbSite> sites_;
  std::vector<double> leads_hours_;
  net::LatencyGraph latency_;
  energy::ForecastConfig forecaster_{};
  bool oracle_forecasts_ = false;
  mutable Forecasts forecasts_;
};

}  // namespace vbatt::core
