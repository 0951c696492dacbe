// The VB fleet graph (§3.1, Figure 6).
//
// Nodes are VB sites carrying capacity, actual power, and multi-horizon
// forecasts; edges connect sites whose RTT is under the scheduling
// threshold (50 ms). This is the input to subgraph identification and to
// every scheduler.
#pragma once

#include <cstdint>
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
  /// Forecast series per lead (parallel to VbGraph::forecast_leads_hours).
  std::vector<std::vector<double>> forecast_norm;
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
class VbGraph {
 public:
  /// The per-site forecasts fan over util::ThreadPool::shared(), so a
  /// VbGraph must not be built inside one of that pool's tasks
  /// (parallel_for throws when called from the pool's own workers).
  VbGraph(const energy::Fleet& fleet, const VbGraphConfig& config);

  std::size_t n_sites() const noexcept { return sites_.size(); }
  std::size_t n_ticks() const noexcept { return n_ticks_; }
  const util::TimeAxis& axis() const noexcept { return axis_; }
  const VbSite& site(std::size_t s) const { return sites_.at(s); }
  const std::vector<VbSite>& sites() const noexcept { return sites_; }
  const net::LatencyGraph& latency() const noexcept { return latency_; }

  // Fault-injection seams (vbatt::fault bakes faults into a *copy* of the
  // graph through these; nothing else mutates a built graph, so the
  // schedulers' immutability assumption holds on the original).
  std::vector<VbSite>& mutable_sites() noexcept { return sites_; }
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
  util::TimeAxis axis_{};
  std::size_t n_ticks_ = 0;
  std::vector<VbSite> sites_;
  std::vector<double> leads_hours_;
  net::LatencyGraph latency_;
};

}  // namespace vbatt::core
