#include "vbatt/core/vb_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vbatt/util/thread_pool.h"

namespace vbatt::core {

namespace {

net::LatencyGraph build_latency(const energy::Fleet& fleet,
                                const VbGraphConfig& config) {
  std::vector<util::GeoPoint> points;
  points.reserve(fleet.specs.size());
  for (const energy::SiteSpec& spec : fleet.specs) {
    points.push_back(spec.location);
  }
  return net::LatencyGraph{points, config.rtt, config.rtt_threshold_ms};
}

}  // namespace

VbGraph::VbGraph(const energy::Fleet& fleet, const VbGraphConfig& config)
    : axis_{fleet.axis},
      leads_hours_{config.forecast_leads_hours},
      latency_{build_latency(fleet, config)},
      forecaster_{config.forecaster},
      oracle_forecasts_{config.oracle_forecasts} {
  if (fleet.specs.size() != fleet.traces.size() || fleet.specs.empty()) {
    throw std::invalid_argument{"VbGraph: malformed fleet"};
  }
  if (!std::is_sorted(leads_hours_.begin(), leads_hours_.end())) {
    throw std::invalid_argument{"VbGraph: forecast leads must ascend"};
  }
  // Reject a forecast config the fill could not use now, as the eager
  // build did, rather than at some later first read.
  if (!oracle_forecasts_) {
    (void)energy::Forecaster{forecaster_};
    if (!leads_hours_.empty() && leads_hours_.front() < 0.0) {
      throw std::invalid_argument{"VbGraph: negative forecast lead"};
    }
  }
  n_ticks_ = fleet.traces.front().size();
  for (const energy::PowerTrace& trace : fleet.traces) {
    if (trace.size() != n_ticks_) {
      throw std::invalid_argument{"VbGraph: trace length mismatch"};
    }
  }

  sites_.reserve(fleet.specs.size());
  for (std::size_t i = 0; i < fleet.specs.size(); ++i) {
    const energy::SiteSpec& spec = fleet.specs[i];
    VbSite site;
    site.id = spec.id;
    site.name = spec.name;
    site.source = spec.source;
    site.location = spec.location;
    site.capacity_cores = static_cast<int>(
        std::lround(spec.peak_mw * config.cores_per_mw));
    site.power_norm = fleet.traces[i].normalized_series();
    sites_.push_back(std::move(site));
  }
}

VbGraph::Forecasts::Forecasts(const Forecasts& other) {
  const std::lock_guard<std::mutex> lock{other.mutex};
  series = other.series;
  built.store(other.built.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

VbGraph::Forecasts::Forecasts(Forecasts&& other) noexcept
    : built{other.built.load(std::memory_order_relaxed)},
      series{std::move(other.series)} {
  other.built.store(false, std::memory_order_relaxed);
}

VbGraph::Forecasts& VbGraph::Forecasts::operator=(const Forecasts& other) {
  if (this != &other) *this = Forecasts{other};
  return *this;
}

VbGraph::Forecasts& VbGraph::Forecasts::operator=(Forecasts&& other) noexcept {
  series = std::move(other.series);
  built.store(other.built.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  other.built.store(false, std::memory_order_relaxed);
  return *this;
}

void VbGraph::build_forecasts() const {
  if (forecasts_.built.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock{forecasts_.mutex};
  if (forecasts_.built.load(std::memory_order_relaxed)) return;
  if (oracle_forecasts_) {
    forecasts_.series.resize(sites_.size());
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      forecasts_.series[s].assign(leads_hours_.size(), sites_[s].power_norm);
    }
  } else {
    // Every site's forecasts at every lead in one bulk call, which shares
    // the per-site and per-(source, lead) work across the leads and sites.
    // It reads the power series in place: no trace is rebuilt for it.
    std::vector<energy::ForecastInput> inputs;
    inputs.reserve(sites_.size());
    for (const VbSite& site : sites_) {
      inputs.push_back({site.power_norm, site.source});
    }
    forecasts_.series = energy::Forecaster{forecaster_}.forecast(
        inputs, axis_, leads_hours_, util::ThreadPool::shared());
  }
  forecasts_.built.store(true, std::memory_order_release);
}

const std::vector<std::vector<double>>& VbGraph::forecast_norm(
    std::size_t s) const {
  build_forecasts();
  return forecasts_.series.at(s);
}

std::vector<VbSite>& VbGraph::mutable_sites() {
  build_forecasts();
  return sites_;
}

std::vector<std::vector<double>>& VbGraph::mutable_forecast_norm(
    std::size_t s) {
  build_forecasts();
  return forecasts_.series.at(s);
}

int VbGraph::available_cores(std::size_t s, util::Tick t) const {
  const VbSite& site = sites_.at(s);
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) {
    throw std::out_of_range{"VbGraph::available_cores: bad tick"};
  }
  return static_cast<int>(std::floor(
      site.power_norm[static_cast<std::size_t>(t)] * site.capacity_cores));
}

int VbGraph::forecast_cores(std::size_t s, util::Tick target,
                            util::Tick now) const {
  const VbSite& site = sites_.at(s);
  if (target < 0 || static_cast<std::size_t>(target) >= n_ticks_) {
    throw std::out_of_range{"VbGraph::forecast_cores: bad tick"};
  }
  if (target <= now) return available_cores(s, target);
  const std::vector<std::vector<double>>& forecast = forecast_norm(s);
  const double lead_hours = axis_.hours(target - now);
  std::size_t idx = leads_hours_.size() - 1;
  for (std::size_t i = 0; i < leads_hours_.size(); ++i) {
    if (leads_hours_[i] >= lead_hours) {
      idx = i;
      break;
    }
  }
  const double norm = forecast[idx][static_cast<std::size_t>(target)];
  return static_cast<int>(std::floor(norm * site.capacity_cores));
}

std::vector<int> VbGraph::forecast_series(std::size_t s, util::Tick now,
                                          util::Tick begin,
                                          util::Tick end) const {
  const VbSite& site = sites_.at(s);
  if (begin < 0 || begin > end ||
      static_cast<std::size_t>(end) > n_ticks_) {
    throw std::out_of_range{"VbGraph::forecast_series: bad range"};
  }
  const std::vector<std::vector<double>>& forecast = forecast_norm(s);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  const double cap = site.capacity_cores;

  // Oracle region: target <= now reads the actual series.
  const util::Tick oracle_end = std::clamp<util::Tick>(now + 1, begin, end);
  for (util::Tick t = begin; t < oracle_end; ++t) {
    out.push_back(static_cast<int>(
        std::floor(site.power_norm[static_cast<std::size_t>(t)] * cap)));
  }

  // Forecast region: the lead grows monotonically with the target, so one
  // forward walk over the ascending lead table replaces the per-tick scan
  // forecast_cores does. Snapping matches forecast_cores exactly: first
  // lead >= the query lead, else the last (blurriest) one.
  std::size_t idx = 0;
  const std::size_t last = leads_hours_.size() - 1;
  for (util::Tick t = oracle_end; t < end; ++t) {
    const double lead_hours = axis_.hours(t - now);
    while (idx < last && leads_hours_[idx] < lead_hours) ++idx;
    out.push_back(static_cast<int>(std::floor(
        forecast[idx][static_cast<std::size_t>(t)] * cap)));
  }
  return out;
}

}  // namespace vbatt::core
