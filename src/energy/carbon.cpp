#include "vbatt/energy/carbon.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "vbatt/util/rng.h"

namespace vbatt::energy {

double grid_intensity_gco2(const CarbonConfig& config,
                           const util::TimeAxis& axis, util::Tick t) {
  const double hour = axis.hour_of_day(t);
  return config.grid_base_gco2_per_kwh +
         config.grid_swing_gco2_per_kwh *
             std::cos(2.0 * std::numbers::pi *
                      (hour - config.grid_peak_hour) / 24.0);
}

CarbonReport compare_carbon(const CarbonConfig& config,
                            const util::TimeAxis& axis,
                            const std::vector<double>& consumption_mwh) {
  if (config.grid_base_gco2_per_kwh < config.grid_swing_gco2_per_kwh) {
    throw std::invalid_argument{
        "CarbonConfig: swing exceeds base (negative intensity)"};
  }
  if (config.renewable_gco2_per_kwh < 0.0) {
    throw std::invalid_argument{"CarbonConfig: negative renewable intensity"};
  }
  CarbonReport report;
  for (std::size_t i = 0; i < consumption_mwh.size(); ++i) {
    const double kwh = consumption_mwh[i] * 1000.0;
    report.grid_tco2 +=
        kwh *
        grid_intensity_gco2(config, axis, static_cast<util::Tick>(i)) / 1e6;
    report.vb_tco2 += kwh * config.renewable_gco2_per_kwh / 1e6;
  }
  return report;
}

SiteSeries make_carbon_series(const CarbonSeriesConfig& config,
                              const util::TimeAxis& axis, std::size_t n_sites,
                              std::size_t n_ticks) {
  if (config.grid.grid_base_gco2_per_kwh <
      config.grid.grid_swing_gco2_per_kwh) {
    throw std::invalid_argument{
        "CarbonConfig: swing exceeds base (negative intensity)"};
  }
  if (config.site_spread_gco2_per_kwh < 0.0) {
    throw std::invalid_argument{"CarbonSeriesConfig: negative spread"};
  }
  SiteSeries series{n_sites, n_ticks};
  // One grid curve for every site; each site adds its offset to it.
  std::vector<double> curve(n_ticks);
  for (std::size_t t = 0; t < n_ticks; ++t) {
    curve[t] =
        grid_intensity_gco2(config.grid, axis, static_cast<util::Tick>(t));
  }
  for (std::size_t s = 0; s < n_sites; ++s) {
    util::Rng rng{util::seed_for(config.seed, "carbon-site", s)};
    const double offset = rng.uniform(-config.site_spread_gco2_per_kwh,
                                      config.site_spread_gco2_per_kwh);
    for (std::size_t t = 0; t < n_ticks; ++t) {
      series.at(s, t) = std::max(0.0, curve[t] + offset);
    }
  }
  return series;
}

}  // namespace vbatt::energy
