#include "vbatt/energy/cost.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "vbatt/util/rng.h"

namespace vbatt::energy {

CostSummary evaluate_economics(const CostModelConfig& config,
                               const PowerTrace& trace) {
  if (config.power_share_of_opex < 0.0 || config.power_share_of_opex > 1.0 ||
      config.transmission_share_of_power < 0.0 ||
      config.transmission_share_of_power > 1.0 ||
      config.curtailment_fraction < 0.0 ||
      config.curtailment_fraction > 1.0) {
    throw std::invalid_argument{"CostModelConfig: fractions out of [0, 1]"};
  }
  CostSummary summary;
  summary.opex_saving_fraction =
      config.power_share_of_opex * config.transmission_share_of_power;
  summary.recoverable_curtailed_mwh =
      trace.total_energy_mwh() * config.curtailment_fraction;
  summary.recoverable_value_usd =
      summary.recoverable_curtailed_mwh * config.wholesale_usd_per_mwh;
  return summary;
}

SiteSeries make_price_series(const PriceSeriesConfig& config,
                             const util::TimeAxis& axis, std::size_t n_sites,
                             std::size_t n_ticks) {
  if (config.swing_usd_per_mwh < 0.0 || config.site_spread_usd_per_mwh < 0.0) {
    throw std::invalid_argument{"PriceSeriesConfig: negative swing or spread"};
  }
  SiteSeries series{n_sites, n_ticks};
  // The diurnal curve is the same at every site: compute it once, then add
  // each site's offset (the sum is (base + swing * cos) + offset, as if
  // written out per site).
  std::vector<double> curve(n_ticks);
  for (std::size_t t = 0; t < n_ticks; ++t) {
    const double hour = axis.hour_of_day(static_cast<util::Tick>(t));
    curve[t] = config.base_usd_per_mwh +
               config.swing_usd_per_mwh *
                   std::cos(2.0 * std::numbers::pi *
                            (hour - config.peak_hour) / 24.0);
  }
  for (std::size_t s = 0; s < n_sites; ++s) {
    util::Rng rng{util::seed_for(config.seed, "price-site", s)};
    const double offset = rng.uniform(-config.site_spread_usd_per_mwh,
                                      config.site_spread_usd_per_mwh);
    for (std::size_t t = 0; t < n_ticks; ++t) {
      series.at(s, t) = curve[t] + offset;
    }
  }
  return series;
}

}  // namespace vbatt::energy
