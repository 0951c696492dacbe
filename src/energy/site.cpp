#include "vbatt/energy/site.h"

#include <stdexcept>

#include "vbatt/util/rng.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::energy {

PowerTrace SiteSpec::generate(const util::TimeAxis& axis,
                              std::size_t n_ticks) const {
  if (source == Source::solar) {
    return SolarModel{solar}.generate(axis, n_ticks);
  }
  return WindModel{wind}.generate(axis, n_ticks);
}

Fleet generate_fleet(const FleetConfig& config, const util::TimeAxis& axis,
                     std::size_t n_ticks) {
  return generate_fleet(config, axis, n_ticks, &util::ThreadPool::shared());
}

Fleet generate_fleet(const FleetConfig& config, const util::TimeAxis& axis,
                     std::size_t n_ticks, util::ThreadPool* pool) {
  if (config.n_solar < 0 || config.n_wind < 0 ||
      config.n_solar + config.n_wind == 0) {
    throw std::invalid_argument{"FleetConfig: need at least one site"};
  }
  if (config.n_fronts <= 0) {
    throw std::invalid_argument{"FleetConfig: n_fronts must be positive"};
  }

  util::Rng geo_rng{util::seed_for(config.seed, "fleet-geo")};
  Fleet fleet;
  fleet.axis = axis;
  const auto n_sites = static_cast<std::size_t>(config.n_solar) +
                       static_cast<std::size_t>(config.n_wind);
  fleet.specs.reserve(n_sites);
  int id = 0;

  for (int i = 0; i < config.n_solar; ++i, ++id) {
    SiteSpec spec;
    spec.id = id;
    spec.name = "solar-" + std::to_string(i);
    spec.source = Source::solar;
    spec.peak_mw = config.peak_mw;
    spec.location = {geo_rng.uniform(0.0, config.region_km),
                     geo_rng.uniform(0.0, config.region_km)};
    spec.solar.peak_mw = config.peak_mw;
    spec.solar.start_day_of_year = config.start_day_of_year;
    // Longitude spread: solar noon shifts up to ±1.25 h across the region.
    spec.solar.noon_hour =
        12.5 + 2.5 * (spec.location.x_km / config.region_km - 0.5);
    spec.solar.seed = util::seed_for(config.seed, "fleet-solar",
                                     static_cast<std::uint64_t>(i));
    fleet.specs.push_back(spec);
  }

  // One path per regional front, generated when the first site loading
  // on it is laid out. Fleet wind sites differ in their front config only
  // by its seed, which depends on the front id alone, so later sites
  // reuse the path.
  std::vector<std::vector<double>> fronts;

  for (int i = 0; i < config.n_wind; ++i, ++id) {
    SiteSpec spec;
    spec.id = id;
    spec.name = "wind-" + std::to_string(i);
    spec.source = Source::wind;
    spec.peak_mw = config.peak_mw;
    spec.location = {geo_rng.uniform(0.0, config.region_km),
                     geo_rng.uniform(0.0, config.region_km)};
    spec.wind.peak_mw = config.peak_mw;
    spec.wind.start_day_of_year = config.start_day_of_year;
    // Wind sites share one of `n_fronts` regional weather systems and load
    // on it with alternating sign — adjacent indices are complementary.
    const int front_id = i % config.n_fronts;
    spec.wind.front.seed = util::seed_for(
        config.seed, "fleet-front", static_cast<std::uint64_t>(front_id));
    const double sign = (i / config.n_fronts) % 2 == 0 ? 1.0 : -1.0;
    spec.wind.front_loading_speed = sign * 2.0;
    spec.wind.base_speed = 7.8;
    spec.wind.gust_sigma = 0.40;
    if (!config.enable_storms) spec.wind.storm_mean_gap_days = 0.0;
    // Mild nocturnal wind maximum, complementing the fleet's solar sites.
    spec.wind.diurnal_amplitude_speed = 0.7;
    spec.wind.diurnal_peak_hour = 1.0;
    spec.wind.seed = util::seed_for(config.seed, "fleet-wind",
                                    static_cast<std::uint64_t>(i));
    if (static_cast<std::size_t>(front_id) == fronts.size()) {
      fronts.push_back(generate_front(spec.wind.front, axis, n_ticks));
    }
    fleet.specs.push_back(spec);
  }

  // Every sample buffer is allocated here, on the calling thread, for the
  // reason Forecaster::forecast gives: a buffer a worker allocated would
  // go back to that worker's malloc arena when the fleet is freed.
  std::vector<std::vector<double>> samples(n_sites,
                                           std::vector<double>(n_ticks));
  const auto run = [&](std::size_t first, std::size_t last) {
    for (std::size_t s = first; s < last; ++s) {
      const SiteSpec& spec = fleet.specs[s];
      if (spec.source == Source::solar) {
        SolarModel{spec.solar}.generate_into(axis, samples[s]);
      } else {
        const std::size_t wind_index = s - static_cast<std::size_t>(
                                               config.n_solar);
        WindModel{spec.wind}.generate_into(
            axis,
            fronts[wind_index % static_cast<std::size_t>(config.n_fronts)],
            samples[s]);
      }
    }
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->parallel_for(n_sites, run);
  } else {
    run(0, n_sites);
  }
  fleet.traces.reserve(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    const SiteSpec& spec = fleet.specs[s];
    fleet.traces.emplace_back(axis, spec.peak_mw, std::move(samples[s]),
                              spec.source);
  }
  return fleet;
}

}  // namespace vbatt::energy
