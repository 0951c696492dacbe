#include "vbatt/energy/solar.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace vbatt::energy {

namespace {

double seasonal_sin(int day_of_year) noexcept {
  return std::sin(2.0 * std::numbers::pi * (day_of_year - 80) / 365.0);
}

}  // namespace

SolarModel::SolarModel(SolarConfig config) : config_{config} {
  if (config_.peak_mw <= 0.0) {
    throw std::invalid_argument{"SolarConfig: peak_mw <= 0"};
  }
  if (config_.day_length_mean_hours - config_.day_length_swing_hours <= 0.0) {
    throw std::invalid_argument{"SolarConfig: day length can reach zero"};
  }
}

double SolarModel::clear_sky(const util::TimeAxis& axis,
                             util::Tick t) const noexcept {
  const int doy =
      static_cast<int>((config_.start_day_of_year + axis.day_index(t)) % 365);
  const double season = seasonal_sin(doy);
  const double day_length = config_.day_length_mean_hours +
                            config_.day_length_swing_hours * season;
  const double amplitude =
      config_.amplitude_base + config_.amplitude_swing * season;
  const double hour = axis.hour_of_day(t);
  const double sunrise = config_.noon_hour - day_length / 2.0;
  const double sunset = config_.noon_hour + day_length / 2.0;
  if (hour <= sunrise || hour >= sunset) return 0.0;
  const double s =
      std::sin(std::numbers::pi * (hour - sunrise) / day_length);
  return amplitude * std::pow(s, 1.1);
}

PowerTrace SolarModel::generate(const util::TimeAxis& axis,
                                std::size_t n_ticks) const {
  std::vector<double> out(n_ticks);
  generate_into(axis, out);
  return PowerTrace{axis, config_.peak_mw, std::move(out), Source::solar};
}

void SolarModel::generate_into(const util::TimeAxis& axis,
                               std::span<double> out) const {
  const std::size_t n_ticks = out.size();
  const int days =
      static_cast<int>((n_ticks + static_cast<std::size_t>(axis.ticks_per_day()) - 1) /
                       static_cast<std::size_t>(axis.ticks_per_day()));
  SkyChainConfig sky = config_.sky;
  sky.seed = util::seed_for(config_.seed, "solar-sky");
  const std::vector<SkyState> states = generate_sky_states(sky, days);

  util::Rng rng{util::seed_for(config_.seed, "solar-cloud")};
  // One continuous unit-variance OU path; per-state sigma scales it so sky
  // transitions do not introduce discontinuities in the noise itself.
  const std::vector<double> noise =
      generate_ou(rng, axis, n_ticks, config_.cloud_theta_per_hour,
                  std::sqrt(2.0 * config_.cloud_theta_per_hour));

  util::Rng day_rng{util::seed_for(config_.seed, "solar-day")};
  std::vector<double> day_scale(states.size());
  for (std::size_t d = 0; d < states.size(); ++d) {
    day_scale[d] = 1.0 + 0.08 * day_rng.normal();
  }

  for (std::size_t i = 0; i < n_ticks; ++i) {
    const auto t = static_cast<util::Tick>(i);
    const auto day = static_cast<std::size_t>(axis.day_index(t));
    const SkyState state = states[day];
    double clearness = 0.0;
    double sigma = 0.0;
    switch (state) {
      case SkyState::sunny:
        clearness = config_.clearness_sunny;
        sigma = config_.cloud_sigma_sunny;
        break;
      case SkyState::variable:
        clearness = config_.clearness_variable;
        sigma = config_.cloud_sigma_variable;
        break;
      case SkyState::overcast:
        clearness = config_.clearness_overcast;
        sigma = config_.cloud_sigma_overcast;
        break;
    }
    clearness = std::clamp(clearness * day_scale[day] + sigma * noise[i],
                           0.0, 1.0);
    out[i] = std::clamp(clear_sky(axis, t) * clearness, 0.0, 1.0);
  }
}

}  // namespace vbatt::energy
