#include "vbatt/energy/wind.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace vbatt::energy {

double PowerCurve::power(double v) const noexcept {
  if (v < cut_in || v >= cut_out) return 0.0;
  if (v >= rated) return 1.0;
  const double v3 = v * v * v;
  const double ci3 = cut_in * cut_in * cut_in;
  const double r3 = rated * rated * rated;
  return std::clamp((v3 - ci3) / (r3 - ci3), 0.0, 1.0);
}

WindModel::WindModel(WindConfig config) : config_{config} {
  if (config_.peak_mw <= 0.0) {
    throw std::invalid_argument{"WindConfig: peak_mw <= 0"};
  }
  if (!(config_.curve.cut_in < config_.curve.rated &&
        config_.curve.rated < config_.curve.cut_out)) {
    throw std::invalid_argument{"WindConfig: power curve speeds not ordered"};
  }
}

double WindModel::mean_speed(const util::TimeAxis& axis,
                             util::Tick t) const noexcept {
  const int doy =
      static_cast<int>((config_.start_day_of_year + axis.day_index(t)) % 365);
  // Winter maximum: opposite phase to the solar seasonal term.
  const double season =
      -std::sin(2.0 * std::numbers::pi * (doy - 80) / 365.0);
  const double hour = axis.hour_of_day(t);
  const double diurnal =
      config_.diurnal_amplitude_speed *
      std::cos(2.0 * std::numbers::pi * (hour - config_.diurnal_peak_hour) /
               24.0);
  return config_.base_speed + config_.seasonal_swing_speed * season + diurnal;
}

PowerTrace WindModel::generate(const util::TimeAxis& axis,
                               std::size_t n_ticks) const {
  std::vector<double> out(n_ticks);
  generate_into(axis, generate_front(config_.front, axis, n_ticks), out);
  return PowerTrace{axis, config_.peak_mw, std::move(out), Source::wind};
}

void WindModel::generate_into(const util::TimeAxis& axis,
                              const std::vector<double>& front,
                              std::span<double> out) const {
  const std::size_t n_ticks = out.size();
  if (front.size() != n_ticks) {
    throw std::invalid_argument{"WindModel: front length mismatch"};
  }
  util::Rng rng{util::seed_for(config_.seed, "wind-gust")};
  const std::vector<double> gust = generate_ou(
      rng, axis, n_ticks, config_.gust_theta_per_hour, config_.gust_sigma);

  // Storm surge speed additions (trapezoid: 30 min ramps).
  std::vector<double> surge(n_ticks, 0.0);
  if (config_.storm_mean_gap_days > 0.0) {
    util::Rng storm_rng{util::seed_for(config_.seed, "wind-storm")};
    const double ramp_hours = 0.5;
    double cursor_hours =
        storm_rng.exponential(config_.storm_mean_gap_days * 24.0);
    const double span_hours =
        axis.hours(static_cast<util::Tick>(n_ticks));
    while (cursor_hours < span_hours) {
      const double duration = storm_rng.uniform(config_.storm_min_hours,
                                                config_.storm_max_hours);
      const double amplitude = storm_rng.uniform(config_.storm_min_speed,
                                                 config_.storm_max_speed);
      const util::Tick begin = axis.from_hours(cursor_hours);
      const util::Tick end = axis.from_hours(cursor_hours + duration);
      for (util::Tick t = std::max<util::Tick>(0, begin);
           t < std::min<util::Tick>(static_cast<util::Tick>(n_ticks), end);
           ++t) {
        const double into = axis.hours(t) - cursor_hours;
        const double left = cursor_hours + duration - axis.hours(t);
        const double envelope =
            std::min({1.0, into / ramp_hours, left / ramp_hours});
        surge[static_cast<std::size_t>(t)] =
            amplitude * std::max(0.0, envelope);
      }
      cursor_hours += duration +
                      storm_rng.exponential(config_.storm_mean_gap_days * 24.0);
    }
  }

  for (std::size_t i = 0; i < n_ticks; ++i) {
    const auto t = static_cast<util::Tick>(i);
    const double v = mean_speed(axis, t) +
                     config_.front_loading_speed * front[i] + gust[i] +
                     surge[i];
    out[i] = config_.curve.power(std::max(0.0, v));
  }
}

}  // namespace vbatt::energy
