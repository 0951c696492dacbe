#include "vbatt/testkit/forecast_reference.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "vbatt/util/rng.h"

namespace vbatt::testkit {

namespace {

// Centered moving average, window clipped at the edges: the plain double
// loop, summed from 0.0 left to right per output.
std::vector<double> naive_moving_average(const std::vector<double>& a,
                                         std::size_t w) {
  const std::size_t n = a.size();
  std::vector<double> out(n);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(w) / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(i) - half);
    const auto hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(n) - 1,
        static_cast<std::ptrdiff_t>(i) + half);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      sum += a[static_cast<std::size_t>(j)];
    }
    out[i] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

// Mean normalized power per tick-of-day.
std::vector<double> climatology(const energy::PowerTrace& actual) {
  const auto per_day =
      static_cast<std::size_t>(actual.axis().ticks_per_day());
  std::vector<double> sum(per_day, 0.0);
  std::vector<std::size_t> count(per_day, 0);
  const auto& series = actual.normalized_series();
  for (std::size_t i = 0; i < series.size(); ++i) {
    sum[i % per_day] += series[i];
    ++count[i % per_day];
  }
  for (std::size_t i = 0; i < per_day; ++i) {
    sum[i] = count[i] ? sum[i] / static_cast<double>(count[i]) : 0.0;
  }
  return sum;
}

}  // namespace

std::vector<double> reference_forecast(const energy::PowerTrace& actual,
                                       double lead_hours,
                                       const energy::ForecastConfig& config) {
  if (lead_hours < 0.0) {
    throw std::invalid_argument{"forecast: negative lead"};
  }
  const auto& series = actual.normalized_series();
  const std::size_t n = series.size();
  if (n == 0) return {};
  const util::TimeAxis& axis = actual.axis();
  const bool solar = actual.source() == energy::Source::solar;

  const std::vector<double> clim = climatology(actual);
  const auto per_day = static_cast<std::size_t>(axis.ticks_per_day());
  constexpr double clim_floor = 0.02;

  // 1. Masked centered smoothing of the ratio actual / climatology.
  std::vector<double> ratio(n, 0.0);
  std::vector<double> valid(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = clim[i % per_day];
    if (c > clim_floor) {
      ratio[i] = series[i] / c;
      valid[i] = 1.0;
    }
  }
  const auto window_ticks = static_cast<std::size_t>(std::max<util::Tick>(
      1, axis.from_hours(config.window_per_lead * lead_hours)));
  std::vector<double> masked(n);
  for (std::size_t i = 0; i < n; ++i) masked[i] = ratio[i] * valid[i];
  const std::vector<double> num = naive_moving_average(masked, window_ticks);
  const std::vector<double> den = naive_moving_average(valid, window_ticks);
  std::vector<double> smoothed(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (den[i] > 1e-9) smoothed[i] = num[i] / den[i];
  }

  // 2. Climatology blend beta(L).
  const double half_life = solar ? config.beta_half_life_solar_hours
                                 : config.beta_half_life_wind_hours;
  const double beta_max = solar ? config.beta_max_solar : config.beta_max_wind;
  const double beta =
      lead_hours <= 0.0 ? 0.0
                        : beta_max * lead_hours / (lead_hours + half_life);

  // 3. AR(1) multiplicative noise, seeded by (seed, source, lead minutes).
  const double sigma =
      (solar ? config.sigma0_solar : config.sigma0_wind) +
      (solar ? config.sigma1_solar : config.sigma1_wind) *
          std::sqrt(std::max(0.0, lead_hours) / 24.0);
  util::Rng rng{util::seed_for(
      config.seed, solar ? "fc-solar" : "fc-wind",
      static_cast<std::uint64_t>(lead_hours * 60.0))};
  const double dt = axis.minutes_per_tick() / 60.0;
  const double decay = std::exp(-dt / config.noise_decay_hours);
  const double step_sigma = sigma * std::sqrt(1.0 - decay * decay);

  std::vector<double> out(n);
  double noise = sigma * rng.normal();
  for (std::size_t i = 0; i < n; ++i) {
    noise = noise * decay + step_sigma * rng.normal();
    const double c = clim[i % per_day];
    if (c <= clim_floor) {
      out[i] = std::clamp(c, 0.0, 1.0);
      continue;
    }
    const double r_hat = (1.0 - beta) * smoothed[i] + beta * 1.0;
    out[i] = std::clamp(c * r_hat * (1.0 + noise), 0.0, 1.0);
  }
  return out;
}

std::vector<energy::ForecastInput> forecast_inputs(
    std::span<const energy::PowerTrace> traces) {
  std::vector<energy::ForecastInput> inputs;
  inputs.reserve(traces.size());
  for (const energy::PowerTrace& trace : traces) {
    inputs.push_back({trace.normalized_series(), trace.source()});
  }
  return inputs;
}

}  // namespace vbatt::testkit
