#include "vbatt/energy/forecast.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "vbatt/stats/series.h"
#include "vbatt/util/rng.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::energy {

Forecaster::Forecaster(ForecastConfig config) : config_{config} {
  if (config_.window_per_lead <= 0.0) {
    throw std::invalid_argument{"ForecastConfig: window_per_lead <= 0"};
  }
}

std::vector<double> Forecaster::climatology(
    std::span<const double> power_norm, const util::TimeAxis& axis) {
  const auto per_day = static_cast<std::size_t>(axis.ticks_per_day());
  std::vector<double> sum(per_day, 0.0);
  std::vector<std::size_t> count(per_day, 0);
  for (std::size_t i = 0; i < power_norm.size(); ++i) {
    sum[i % per_day] += power_norm[i];
    ++count[i % per_day];
  }
  for (std::size_t i = 0; i < per_day; ++i) {
    sum[i] = count[i] ? sum[i] / static_cast<double>(count[i]) : 0.0;
  }
  return sum;
}

std::vector<double> Forecaster::forecast(const PowerTrace& actual,
                                         double lead_hours) const {
  const ForecastInput input{actual.normalized_series(), actual.source()};
  return std::move(forecast(std::span{&input, 1}, actual.axis(),
                            std::span{&lead_hours, 1})
                       .front()
                       .front());
}

std::vector<std::vector<std::vector<double>>> Forecaster::forecast(
    std::span<const ForecastInput> inputs, const util::TimeAxis& axis,
    std::span<const double> leads, util::ThreadPool* pool) const {
  for (const double lead : leads) {
    if (lead < 0.0) throw std::invalid_argument{"forecast: negative lead"};
  }
  std::vector<std::vector<std::vector<double>>> out;
  if (inputs.empty()) return out;
  const std::size_t n = inputs.front().power_norm.size();
  // noise_by_source[solar ? 0 : 1][l], drawn the first time an input of
  // that source shows up. Sharing it is exact because the stream is keyed
  // without the site (see forecast.h).
  std::array<std::vector<std::vector<double>>, 2> noise_by_source;
  for (const ForecastInput& input : inputs) {
    if (input.power_norm.size() != n) {
      throw std::invalid_argument{"forecast: series must share one length"};
    }
    auto& table = noise_by_source[input.source == Source::solar ? 0 : 1];
    if (table.empty() && n > 0) {
      table.reserve(leads.size());
      for (const double lead : leads) {
        table.push_back(noise_series(input.source, lead, axis, n));
      }
    }
  }
  // Every output buffer is allocated here, on the calling thread, so a
  // worker only fills memory the caller owns: buffers a worker allocated
  // would return to that worker's malloc arena when the caller frees them
  // and stay stranded there.
  out.assign(inputs.size(), std::vector<std::vector<double>>(
                                leads.size(), std::vector<double>(n)));
  const auto run = [&](std::size_t first, std::size_t last) {
    for (std::size_t s = first; s < last; ++s) {
      const ForecastInput& input = inputs[s];
      forecast_leads(input, axis, leads,
                     noise_by_source[input.source == Source::solar ? 0 : 1],
                     out[s]);
    }
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->parallel_for(inputs.size(), run);
  } else {
    run(0, inputs.size());
  }
  return out;
}

std::vector<double> Forecaster::noise_series(Source source,
                                             double lead_hours,
                                             const util::TimeAxis& axis,
                                             std::size_t n) const {
  // AR(1) multiplicative noise whose scale grows with lead. Seeded by
  // (seed, source, lead quantized to minutes) for determinism.
  const bool solar = source == Source::solar;
  const double sigma =
      (solar ? config_.sigma0_solar : config_.sigma0_wind) +
      (solar ? config_.sigma1_solar : config_.sigma1_wind) *
          std::sqrt(std::max(0.0, lead_hours) / 24.0);
  util::Rng rng{util::seed_for(
      config_.seed, solar ? "fc-solar" : "fc-wind",
      static_cast<std::uint64_t>(lead_hours * 60.0))};
  const double dt = axis.minutes_per_tick() / 60.0;
  const double decay = std::exp(-dt / config_.noise_decay_hours);
  const double step_sigma = sigma * std::sqrt(1.0 - decay * decay);

  std::vector<double> out(n);
  double noise = sigma * rng.normal();
  for (std::size_t i = 0; i < n; ++i) {
    noise = noise * decay + step_sigma * rng.normal();
    out[i] = noise;
  }
  return out;
}

void Forecaster::forecast_leads(
    const ForecastInput& input, const util::TimeAxis& axis,
    std::span<const double> leads,
    const std::vector<std::vector<double>>& noise_table,
    std::vector<std::vector<double>>& out) const {
  const std::span<const double> series = input.power_norm;
  const std::size_t n = series.size();
  if (n == 0) return;
  const bool solar = input.source == Source::solar;

  const std::vector<double> clim = climatology(series, axis);
  const auto per_day = static_cast<std::size_t>(axis.ticks_per_day());
  constexpr double clim_floor = 0.02;

  // 1. Work in the shape-preserving ratio domain r = actual / climatology.
  //    Smoothing r over a lead-dependent window blurs weather regimes
  //    without destroying the diurnal shape (a week-ahead solar forecast
  //    still knows day from night). Centered smoothing is the "oracle
  //    smoothing" surrogate: a weather model legitimately sees the future,
  //    only blurrier the further out. Nights (climatology at the floor)
  //    are masked: they contribute neither value nor weight, so a
  //    multi-day solar smoothing window sees only daytime regimes.
  //    valid_before[i] counts the unmasked ticks in [0, i), so any
  //    window's weight is an exact integer difference.
  std::vector<double> ratio(n, 0.0);
  std::vector<std::size_t> valid_before(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = clim[i % per_day];
    const bool valid = c > clim_floor;
    if (valid) ratio[i] = series[i] / c;
    valid_before[i + 1] = valid_before[i] + (valid ? 1 : 0);
  }

  for (std::size_t l = 0; l < leads.size(); ++l) {
    const double lead_hours = leads[l];
    const auto window_ticks = static_cast<std::size_t>(std::max<util::Tick>(
        1, axis.from_hours(config_.window_per_lead * lead_hours)));
    const std::size_t half = window_ticks / 2;
    // Masked moving average = moving_average(ratio) / moving_average(mask).
    // The mask average is a count over the same clipped window, divided
    // by the window size exactly as moving_average divides its sum.
    const std::vector<double> num = stats::moving_average(ratio, window_ticks);

    // 2. Blend the smoothed ratio toward 1 (= pure climatology) with a
    //    weight that grows with lead.
    const double half_life = solar ? config_.beta_half_life_solar_hours
                                   : config_.beta_half_life_wind_hours;
    const double beta_max =
        solar ? config_.beta_max_solar : config_.beta_max_wind;
    const double beta =
        lead_hours <= 0.0
            ? 0.0
            : beta_max * lead_hours / (lead_hours + half_life);

    // 3. Apply the (source, lead) noise stream.
    const std::vector<double>& lead_noise = noise_table[l];
    std::vector<double>& fc = out[l];
    // k = i % per_day, advanced without a division per tick.
    for (std::size_t i = 0, k = 0; i < n;
         ++i, k = k + 1 == per_day ? 0 : k + 1) {
      const double c = clim[k];
      if (c <= clim_floor) {
        // A forecaster always knows the deterministic near-zero regime
        // (solar night); emit the climatological residue unchanged.
        fc[i] = std::clamp(c, 0.0, 1.0);
        continue;
      }
      const std::size_t lo = i >= half ? i - half : 0;
      const std::size_t hi = std::min(n - 1, i + half);
      const double den =
          static_cast<double>(valid_before[hi + 1] - valid_before[lo]) /
          static_cast<double>(hi - lo + 1);
      const double smoothed = den > 1e-9 ? num[i] / den : 1.0;
      const double r_hat = (1.0 - beta) * smoothed + beta * 1.0;
      fc[i] = std::clamp(c * r_hat * (1.0 + lead_noise[i]), 0.0, 1.0);
    }
  }
}

double Forecaster::measured_mape(const PowerTrace& actual, double lead_hours,
                                 double floor) const {
  return stats::mape(actual.normalized_series(), forecast(actual, lead_hours),
                     floor);
}

}  // namespace vbatt::energy
