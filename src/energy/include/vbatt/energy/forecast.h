// Multi-horizon power forecasts.
//
// ELIA ships weather-model forecasts with its production data; the paper
// (Fig. 5) reports their accuracy as MAPE ≈ 8.5-9% at 3 hours ahead,
// 18-25% day-ahead and 44-75% (solar-wind) week-ahead, and notes that the
// sharp power changes driving migrations are predictable about a day out.
//
// We emulate such a forecaster without a weather model: the forecast at
// lead L is the actual series smoothed over a window that grows with L
// (an "oracle-smoothing" surrogate — a weather model knows the future, but
// blurrier the further out), blended toward the empirical climatology and
// perturbed by AR(1) multiplicative noise whose scale grows with L. The
// three knobs are calibrated per source so the measured MAPE lands in the
// paper's bands; tests assert that.
//
// The noise stream is keyed by (config seed, source, lead) only: every
// site of one source sees the same noise series at a given lead. The bulk
// forecast() draws each (source, lead) series once and shares it across
// the series it is given; that sharing is exact only because of this
// keying. Per-site noise would have to add the site to the key, and the
// bulk path would then have to key its noise table by site too.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "vbatt/energy/trace.h"
#include "vbatt/util/time.h"

namespace vbatt::util {
class ThreadPool;
}

namespace vbatt::energy {

/// One series of the bulk forecast: a site's normalized power (one value
/// per tick of the shared axis, in [0, 1]) and the source that produced
/// it. A view: the caller keeps the series alive for the call.
struct ForecastInput {
  std::span<const double> power_norm;
  Source source = Source::solar;
};

struct ForecastConfig {
  /// Smoothing window as a fraction of the lead time.
  double window_per_lead = 0.22;

  /// Climatology blend beta(L) = beta_max * L / (L + half_life).
  double beta_max_solar = 0.25;
  double beta_half_life_solar_hours = 120.0;
  double beta_max_wind = 0.60;
  double beta_half_life_wind_hours = 120.0;

  /// Multiplicative noise sigma(L) = s0 + s1 * sqrt(L / 24h).
  double sigma0_solar = 0.045;
  double sigma1_solar = 0.065;
  double sigma0_wind = 0.050;
  double sigma1_wind = 0.090;

  /// AR(1) correlation time of the noise, hours.
  double noise_decay_hours = 6.0;

  std::uint64_t seed = 21;
};

/// Produces forecast series for a PowerTrace at arbitrary lead times.
/// Deterministic given (config, trace, lead): repeated calls agree, and the
/// scheduler can regenerate forecasts instead of storing them.
class Forecaster {
 public:
  explicit Forecaster(ForecastConfig config = {});

  /// Forecast of the trace's whole span made `lead_hours` in advance.
  /// Element t is the prediction for tick t. Values lie in [0, 1].
  std::vector<double> forecast(const PowerTrace& actual,
                               double lead_hours) const;

  /// Bulk form: out[s][l] is the forecast of inputs[s] at leads[l], bit
  /// for bit what forecast(trace, leads[l]) gives for a trace with that
  /// normalized series and source on `axis`. Climatology and the
  /// ratio/mask are computed once per input, and the noise once per
  /// (source, lead) for all inputs. Every series must have the same
  /// length. The noise tables are drawn and every output buffer is sized
  /// on the calling thread; the per-input work then fans over `pool`
  /// (serial when it has no workers). Each input writes only its own
  /// presized slot, so the result is the same at any lane count.
  std::vector<std::vector<std::vector<double>>> forecast(
      std::span<const ForecastInput> inputs, const util::TimeAxis& axis,
      std::span<const double> leads, util::ThreadPool& pool) const;

  /// Empirical climatology of a normalized series on `axis`: mean power
  /// per tick-of-day. Returned series has ticks_per_day entries.
  static std::vector<double> climatology(std::span<const double> power_norm,
                                         const util::TimeAxis& axis);

  /// Measured MAPE (%) of this forecaster on `actual` at a lead, skipping
  /// points with actual below `floor` (nights / becalmed periods).
  double measured_mape(const PowerTrace& actual, double lead_hours,
                       double floor = 0.02) const;

  const ForecastConfig& config() const noexcept { return config_; }

 private:
  /// AR(1) noise at one (source, lead) over `n` ticks of `axis`.
  std::vector<double> noise_series(Source source, double lead_hours,
                                   const util::TimeAxis& axis,
                                   std::size_t n) const;

  /// All leads of one input into `out` (out[l] presized to the series
  /// length); noise_table[l] is noise_series(source, leads[l], ...).
  void forecast_leads(const ForecastInput& input, const util::TimeAxis& axis,
                      std::span<const double> leads,
                      const std::vector<std::vector<double>>& noise_table,
                      std::vector<std::vector<double>>& out) const;

  ForecastConfig config_;
};

}  // namespace vbatt::energy
