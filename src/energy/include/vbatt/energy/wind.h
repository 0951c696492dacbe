// Synthetic wind production model.
//
// Wind speed = seasonal base + shared "front" weather system (with a
// per-site loading, enabling the anti-correlated site pairs of Fig. 3)
// + optional diurnal component + gust OU noise; speed goes through a
// standard turbine power curve (cubic between cut-in and rated, flat to
// cut-out). Calibration targets from Fig. 2b: median ≤20% of peak, rarely
// exactly zero, 99th/75th percentile ratio ≈2x, sharp multi-hour peaks
// and valleys.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "vbatt/energy/trace.h"
#include "vbatt/energy/weather.h"

namespace vbatt::energy {

/// Turbine power curve parameters (speeds in m/s).
struct PowerCurve {
  double cut_in = 3.0;
  double rated = 11.5;
  double cut_out = 25.0;

  /// Normalized power for wind speed `v`: 0 below cut-in and above cut-out,
  /// cubic ramp between cut-in and rated, 1.0 between rated and cut-out.
  double power(double v) const noexcept;
};

struct WindConfig {
  double peak_mw = 400.0;

  int start_day_of_year = 120;

  /// Mean wind speed (m/s) and its seasonal swing (winter windier).
  double base_speed = 7.0;
  double seasonal_swing_speed = 0.9;

  /// Loading (m/s per unit of front value) on the shared front process.
  /// Opposite-sign loadings on the same `front` config produce the
  /// complementary site pairs exploited in §2.3.
  FrontConfig front{};
  double front_loading_speed = 2.4;

  /// Diurnal speed component: amp * cos(2*pi*(h - peak_hour)/24). Zero by
  /// default; the curated UK site uses a nighttime peak so wind complements
  /// solar.
  double diurnal_amplitude_speed = 0.0;
  double diurnal_peak_hour = 0.0;

  /// Gust noise OU parameters (per hour / m/s). Defaults give ≈0.37 m/s
  /// stationary noise — farm-aggregate output is much smoother than a
  /// single turbine.
  double gust_theta_per_hour = 1.1;
  double gust_sigma = 0.45;

  /// Storm surges: occasional speed spikes that push the farm past the
  /// turbine cut-out, collapsing output to zero within a tick — the "sharp
  /// peaks and valleys" of Fig. 2a and the cliff-like migration events of
  /// Fig. 4. Mean gap between events (days), duration range (hours) and
  /// speed amplitude range (m/s). Set mean_gap <= 0 to disable.
  double storm_mean_gap_days = 5.0;
  double storm_min_hours = 2.0;
  double storm_max_hours = 8.0;
  double storm_min_speed = 15.0;
  double storm_max_speed = 20.0;

  PowerCurve curve{};
  std::uint64_t seed = 12;
};

/// Generator for wind PowerTraces; stateless like SolarModel.
class WindModel {
 public:
  explicit WindModel(WindConfig config);

  PowerTrace generate(const util::TimeAxis& axis, std::size_t n_ticks) const;

  /// The normalized samples of generate(axis, out.size()), written into
  /// caller-owned storage, with the front path supplied by the caller:
  /// `front` must be generate_front(config().front, axis, out.size()).
  /// Sites loading on one shared front can then generate it once between
  /// them. Throws std::invalid_argument when the lengths differ.
  void generate_into(const util::TimeAxis& axis,
                     const std::vector<double>& front,
                     std::span<double> out) const;

  /// Deterministic (noise-free) speed component at a tick; for tests.
  double mean_speed(const util::TimeAxis& axis, util::Tick t) const noexcept;

  const WindConfig& config() const noexcept { return config_; }

 private:
  WindConfig config_;
};

}  // namespace vbatt::energy
