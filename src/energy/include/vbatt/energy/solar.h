// Synthetic solar production model.
//
// Substitutes for the ELIA / EMHIRES solar traces: a clear-sky envelope
// (day-of-year dependent day length and seasonal amplitude) modulated by a
// per-day sky-condition Markov chain and a fast cloud-noise OU process.
// Calibration targets come from the paper's own Fig. 2 statistics: >50%
// exact-zero samples over a year (nights), winter peak ≈75% below summer,
// overcast days near zero next to sunny days near capacity, and a 99th/75th
// percentile ratio of ≈4x.
#pragma once

#include <cstdint>
#include <span>

#include "vbatt/energy/trace.h"
#include "vbatt/energy/weather.h"

namespace vbatt::energy {

struct SolarConfig {
  double peak_mw = 400.0;

  /// Day-of-year (0-based) of tick 0; sets the season of the trace start.
  int start_day_of_year = 120;  // early May, like the paper's Fig. 2a window

  /// Local solar noon, hours. Shifting it models longitude differences.
  double noon_hour = 12.5;

  /// Mean day length and its seasonal swing (hours). Day length =
  /// mean + swing * sin(2*pi*(doy - 80)/365): equinox at doy 80.
  double day_length_mean_hours = 11.7;
  double day_length_swing_hours = 4.0;

  /// Seasonal clear-sky amplitude a + b*sin(...): defaults give a winter
  /// peak that is 25% of the summer peak (the paper's "≈75% less").
  double amplitude_base = 0.625;
  double amplitude_swing = 0.375;

  /// Mean clearness per sky state (sunny / variable / overcast).
  double clearness_sunny = 0.88;
  double clearness_variable = 0.55;
  double clearness_overcast = 0.10;

  /// Fast cloud-noise OU sigma per sky state; the "variable" state is what
  /// produces Fig. 2a's spiky days.
  double cloud_sigma_sunny = 0.04;
  double cloud_sigma_variable = 0.18;
  double cloud_sigma_overcast = 0.025;
  double cloud_theta_per_hour = 1.2;

  SkyChainConfig sky{};
  std::uint64_t seed = 11;
};

/// Generator for solar PowerTraces. Stateless; all state is in the config
/// so two generators with equal configs emit identical traces.
class SolarModel {
 public:
  explicit SolarModel(SolarConfig config);

  /// Generate `n_ticks` samples on `axis` starting at tick 0.
  PowerTrace generate(const util::TimeAxis& axis, std::size_t n_ticks) const;

  /// The normalized samples of generate(axis, out.size()), written into
  /// caller-owned storage.
  void generate_into(const util::TimeAxis& axis, std::span<double> out) const;

  /// Clear-sky (cloud-free) normalized output at a tick — the envelope the
  /// stochastic model modulates. Exposed for tests and climatology.
  double clear_sky(const util::TimeAxis& axis, util::Tick t) const noexcept;

  const SolarConfig& config() const noexcept { return config_; }

 private:
  SolarConfig config_;
};

}  // namespace vbatt::energy
