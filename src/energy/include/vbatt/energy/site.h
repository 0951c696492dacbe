// VB site descriptions and fleet generation (the EMHIRES substitute).
//
// EMHIRES provides normalized traces for >500 European sites; we generate a
// configurable fleet with the structure that matters to the paper: mixed
// solar/wind, geographic spread (→ latency graph), longitude phase offsets
// for solar, and wind sites loading with alternating signs on shared
// regional weather fronts (→ complementary pairs for §2.3 / Fig. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vbatt/energy/solar.h"
#include "vbatt/energy/trace.h"
#include "vbatt/energy/wind.h"
#include "vbatt/util/geo.h"
#include "vbatt/util/time.h"

namespace vbatt::util {
class ThreadPool;
}

namespace vbatt::energy {

/// Identity + generation parameters of one VB site. The full model config
/// is kept so a site's trace (and nothing else) can be regenerated on
/// demand at any length.
struct SiteSpec {
  int id = 0;
  std::string name;
  Source source = Source::solar;
  double peak_mw = 400.0;
  util::GeoPoint location{};
  /// Exactly one of these is meaningful, per `source`.
  SolarConfig solar{};
  WindConfig wind{};

  PowerTrace generate(const util::TimeAxis& axis, std::size_t n_ticks) const;
};

struct FleetConfig {
  int n_solar = 5;
  int n_wind = 5;
  /// Sites are scattered uniformly in a region_km x region_km square.
  double region_km = 900.0;
  double peak_mw = 400.0;  // median large-farm capacity per the paper
  int start_day_of_year = 120;
  /// Number of distinct regional weather fronts wind sites load on; sites
  /// alternate loading sign within a front, creating complementary pairs.
  int n_fronts = 2;
  /// Storm surges on fleet wind sites (off by default: the §2.3 pair
  /// statistics assume farm-aggregate smoothness; Table 1 benches turn
  /// them on to stress the scheduler).
  bool enable_storms = false;
  std::uint64_t seed = 1234;
};

/// A generated fleet: specs plus their traces over one common span.
struct Fleet {
  util::TimeAxis axis{};
  std::vector<SiteSpec> specs;
  std::vector<PowerTrace> traces;  // parallel to specs

  std::size_t size() const noexcept { return specs.size(); }
};

/// Deterministically generate a fleet per the config. Site layout and
/// the shared wind fronts are drawn on the calling thread; the per-site
/// traces then fan over `pool` (serial when null or workerless) into
/// buffers the caller allocated. Every site's trace depends only on its
/// own spec and front, so the fleet is the same at any lane count.
Fleet generate_fleet(const FleetConfig& config, const util::TimeAxis& axis,
                     std::size_t n_ticks, util::ThreadPool* pool);

/// generate_fleet on util::ThreadPool::shared(); like any user of that
/// pool, not to be called from inside one of its tasks.
Fleet generate_fleet(const FleetConfig& config, const util::TimeAxis& axis,
                     std::size_t n_ticks);

}  // namespace vbatt::energy
