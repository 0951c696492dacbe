// Energy accounting in the single-site simulator: consolidation powers
// fewer servers (§3.1 step 4's rationale).
#include <gtest/gtest.h>

#include "vbatt/dcsim/site_sim.h"
#include "vbatt/energy/wind.h"
#include "vbatt/workload/generator.h"

namespace vbatt::dcsim {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

energy::PowerTrace full_power(std::size_t ticks) {
  return energy::PowerTrace{axis15(), 400.0,
                            std::vector<double>(ticks, 1.0),
                            energy::Source::wind};
}

std::vector<workload::VmRequest> small_vms(int count) {
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < count; ++i) {
    workload::VmRequest vm;
    vm.vm_id = i;
    vm.arrival = 0;
    vm.lifetime_ticks = 96;
    vm.shape = {2, 8.0};
    vms.push_back(vm);
  }
  return vms;
}

TEST(SiteSimEnergy, ZeroWhenIdle) {
  SiteSimConfig config;
  config.site.n_servers = 10;
  const auto r = simulate_site(full_power(96), {}, config);
  EXPECT_DOUBLE_EQ(r.energy_mwh, 0.0);
  EXPECT_EQ(r.powered_server_ticks, 0);
}

TEST(SiteSimEnergy, MatchesHandComputation) {
  // One 2-core VM on one server for 96 ticks (24 h):
  // (150 W idle + 2 x 8 W) x 24 h = 3.984 kWh.
  SiteSimConfig config;
  config.site.n_servers = 10;
  const auto r = simulate_site(full_power(96), small_vms(1), config);
  EXPECT_EQ(r.powered_server_ticks, 96);
  EXPECT_NEAR(r.energy_mwh, (150.0 + 16.0) * 24.0 / 1e6, 1e-9);
}

TEST(SiteSimEnergy, ConsolidationPowersOneServer) {
  // Best-fit packs ten 2-core VMs (20 cores) onto one 40-core server; the
  // other 19 stay dark for the whole day.
  SiteSimConfig config;
  config.site.n_servers = 20;
  const auto r = simulate_site(full_power(96), small_vms(10), config);
  EXPECT_EQ(r.powered_server_ticks, 96);
  EXPECT_NEAR(r.energy_mwh, (150.0 + 20 * 8.0) * 24.0 / 1e6, 1e-9);
}

TEST(SiteSimEnergy, EnergyTracksPowerAvailability) {
  // Under a real wind trace the site can only power what the farm allows;
  // energy follows occupancy.
  energy::WindConfig wind_config;
  const auto wind = energy::WindModel{wind_config}.generate(axis15(), 96 * 7);
  workload::GeneratorConfig gen;
  gen.arrivals_per_hour = 20.0;
  const auto vms = workload::VmTraceGenerator{gen}.generate(axis15(), 96 * 7);
  SiteSimConfig config;
  config.site.n_servers = 50;
  const auto r = simulate_site(wind, vms, config);
  EXPECT_GT(r.energy_mwh, 0.0);
  // Bound: never more than all servers at full draw for the whole week.
  const double max_mwh =
      50 * (150.0 + 40 * 8.0) * 24.0 * 7.0 / 1e6;
  EXPECT_LT(r.energy_mwh, max_mwh);
}

}  // namespace
}  // namespace vbatt::dcsim
