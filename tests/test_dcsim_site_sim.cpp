#include "vbatt/dcsim/site_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>

#include "vbatt/energy/solar.h"
#include "vbatt/energy/wind.h"
#include "vbatt/workload/batch.h"
#include "vbatt/workload/generator.h"

namespace vbatt::dcsim {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

energy::PowerTrace trace_of(std::vector<double> norm) {
  return energy::PowerTrace{axis15(), 400.0, std::move(norm),
                            energy::Source::wind};
}

workload::VmRequest request(std::int64_t id, util::Tick arrival,
                            util::Tick lifetime, int cores = 4,
                            double mem = 16.0) {
  workload::VmRequest r;
  r.vm_id = id;
  r.arrival = arrival;
  r.lifetime_ticks = lifetime;
  r.shape = {cores, mem};
  return r;
}

SiteSimConfig tiny(int servers = 4, int cores = 8) {
  SiteSimConfig config;
  config.site.n_servers = servers;
  config.site.server = {cores, 32.0};
  return config;
}

TEST(SiteSim, EmptyTraceThrows) {
  const energy::PowerTrace empty{axis15(), 400.0, {}, energy::Source::wind};
  EXPECT_THROW(simulate_site(empty, {}, tiny()),
               std::invalid_argument);
}

TEST(SiteSim, BadUtilizationCapThrows) {
  const auto power = trace_of(std::vector<double>(4, 1.0));
  SiteSimConfig config = tiny();
  for (const double cap : {0.0, -0.1, 1.5}) {
    config.utilization_cap = cap;
    EXPECT_THROW(simulate_site(power, {}, config), std::invalid_argument)
        << "cap " << cap;
  }
  config.utilization_cap = 1.0;  // the closed end of (0, 1]
  EXPECT_NO_THROW(simulate_site(power, {}, config));
}

TEST(SiteSim, BadCapacityThrows) {
  const auto power = trace_of(std::vector<double>(4, 1.0));
  EXPECT_THROW(simulate_site(power, {}, tiny(0)), std::invalid_argument);
  EXPECT_THROW(simulate_site(power, {}, tiny(4, 0)), std::invalid_argument);
}

TEST(SiteSim, ResidentDuplicateVmIdThrows) {
  const auto power = trace_of(std::vector<double>(4, 1.0));
  // vm 1 is still resident when its id arrives again.
  const std::vector<workload::VmRequest> vms{request(1, 0, 10),
                                             request(1, 1, 10)};
  EXPECT_THROW(simulate_site(power, vms, tiny()), std::invalid_argument);
}

TEST(SiteSim, DepartedVmIdMayReturn) {
  const auto power = trace_of(std::vector<double>(8, 1.0));
  // vm 1 departs at tick 2, so its id is free again at tick 3.
  const std::vector<workload::VmRequest> vms{request(1, 0, 2),
                                             request(1, 3, 2)};
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_EQ(r.vms_rejected, 0);
  EXPECT_EQ(r.allocated_cores[2], 0);
  EXPECT_EQ(r.allocated_cores[3], 4);
  EXPECT_EQ(r.allocated_cores[5], 0);
}

TEST(SiteSim, AdmissionCapRelativeToPoweredCores) {
  // 32 cores, half powered: the 70% cap admits 11.2 cores. An 8-core
  // resident plus a 3-core arrival fits (11); a 4-core one (12) does not.
  std::vector<double> norm{1.0, 0.5, 0.5};
  const auto power = trace_of(norm);
  const std::vector<workload::VmRequest> fits{request(0, 0, 10, 8, 8.0),
                                              request(1, 1, 10, 3, 8.0)};
  EXPECT_EQ(simulate_site(power, fits, tiny()).vms_rejected, 0);
  const std::vector<workload::VmRequest> over{request(0, 0, 10, 8, 8.0),
                                              request(1, 1, 10, 4, 8.0)};
  EXPECT_EQ(simulate_site(power, over, tiny()).vms_rejected, 1);
}

TEST(SiteSim, StaleCalendarEntrySkippedAfterEvictAndRelaunch) {
  // Power drops to zero at tick 2 (vm 0 is evicted with 8 ticks left) and
  // returns at tick 4, where vm 0 relaunches with end_tick 12. Its stale
  // calendar entry at tick 10 must not remove the relaunched instance.
  std::vector<double> norm(16, 1.0);
  norm[2] = norm[3] = 0.0;
  const auto power = trace_of(norm);
  const std::vector<workload::VmRequest> vms{request(0, 0, 10)};
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_EQ(r.vms_evicted, 1);
  EXPECT_EQ(r.vms_relaunched, 1);
  EXPECT_EQ(r.allocated_cores[4], 4);
  EXPECT_EQ(r.allocated_cores[10], 4);
  EXPECT_EQ(r.allocated_cores[11], 4);
  EXPECT_EQ(r.allocated_cores[12], 0);
}

TEST(SiteSim, SameTickRelaunchWithSameEndTickDepartsOnce) {
  // Two 8-core servers. Server 0 holds degradable vm 0 (1 core, ends at
  // 6) and vm 1 (7 cores); server 1 holds vm 2 (4 cores, ends at 10). At
  // tick 1 the budget drops to 10 cores: the shrink evicts vm 0, then vm
  // 1. vm 0 fits back at once and relaunches in the same tick with its
  // old end_tick, so its calendar holds two live-looking entries for one
  // VM: it must depart exactly once.
  std::vector<double> norm(12, 1.0);
  norm[1] = 0.625;
  const auto power = trace_of(norm);
  SiteSimConfig config = tiny(2, 8);
  config.utilization_cap = 1.0;
  std::vector<workload::VmRequest> vms{request(0, 0, 6, 1, 4.0),
                                       request(1, 0, 10, 7, 16.0),
                                       request(2, 0, 10, 4, 16.0)};
  vms[0].vm_class = workload::VmClass::degradable;
  const auto r = simulate_site(power, vms, config);
  EXPECT_EQ(r.vms_evicted, 2);
  EXPECT_EQ(r.vms_relaunched, 2);  // vm 0 at tick 1, vm 1 at tick 2
  EXPECT_EQ(r.allocated_cores[1], 5);
  EXPECT_EQ(r.allocated_cores[2], 12);
  EXPECT_EQ(r.allocated_cores[5], 12);
  EXPECT_EQ(r.allocated_cores[6], 11);  // vm 0 left, once
  EXPECT_EQ(r.allocated_cores[9], 11);
  EXPECT_EQ(r.allocated_cores[10], 7);  // vm 2 left; vm 1 now ends at 11
  EXPECT_EQ(r.allocated_cores[11], 0);
}

TEST(SiteSim, SteadyPowerNoMigration) {
  const auto power = trace_of(std::vector<double>(96, 1.0));
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < 4; ++i) vms.push_back(request(i, i, 20));
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_EQ(r.vms_evicted, 0);
  EXPECT_EQ(r.power_change_ticks, 0);
  EXPECT_DOUBLE_EQ(std::accumulate(r.out_gb.begin(), r.out_gb.end(), 0.0),
                   0.0);
}

TEST(SiteSim, AdmissionRejectsAboveCap) {
  // 32 cores; cap 70% of 32 = 22.4. Demand of 7 x 4-core VMs = 28 > cap.
  const auto power = trace_of(std::vector<double>(10, 1.0));
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < 7; ++i) vms.push_back(request(i, 0, 9));
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_GT(r.vms_rejected, 0);
  EXPECT_EQ(r.allocated_cores[0], 20);  // 5 VMs of 4 cores <= 22.4
}

TEST(SiteSim, PowerDropEvictsAndChargesOutTraffic) {
  // Full power for 4 ticks, then a cliff to 25%.
  std::vector<double> norm(8, 1.0);
  for (std::size_t i = 4; i < 8; ++i) norm[i] = 0.25;
  const auto power = trace_of(norm);
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < 5; ++i) vms.push_back(request(i, 0, 100));
  const auto r = simulate_site(power, vms, tiny());
  // 20 cores allocated, cliff leaves 8 -> evict 3 VMs (12 cores).
  EXPECT_EQ(r.vms_evicted, 3);
  EXPECT_DOUBLE_EQ(r.out_gb[4], 3 * 16.0);
  EXPECT_LE(r.allocated_cores[4], 8);
}

TEST(SiteSim, PowerRecoveryRelaunchesAsInTraffic) {
  std::vector<double> norm(12, 1.0);
  for (std::size_t i = 4; i < 8; ++i) norm[i] = 0.25;  // dip, then recovery
  const auto power = trace_of(norm);
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < 5; ++i) vms.push_back(request(i, 0, 100));
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_GT(r.vms_relaunched, 0);
  const double in_total =
      std::accumulate(r.in_gb.begin(), r.in_gb.end(), 0.0);
  EXPECT_GT(in_total, 0.0);
}

TEST(SiteSim, NoRelaunchWhenDisabled) {
  std::vector<double> norm(12, 1.0);
  for (std::size_t i = 4; i < 8; ++i) norm[i] = 0.25;
  const auto power = trace_of(norm);
  std::vector<workload::VmRequest> vms;
  for (int i = 0; i < 5; ++i) vms.push_back(request(i, 0, 100));
  SiteSimConfig config = tiny();
  config.relaunch_evicted = false;
  const auto r = simulate_site(power, vms, config);
  EXPECT_EQ(r.vms_relaunched, 0);
}

TEST(SiteSim, PendingExpiresAfterRetryWindow) {
  // Power stays at zero long enough that the retry window lapses.
  std::vector<double> norm(96, 0.0);
  for (std::size_t i = 48; i < 96; ++i) norm[i] = 1.0;
  const auto power = trace_of(norm);
  std::vector<workload::VmRequest> vms{request(0, 0, 1000)};
  SiteSimConfig config = tiny();
  config.pending_retry_window_hours = 1.0;  // 4 ticks
  const auto r = simulate_site(power, vms, config);
  EXPECT_EQ(r.vms_rejected, 1);
  EXPECT_EQ(r.vms_relaunched, 0);  // expired before power returned
}

TEST(SiteSim, DeparturesFreeCapacity) {
  const auto power = trace_of(std::vector<double>(20, 1.0));
  std::vector<workload::VmRequest> vms;
  // First wave fills to the cap, departs at tick 10; second wave arrives
  // at tick 12 and must fit.
  for (int i = 0; i < 5; ++i) vms.push_back(request(i, 0, 10));
  for (int i = 5; i < 10; ++i) vms.push_back(request(i, 12, 5));
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_EQ(r.vms_rejected, 0);
  EXPECT_EQ(r.allocated_cores[11], 0);
  EXPECT_EQ(r.allocated_cores[12], 20);
}

TEST(SiteSim, DeparturesFollowEndTicks) {
  const auto power = trace_of(std::vector<double>(16, 1.0));
  // Ends at 5, ends at 10, and one that runs forever (lifetime < 0).
  const std::vector<workload::VmRequest> vms{
      request(1, 0, 5), request(2, 0, 10), request(3, 0, -1)};
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_EQ(r.allocated_cores[4], 12);
  EXPECT_EQ(r.allocated_cores[5], 8);
  EXPECT_EQ(r.allocated_cores[9], 8);
  EXPECT_EQ(r.allocated_cores[10], 4);
  EXPECT_EQ(r.allocated_cores[15], 4);  // the immortal one
}

TEST(SiteSim, PowerChangeAccountingMatchesPaperStat) {
  // Alternating small power flutter absorbed by idle cores: changes
  // counted but no migrations.
  std::vector<double> norm;
  for (int i = 0; i < 50; ++i) norm.push_back(i % 2 ? 0.95 : 1.0);
  const auto power = trace_of(norm);
  std::vector<workload::VmRequest> vms{request(0, 0, 45)};
  const auto r = simulate_site(power, vms, tiny());
  EXPECT_GT(r.power_change_ticks, 40);
  EXPECT_EQ(r.migration_ticks, 0);
  EXPECT_DOUBLE_EQ(r.no_migration_fraction(), 1.0);
}

// Integration band: a 2-week wind-powered run exhibits the paper's Fig. 4
// shape — most power changes absorbed, episodic multi-VM eviction spikes.
TEST(SiteSim, WindFortnightMatchesPaperShape) {
  energy::WindConfig wind_config;
  wind_config.seed = 2024;
  const auto power =
      energy::WindModel{wind_config}.generate(axis15(), 96 * 14);

  workload::GeneratorConfig gen;
  gen.arrivals_per_hour = 12.0;
  const auto vms = workload::VmTraceGenerator{gen}.generate(axis15(), 96 * 14);

  SiteSimConfig config;
  config.site.n_servers = 100;  // 4,000 cores
  const auto r = simulate_site(power.rescaled(400.0), vms, config);
  EXPECT_GT(r.no_migration_fraction(), 0.75);
  EXPECT_GT(r.vms_evicted, 0);
  EXPECT_GT(r.vms_relaunched, 0);
  // Traffic conservation: inbound relaunch volume cannot exceed what was
  // rejected+evicted.
  const double out_total =
      std::accumulate(r.out_gb.begin(), r.out_gb.end(), 0.0);
  EXPECT_GT(out_total, 0.0);
}

// --- Bit-level fingerprints ----------------------------------------------
//
// FNV-1a over every SiteSimResult field, bit for bit: the per-tick
// series, the five counters, the energy double's bits, the powered-server
// basis and the batch overlay stats. The pinned values were captured from
// the original simulator; any change to placement, eviction, departure or
// relaunch order (or to the order of a floating-point sum) moves them.

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const SiteSimResult& r) {
  Fnv h;
  for (const double v : r.out_gb) h.f64(v);
  for (const double v : r.in_gb) h.f64(v);
  for (const int v : r.available_cores) h.i64(v);
  for (const int v : r.allocated_cores) h.i64(v);
  h.i64(r.power_change_ticks);
  h.i64(r.migration_ticks);
  h.i64(r.vms_rejected);
  h.i64(r.vms_evicted);
  h.i64(r.vms_relaunched);
  h.f64(r.energy_mwh);
  h.i64(r.powered_server_ticks);
  const workload::BatchStats& b = r.batch;
  for (const std::int64_t v :
       {b.deadline_jobs_completed, b.deadline_jobs_missed,
        b.deadline_work_core_ticks, b.harvest_offered_core_ticks,
        b.harvest_goodput_core_ticks, b.harvest_lost_core_ticks,
        b.harvest_suspended_core_ticks, b.harvest_warmup_core_ticks,
        b.harvest_tasks_completed, b.harvest_deadline_misses,
        b.suspend_episodes, b.resume_episodes,
        b.overlay_active_core_ticks}) {
    h.i64(v);
  }
  return h.value();
}

/// A 200-server site loaded like `vbatt site-sim` (35% of capacity).
struct PinnedRun {
  energy::PowerTrace power;
  std::vector<workload::VmRequest> vms;
  SiteSimConfig config;
};

PinnedRun pinned_run(energy::PowerTrace power) {
  PinnedRun run{std::move(power), {}, {}};
  run.config.site.n_servers = 200;
  workload::GeneratorConfig gen;
  const double cores = 200.0 * run.config.site.server.cores;
  const double per_rate =
      workload::expected_steady_cores(gen) / gen.arrivals_per_hour;
  gen.arrivals_per_hour = 0.35 * cores / per_rate;
  run.vms = workload::VmTraceGenerator{gen}.generate(axis15(),
                                                     run.power.size());
  return run;
}

SiteSimResult run_pinned(const PinnedRun& run) {
  return simulate_site(run.power, run.vms, run.config);
}

energy::PowerTrace wind_days(std::size_t days) {
  energy::WindConfig config;
  config.seed = 11;
  return energy::WindModel{config}.generate(axis15(), 96 * days);
}

TEST(SiteSimFingerprint, WindFortnight) {
  const SiteSimResult r = run_pinned(pinned_run(wind_days(14)));
  EXPECT_GT(r.vms_evicted, 0);
  EXPECT_EQ(fingerprint(r), 0x3c0a2b9925ec5e5eULL);
}

TEST(SiteSimFingerprint, SolarMonth) {
  energy::SolarConfig config;
  config.seed = 11;
  const SiteSimResult r = run_pinned(pinned_run(
      energy::SolarModel{config}.generate(axis15(), 96 * 30)));
  EXPECT_GT(r.vms_relaunched, 0);
  EXPECT_EQ(fingerprint(r), 0xd0ff536121c8b01eULL);
}

TEST(SiteSimFingerprint, BatchOverlay) {
  PinnedRun run = pinned_run(wind_days(14));
  workload::BatchGeneratorConfig batch_config;
  batch_config.jobs_per_hour = 2.0;
  batch_config.tasks_per_hour = 4.0;
  const workload::BatchWorkload batch =
      workload::generate_batch(batch_config, axis15(), run.power.size());
  run.config.batch = &batch;
  const SiteSimResult r = run_pinned(run);
  EXPECT_GT(r.batch.overlay_active_core_ticks, 0);
  EXPECT_EQ(fingerprint(r), 0x490415cd9d795c3eULL);
}

TEST(SiteSimFingerprint, NoRelaunchHalfCap) {
  PinnedRun run = pinned_run(wind_days(14));
  run.config.relaunch_evicted = false;
  run.config.utilization_cap = 0.5;
  const SiteSimResult r = run_pinned(run);
  EXPECT_GT(r.vms_rejected, 0);
  EXPECT_EQ(fingerprint(r), 0xa33fe4950c95c81bULL);
}

}  // namespace
}  // namespace vbatt::dcsim
