// §3's availability mechanisms compared: migration vs hot/cold standby.
//
// "Applications must rely on either hot/cold standbys using continuous
// replication or migration. This introduces continuous or bursty network
// overheads." This bench runs all three on the same fleet/workload and
// also prints the pre-copy migration-time model (the paper's footnote-2
// future work) for typical VM sizes.
#include "bench_util.h"
#include "vbatt/core/evaluation.h"
#include "vbatt/core/replication.h"
#include "vbatt/net/migration_time.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/util/csv.h"

namespace {

using namespace vbatt;

void reproduce() {
  const svc::Scenario scenario = svc::make_scenario({.days = 7});
  const core::VbGraph& graph = scenario.graph;
  const auto& apps = scenario.apps;

  const auto mip = svc::make_service_scheduler("mip");
  const core::PolicyRow migration = core::summarize(
      "migration", core::run_simulation(graph, apps, *mip));

  core::ReplicationConfig hot;
  const core::PolicyRow hot_row = core::summarize(
      "hot-standby", core::run_replication_simulation(graph, apps, hot));

  core::ReplicationConfig cold;
  cold.hot_standby = false;
  const core::PolicyRow cold_row = core::summarize(
      "cold-standby", core::run_replication_simulation(graph, apps, cold));

  util::CsvWriter csv{bench::out_path("replication_vs_migration.csv"),
                      {"mechanism", "total_gb", "p99_gb", "peak_gb",
                       "std_gb", "zero_fraction", "energy_mwh"}};
  std::printf("  %-14s %10s %8s %8s %8s %6s %10s\n", "mechanism",
              "total GB", "p99 GB", "peak GB", "std GB", "zero%", "MWh");
  for (const core::PolicyRow* row : {&migration, &hot_row, &cold_row}) {
    std::printf("  %-14s %10.0f %8.0f %8.0f %8.0f %5.0f%% %10.1f\n",
                row->policy.c_str(), row->total_gb, row->p99_gb,
                row->peak_gb, row->std_gb, 100.0 * row->zero_fraction,
                row->energy_mwh);
    csv.labeled_row(row->policy,
                    {row->total_gb, row->p99_gb, row->peak_gb, row->std_gb,
                     row->zero_fraction, row->energy_mwh});
  }
  std::printf("\n");
  bench::note("the §3 dichotomy in numbers: hot standby trades the bursty "
              "migration spikes for a continuous stream (near-zero quiet "
              "ticks), cold standby sits in between.");
  bench::row("hot-standby quiet-tick fraction", 0.0, hot_row.zero_fraction,
             "(continuous)");
  bench::row("migration quiet-tick fraction", 0.94,
             migration.zero_fraction, "(bursty; paper's MIP: 94%)");

  // --- Pre-copy migration time model (footnote 2 / reference [2]) ---
  std::printf("\n  Pre-copy migration model (10 Gb/s share, 1 Gb/s dirty "
              "rate):\n");
  std::printf("  %10s %12s %12s %12s %8s\n", "memory GB", "total s",
              "downtime s", "moved GB", "rounds");
  util::CsvWriter mig_csv{bench::out_path("migration_time.csv"),
                          {"memory_gb", "total_s", "downtime_s",
                           "transferred_gb", "rounds"}};
  for (const double mem : {4.0, 16.0, 64.0, 112.0, 256.0, 512.0}) {
    const net::MigrationEstimate e = net::estimate_migration(mem);
    std::printf("  %10.0f %12.1f %12.2f %12.1f %8d\n", mem,
                e.total_seconds, e.downtime_seconds, e.transferred_gb,
                e.rounds);
    mig_csv.row({mem, e.total_seconds, e.downtime_seconds, e.transferred_gb,
                 static_cast<double>(e.rounds)});
  }
  bench::row("transfer amplification vs raw memory", 1.1,
             net::transfer_amplification({}),
             "x (simulators charge raw memory; multiply to adjust)");
}

void bm_replication_week(benchmark::State& state) {
  const svc::Scenario scenario = svc::make_scenario({.days = 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_replication_simulation(scenario.graph, scenario.apps, {}));
  }
}
BENCHMARK(bm_replication_week)->Unit(benchmark::kMillisecond)->Iterations(2);

void bm_estimate_migration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::estimate_migration(112.0));
  }
}
BENCHMARK(bm_estimate_migration);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv,
      "§3 — migration vs replication overhead, and migration timing",
      reproduce);
}
