// §1 motivation quantified: carbon avoided by Virtual Battery datacenters,
// and the availability each policy delivers (scheduling goal i).
#include "bench_econ_util.h"
#include "bench_util.h"
#include "vbatt/core/availability.h"
#include "vbatt/core/evaluation.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/carbon.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/util/csv.h"

namespace {

using namespace vbatt;

constexpr std::size_t kDays = 7;
constexpr std::size_t kSpan = 96u * kDays;

void reproduce() {
  const util::TimeAxis axis{15};
  const svc::Scenario scenario = svc::make_scenario({.days = kDays});
  const core::VbGraph& graph = scenario.graph;
  const auto& apps = scenario.apps;

  util::CsvWriter csv{bench::out_path("carbon_availability.csv"),
                      {"policy", "energy_mwh", "grid_tco2", "vb_tco2",
                       "avoided_fraction", "availability_mean",
                       "availability_min", "three_nines_fraction"}};

  std::printf("  %-9s %9s %9s %8s %8s %8s %8s %8s\n", "policy", "MWh",
              "grid tCO2", "VB tCO2", "avoid%", "avail", "min", "3x9s%");
  for (const char* policy : {"greedy", "mip24h", "mip", "mippeak"}) {
    const auto scheduler = svc::make_service_scheduler(policy);
    const core::SimResult result =
        core::run_simulation(graph, apps, *scheduler);
    const energy::CarbonReport carbon = energy::compare_carbon(
        energy::CarbonConfig{}, axis, result.energy_mwh_per_tick);
    const core::AvailabilityReport availability =
        core::availability_report(result, apps, kSpan);
    std::printf("  %-9s %9.1f %9.2f %8.2f %7.0f%% %8.4f %8.4f %7.0f%%\n",
                scheduler->name().c_str(), result.energy_mwh,
                carbon.grid_tco2, carbon.vb_tco2,
                100.0 * carbon.avoided_fraction(), availability.mean,
                availability.min,
                100.0 * availability.three_nines_fraction);
    csv.labeled_row(scheduler->name(),
                    {result.energy_mwh, carbon.grid_tco2, carbon.vb_tco2,
                     carbon.avoided_fraction(), availability.mean,
                     availability.min, availability.three_nines_fraction});
  }

  std::printf("\n");
  bench::note("VB avoids ~95% of compute carbon vs grid power at default "
              "intensities — the pledge math behind §1 — while the MIP "
              "policies keep stable availability at cloud grade.");

  // Carbon-objective cell: the same scenario with a per-site grid
  // intensity series attached to the econ ledger, once under plain MIP
  // (ledger only) and once under MIP-carbon (lexicographic carbon stage).
  // Every committed trajectory's stage value must replay against the
  // per-tick signal within 1e-6 — check_replay aborts otherwise.
  const energy::SiteSeries intensity =
      energy::make_carbon_series({}, axis, graph.n_sites(), kSpan);
  core::ScenarioExtensions ext;
  ext.carbon = &intensity;
  util::CsvWriter objective_csv{bench::out_path("carbon_objective.csv"),
                                {"policy", "carbon_kg", "energy_mwh",
                                 "replay_max_err"}};
  const auto run_carbon = [&](core::MipSchedulerConfig config) {
    core::MipScheduler scheduler{config};
    const core::SimResult result =
        core::run_simulation(graph, apps, scheduler, {}, nullptr, &ext);
    const double err =
        config.objective == core::MipSchedulerConfig::Objective::none
            ? 0.0
            : bench::check_replay(scheduler, intensity, apps, config, axis,
                                  static_cast<util::Tick>(kSpan));
    std::printf("  %-10s grid-mix %9.1f kgCO2  %7.1f MWh  replay err %.2g\n",
                config.name.c_str(), result.carbon_kg, result.energy_mwh,
                err);
    objective_csv.labeled_row(config.name,
                              {result.carbon_kg, result.energy_mwh, err});
    return result.carbon_kg;
  };
  const double baseline_kg = run_carbon(core::make_mip_config());
  const double aware_kg = run_carbon(core::make_mip_carbon_config(&intensity));
  bench::row("carbon-aware MIP grid-mix kgCO2 (vs MIP)", baseline_kg,
             aware_kg, "kg");
  std::printf("\n");

  // Fleet-level annualized headline for a single site.
  std::vector<double> year(96 * 365, 0.0);
  const double steady_mw = 5.0;  // a ~5 MW edge DC
  for (double& v : year) v = steady_mw * 0.25;  // MWh per 15-min tick
  const energy::CarbonReport annual =
      energy::compare_carbon(energy::CarbonConfig{}, axis, year);
  bench::row("annual tCO2 avoided by one 5 MW VB site", 13000.0,
             annual.avoided_tco2());
}

void bm_compare_carbon(benchmark::State& state) {
  const util::TimeAxis axis{15};
  std::vector<double> consumption(96 * 365, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        energy::compare_carbon(energy::CarbonConfig{}, axis, consumption));
  }
}
BENCHMARK(bm_compare_carbon)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv, "§1 — carbon avoided and availability delivered",
      reproduce);
}
