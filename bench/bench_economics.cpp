// §2.1 — economic motivation for Virtual Batteries.
// Paper: ~10% of DC opex saved by eliminating transmission (20% power
// share x 50% transmission share); curtailment (up to ~6% of renewable
// generation) becomes recoverable compute energy.
#include "bench_econ_util.h"
#include "bench_util.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/wind.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/util/csv.h"

namespace {

using namespace vbatt;

void reproduce() {
  energy::WindConfig wind_config;
  wind_config.start_day_of_year = 0;
  const energy::PowerTrace farm =
      energy::WindModel{wind_config}.generate(util::TimeAxis{15},
                                              96u * 365u);

  const energy::CostSummary base =
      energy::evaluate_economics(energy::CostModelConfig{}, farm);
  bench::row("DC opex saving from co-location (%)", 10.0,
             100.0 * base.opex_saving_fraction);
  bench::row("curtailed energy recoverable (MWh/yr, 400 MW farm)",
             farm.total_energy_mwh() * 0.06, base.recoverable_curtailed_mwh);
  bench::row("wholesale value of recovered energy (kUSD/yr)",
             base.recoverable_value_usd / 1000.0,
             base.recoverable_value_usd / 1000.0);

  // Sensitivity sweep: saving as a function of the two shares.
  util::CsvWriter csv{bench::out_path("economics_sweep.csv"),
                      {"power_share", "transmission_share",
                       "opex_saving_fraction"}};
  for (double power = 0.10; power <= 0.301; power += 0.05) {
    for (double trans = 0.30; trans <= 0.601; trans += 0.10) {
      energy::CostModelConfig config;
      config.power_share_of_opex = power;
      config.transmission_share_of_power = trans;
      csv.row({power, trans,
               energy::evaluate_economics(config, farm).opex_saving_fraction});
    }
  }
  bench::note("sensitivity sweep -> " + bench::out_path("economics_sweep.csv"));

  // Price-objective cell: a week-long fleet run with a per-site day-ahead
  // price series attached to the econ ledger, under plain MIP (ledger
  // only) and MIP-cost (lexicographic electricity-cost stage). Every
  // committed trajectory's stage value must replay against the per-tick
  // price within 1e-6 — check_replay aborts otherwise.
  const util::TimeAxis axis{15};
  constexpr std::size_t kSpan = 96u * 7u;
  const svc::Scenario scenario = svc::make_scenario({.days = 7});
  const core::VbGraph& graph = scenario.graph;
  const auto& apps = scenario.apps;

  const energy::SiteSeries price =
      energy::make_price_series({}, axis, graph.n_sites(), kSpan);
  core::ScenarioExtensions ext;
  ext.price = &price;
  util::CsvWriter price_csv{bench::out_path("price_objective.csv"),
                            {"policy", "cost_usd", "energy_mwh",
                             "replay_max_err"}};
  const auto run_priced = [&](core::MipSchedulerConfig config) {
    core::MipScheduler scheduler{config};
    const core::SimResult result =
        core::run_simulation(graph, apps, scheduler, {}, nullptr, &ext);
    const double err =
        config.objective == core::MipSchedulerConfig::Objective::none
            ? 0.0
            : bench::check_replay(scheduler, price, apps, config, axis,
                                  static_cast<util::Tick>(kSpan));
    std::printf("  %-9s electricity $%9.2f  %7.1f MWh  replay err %.2g\n",
                config.name.c_str(), result.cost_usd, result.energy_mwh, err);
    price_csv.labeled_row(config.name,
                          {result.cost_usd, result.energy_mwh, err});
    return result.cost_usd;
  };
  const double baseline_usd = run_priced(core::make_mip_config());
  const double aware_usd = run_priced(core::make_mip_cost_config(&price));
  bench::row("cost-aware MIP electricity spend (vs MIP)", baseline_usd,
             aware_usd, "USD");
}

void bm_evaluate_economics(benchmark::State& state) {
  energy::WindConfig config;
  const energy::PowerTrace farm =
      energy::WindModel{config}.generate(util::TimeAxis{15}, 96u * 365u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        energy::evaluate_economics(energy::CostModelConfig{}, farm));
  }
}
BENCHMARK(bm_evaluate_economics)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv, "§2.1 — economic motivation", reproduce);
}
