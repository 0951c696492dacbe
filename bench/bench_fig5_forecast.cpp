// Figure 5: energy prediction accuracy at 3-hour, day and week leads.
// Paper MAPE: 8.5-9% (3 h), 18-25% (day), 44% solar / 75% wind (week).
#include "bench_util.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/energy/forecast.h"
#include "vbatt/energy/site.h"
#include "vbatt/energy/solar.h"
#include "vbatt/energy/wind.h"
#include "vbatt/util/csv.h"

namespace {

using namespace vbatt;

constexpr std::size_t kYearTicks = 96u * 365u;

energy::PowerTrace year_trace(energy::Source source) {
  if (source == energy::Source::solar) {
    energy::SolarConfig config;
    config.start_day_of_year = 0;
    return energy::SolarModel{config}.generate(util::TimeAxis{15},
                                               kYearTicks);
  }
  energy::WindConfig config;
  config.start_day_of_year = 0;
  return energy::WindModel{config}.generate(util::TimeAxis{15}, kYearTicks);
}

void reproduce() {
  const energy::Forecaster forecaster;
  const energy::PowerTrace solar = year_trace(energy::Source::solar);
  const energy::PowerTrace wind = year_trace(energy::Source::wind);

  // --- Fig. 5 sample window: 4 May days, actual vs 3 lead times ---
  {
    const auto f3 = forecaster.forecast(solar, 3.0);
    const auto f24 = forecaster.forecast(solar, 24.0);
    const auto f168 = forecaster.forecast(solar, 168.0);
    const auto w3 = forecaster.forecast(wind, 3.0);
    const auto w24 = forecaster.forecast(wind, 24.0);
    const auto w168 = forecaster.forecast(wind, 168.0);
    util::CsvWriter csv{bench::out_path("fig5_forecasts.csv"),
                        {"tick", "solar_actual", "solar_3h", "solar_day",
                         "solar_week", "wind_actual", "wind_3h", "wind_day",
                         "wind_week"}};
    const std::size_t begin = 96u * 122u;
    for (std::size_t i = begin; i < begin + 96u * 4u; ++i) {
      csv.row({static_cast<double>(i - begin), solar.normalized_series()[i],
               f3[i], f24[i], f168[i], wind.normalized_series()[i], w3[i],
               w24[i], w168[i]});
    }
    bench::note("Fig 5 series -> " + bench::out_path("fig5_forecasts.csv"));
  }

  // --- MAPE table ---
  bench::row("solar MAPE @ 3h (%)", 8.75,
             forecaster.measured_mape(solar, 3.0));
  bench::row("wind  MAPE @ 3h (%)", 8.75,
             forecaster.measured_mape(wind, 3.0));
  bench::row("solar MAPE @ day (%)", 21.5,
             forecaster.measured_mape(solar, 24.0));
  bench::row("wind  MAPE @ day (%)", 21.5,
             forecaster.measured_mape(wind, 24.0));
  bench::row("solar MAPE @ week (%)", 44.0,
             forecaster.measured_mape(solar, 168.0));
  bench::row("wind  MAPE @ week (%)", 75.0,
             forecaster.measured_mape(wind, 168.0));
}

void bm_forecast_day_ahead(benchmark::State& state) {
  const energy::Forecaster forecaster;
  const energy::PowerTrace wind = year_trace(energy::Source::wind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forecaster.forecast(wind, 24.0));
  }
}
BENCHMARK(bm_forecast_day_ahead)->Unit(benchmark::kMillisecond);

void bm_forecast_week_ahead(benchmark::State& state) {
  const energy::Forecaster forecaster;
  const energy::PowerTrace solar = year_trace(energy::Source::solar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forecaster.forecast(solar, 168.0));
  }
}
BENCHMARK(bm_forecast_week_ahead)->Unit(benchmark::kMillisecond);

// Every forecast a scheduler reads: VbGraph over 25 wind sites x 90 days
// filled at the default seven leads (one bulk forecaster call for the
// fleet, which the graph makes on its first forecast read).
void bm_graph_build(benchmark::State& state) {
  energy::FleetConfig config;
  config.n_solar = 0;
  config.n_wind = 25;
  const energy::Fleet fleet =
      energy::generate_fleet(config, util::TimeAxis{15}, 96u * 90u);
  const core::VbGraphConfig graph_config;
  for (auto _ : state) {
    const core::VbGraph graph{fleet, graph_config};
    graph.build_forecasts();
    benchmark::DoNotOptimize(graph.forecast_norm(0).data());
  }
}
BENCHMARK(bm_graph_build)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv, "Figure 5 — multi-horizon energy prediction accuracy",
      reproduce);
}
