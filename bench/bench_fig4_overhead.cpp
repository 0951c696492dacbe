// Figure 4 + §3/§5 WAN math: network overhead of a single multi-VB site.
//  (a) one-week per-tick in/out migration volume under wind power; >80% of
//      power changes cause no migration.
//  (b) 3-month CDF of non-zero migration volumes for solar and wind, with
//      the paper's 99th/50th tail ratios and "in-spikes smaller than out".
//  (§3) a 10 TB spike in 5 minutes ~ 40% of a site's WAN share;
//  (§5) migration active only a few % of the time on a 200 Gb/s link.
#include <numeric>

#include "bench_util.h"
#include "vbatt/dcsim/site_sim.h"
#include "vbatt/energy/solar.h"
#include "vbatt/energy/wind.h"
#include "vbatt/net/wan.h"
#include "vbatt/stats/series.h"
#include "vbatt/stats/percentile.h"
#include "vbatt/util/csv.h"
#include "vbatt/workload/generator.h"

namespace {

using namespace vbatt;

constexpr std::size_t kQuarterTicks = 96u * 90u;  // "3 months" of simulation

workload::GeneratorConfig workload_config() {
  workload::GeneratorConfig config;
  // Sized so demand ≈ 70% of the typically-powered share of the paper's
  // 700-server, 40-core cluster.
  const double cores_per_unit_rate =
      workload::expected_steady_cores(config) / config.arrivals_per_hour;
  config.arrivals_per_hour = 0.35 * 28000.0 / cores_per_unit_rate;
  return config;
}

dcsim::SiteSimResult run(const energy::PowerTrace& power) {
  const auto vms =
      workload::VmTraceGenerator{workload_config()}.generate(power.axis(),
                                                             power.size());
  return dcsim::simulate_site(power, vms, dcsim::SiteSimConfig{});
}

void report_cdf(const char* label, const dcsim::SiteSimResult& result,
                double paper_in_ratio_lo, double paper_out_ratio_lo) {
  stats::Sampler out = stats::Sampler{result.out_gb}.nonzero();
  stats::Sampler in = stats::Sampler{result.in_gb}.nonzero();
  std::printf("  --- %s ---\n", label);
  bench::row("fraction of power changes with no migration", 0.80,
             result.no_migration_fraction(), "(paper: >80%)");
  bench::row("out-migration 99th/50th ratio", paper_out_ratio_lo,
             out.percentile(99) / std::max(1.0, out.percentile(50)),
             "x (paper: 12.5-16x)");
  bench::row("in-migration 99th/50th ratio", paper_in_ratio_lo,
             in.percentile(99) / std::max(1.0, in.percentile(50)),
             "x (paper: 18-30x)");
  bench::row("in 99th / out 99th (in-spikes smaller)", 0.14,
             in.percentile(99) / std::max(1.0, out.percentile(99)),
             "(paper: ~1/7 for wind)");
  bench::row("largest single-tick out spike (GB)", 10000.0,
             out.percentile(100), "(paper: 'tens of TBs')");
}

void reproduce() {
  const util::TimeAxis axis{15};

  energy::WindConfig wind_config;
  wind_config.start_day_of_year = 0;
  const energy::PowerTrace wind =
      energy::WindModel{wind_config}.generate(axis, kQuarterTicks);
  energy::SolarConfig solar_config;
  solar_config.start_day_of_year = 0;
  const energy::PowerTrace solar =
      energy::SolarModel{solar_config}.generate(axis, kQuarterTicks);

  const dcsim::SiteSimResult wind_result = run(wind);
  const dcsim::SiteSimResult solar_result = run(solar);

  // --- Fig. 4a: one-week window of the wind run ---
  {
    util::CsvWriter csv{bench::out_path("fig4a_week.csv"),
                        {"tick", "power_norm", "out_gb", "in_gb"}};
    const std::size_t begin = 96u * 28u;  // a representative week
    for (std::size_t i = begin; i < begin + 96u * 7u; ++i) {
      csv.row({static_cast<double>(i - begin),
               wind.normalized_series()[i], wind_result.out_gb[i],
               wind_result.in_gb[i]});
    }
    bench::note("Fig 4a series -> " + bench::out_path("fig4a_week.csv"));
  }

  // --- Fig. 4b: CDFs over 3 months (non-zero values only) ---
  {
    util::CsvWriter csv{bench::out_path("fig4b_cdf.csv"),
                        {"transfer_gb", "solar_out", "solar_in", "wind_out",
                         "wind_in"}};
    stats::Sampler so = stats::Sampler{solar_result.out_gb}.nonzero();
    stats::Sampler si = stats::Sampler{solar_result.in_gb}.nonzero();
    stats::Sampler wo = stats::Sampler{wind_result.out_gb}.nonzero();
    stats::Sampler wi = stats::Sampler{wind_result.in_gb}.nonzero();
    for (double gb = 10.0; gb < 50000.0; gb *= 1.3) {
      csv.row({gb, so.cdf_at(gb), si.cdf_at(gb), wo.cdf_at(gb),
               wi.cdf_at(gb)});
    }
    bench::note("Fig 4b CDFs -> " + bench::out_path("fig4b_cdf.csv"));
  }

  report_cdf("wind-powered site", wind_result, 18.0, 12.5);
  report_cdf("solar-powered site", solar_result, 18.0, 12.5);

  // --- §3 WAN share math + §5 busy fraction ---
  const net::WanConfig wan;
  std::printf("  --- WAN capacity math ---\n");
  bench::row("Gb/s to move a 10 TB spike in 5 min", 267.0,
             net::required_gbps(wan, 10000.0));
  bench::row("fraction of the per-site WAN share", 0.40,
             net::share_fraction(wan, 10000.0),
             "(paper rounds to 200 Gb/s -> 40%)");
  const double busy = net::busy_fraction(
      wan, stats::add(wind_result.out_gb, wind_result.in_gb), 15.0);
  bench::row("migration-active fraction of time @200 Gb/s", 0.03, busy,
             "(paper: 2-4%)");
}

void bm_site_sim_week(benchmark::State& state) {
  const util::TimeAxis axis{15};
  energy::WindConfig config;
  const energy::PowerTrace wind =
      energy::WindModel{config}.generate(axis, 96 * 7);
  const auto vms =
      workload::VmTraceGenerator{workload_config()}.generate(axis, 96 * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dcsim::simulate_site(wind, vms, dcsim::SiteSimConfig{}));
  }
  state.counters["sim_ticks/s"] = benchmark::Counter(
      static_cast<double>(96 * 7) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(bm_site_sim_week)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv, "Figure 4 / §3, §5 — network overhead of a multi-VB site",
      reproduce);
}
