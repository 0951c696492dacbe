// Table 1 + Figure 7: comparing the four scheduling policies over a 7-day
// multi-VB simulation.
//
// Paper (GB): Greedy 306,966 / 7,093 / 16,022 / 1,507;
//             MIP-24h 236,217 / 3,711 / 80,942 / 4,081;
//             MIP 209,961 / 9,379 / 62,753 / 2,697;
//             MIP-peak 212,247 / 1,684 / 1,941 / 562.
// Shape to reproduce: MIP cuts total by >30% vs Greedy; MIP-24h sits in
// between on total but has the worst peak; plain MIP also peaks above
// Greedy; MIP-peak is best on 99th / peak / std by a wide margin; zero
// fractions order MIP > Greedy > MIP-peak (94% / 81% / 74%).
#include "bench_util.h"
#include "vbatt/core/evaluation.h"
#include "vbatt/stats/percentile.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/util/csv.h"

namespace {

using namespace vbatt;

void reproduce() {
  // svc::ScenarioConfig's defaults are the Table 1 cell.
  const svc::Scenario scenario = svc::make_scenario({.days = 7});
  const core::VbGraph& graph = scenario.graph;
  const auto& apps = scenario.apps;
  std::printf("  fleet: %zu sites, %zu latency edges; workload: %zu apps\n",
              graph.n_sites(), graph.latency().edge_count(), apps.size());

  const core::Comparison cmp = core::compare_policies(graph, apps);

  // --- Table 1 ---
  const double paper[4][4] = {{306966, 7093, 16022, 1507},
                              {236217, 3711, 80942, 4081},
                              {209961, 9379, 62753, 2697},
                              {212247, 1684, 1941, 562}};
  std::printf("\n  %-9s | %21s | %21s | %21s | %21s | %6s\n", "policy",
              "total GB (paper)", "99%ile GB (paper)", "peak GB (paper)",
              "std GB (paper)", "zero%");
  util::CsvWriter csv{bench::out_path("table1_policies.csv"),
                      {"policy", "total_gb", "p99_gb", "peak_gb", "std_gb",
                       "zero_fraction", "planned", "forced"}};
  for (std::size_t i = 0; i < cmp.rows.size(); ++i) {
    const core::PolicyRow& r = cmp.rows[i];
    std::printf("  %-9s | %9.0f (%8.0f) | %9.0f (%8.0f) | %9.0f (%8.0f) | "
                "%9.0f (%8.0f) | %5.0f%%\n",
                r.policy.c_str(), r.total_gb, paper[i][0], r.p99_gb,
                paper[i][1], r.peak_gb, paper[i][2], r.std_gb, paper[i][3],
                100.0 * r.zero_fraction);
    csv.labeled_row(r.policy,
                    {r.total_gb, r.p99_gb, r.peak_gb, r.std_gb,
                     r.zero_fraction,
                     static_cast<double>(r.planned_migrations),
                     static_cast<double>(r.forced_migrations)});
  }

  const auto& greedy = cmp.rows[0];
  const auto& mip = cmp.rows[2];
  const auto& peak = cmp.rows[3];
  std::printf("\n");
  bench::row("MIP total reduction vs Greedy (%)", 30.0,
             100.0 * (1.0 - mip.total_gb / greedy.total_gb),
             "(paper: >30%)");
  bench::row("MIP-peak 99%ile improvement vs Greedy", 4.2,
             greedy.p99_gb / std::max(1.0, peak.p99_gb), "x (paper: >4.2x)");
  bench::row("MIP-peak std improvement vs Greedy", 2.7,
             greedy.std_gb / std::max(1.0, peak.std_gb), "x (paper: 2.7x)");
  bench::row("zero fraction: MIP", 0.94, mip.zero_fraction);
  bench::row("zero fraction: Greedy", 0.81, greedy.zero_fraction);
  bench::row("zero fraction: MIP-peak", 0.74, peak.zero_fraction);

  // --- Fig. 7: CDF of per-tick migration volume per policy ---
  util::CsvWriter cdf{bench::out_path("fig7_policy_cdf.csv"),
                      {"transfer_gb", "greedy", "mip24h", "mip", "mip_peak"}};
  std::vector<stats::Sampler> samplers;
  samplers.reserve(cmp.moved_gb.size());
  for (const auto& series : cmp.moved_gb) {
    samplers.emplace_back(series);
  }
  for (double gb = 10.0; gb < 100000.0; gb *= 1.4) {
    std::vector<double> row{gb};
    for (auto& s : samplers) row.push_back(s.cdf_at(gb));
    cdf.row(row);
  }
  bench::note("Fig 7 CDFs -> " + bench::out_path("fig7_policy_cdf.csv"));
  bench::note("Table 1    -> " + bench::out_path("table1_policies.csv"));
}

void bm_policy_run(benchmark::State& state) {
  // Timing one full 3-day simulation per policy (index via arg).
  static constexpr const char* kPolicies[] = {"greedy", "mip24h", "mip",
                                              "mippeak"};
  const svc::Scenario scenario = svc::make_scenario({.days = 3});
  for (auto _ : state) {
    const auto scheduler =
        svc::make_service_scheduler(kPolicies[state.range(0)]);
    benchmark::DoNotOptimize(
        core::run_simulation(scenario.graph, scenario.apps, *scheduler));
  }
}
BENCHMARK(bm_policy_run)->DenseRange(0, 3)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return vbatt::bench::run_reproduction(
      argc, argv, "Table 1 / Figure 7 — scheduling policy comparison",
      reproduce);
}
