// Figure 6 as a runnable walkthrough: the four scheduling steps for one
// concrete application arrival.
//
//   1. subgraph identification  — k-cliques of the latency graph, ranked
//                                 by combined forecast complementarity;
//   2. subgraph selection        — evaluate the top candidates with the
//                                 per-app MIP;
//   3. site selection            — the winning trajectory (site per
//                                 planning bucket) inside that subgraph;
//   4. VM placement              — pack the VMs onto servers (best-fit
//                                 consolidation) at the chosen site.
//
// Run:  ./scheduling_walkthrough
#include <cstdio>

#include "vbatt/vbatt.h"

using namespace vbatt;

int main() {
  const util::TimeAxis axis{15};
  const std::size_t span = static_cast<std::size_t>(axis.ticks_per_day()) * 4;

  energy::FleetConfig fleet_config;
  fleet_config.n_solar = 3;
  fleet_config.n_wind = 4;
  fleet_config.region_km = 1800.0;
  const energy::Fleet fleet = energy::generate_fleet(fleet_config, axis, span);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 10.0;
  const core::VbGraph graph{fleet, graph_config};

  // The application to place: 8 stable + 4 degradable VMs of 4 cores.
  workload::Application app;
  app.app_id = 42;
  app.arrival = 40;  // 10:00 on day one
  app.lifetime_ticks = 96 * 3;
  app.shape = {4, 16.0};
  app.n_stable = 8;
  app.n_degradable = 4;
  std::printf("Arriving app: %d stable + %d degradable x %d-core VMs "
              "(%.0f GB stable state), lifetime %.0f days\n\n",
              app.n_stable, app.n_degradable, app.shape.cores,
              app.stable_memory_gb(), axis.days(app.lifetime_ticks));

  // --- Step 1: subgraph identification ---
  const auto ranked = core::rank_subgraphs(graph, 3, app.arrival, 96 * 2);
  std::printf("Step 1 — %zu 3-cliques under the 50 ms threshold; top 5 by "
              "combined forecast cov:\n", ranked.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    std::string names;
    for (const std::size_t s : ranked[i].sites) {
      names += (names.empty() ? "" : "+") + fleet.specs[s].name;
    }
    std::printf("  #%zu %-26s cov=%.3f mean=%.0f cores\n", i + 1,
                names.c_str(), ranked[i].cov, ranked[i].mean_cores);
  }

  // --- Steps 2+3: subgraph & site selection via the MIP ---
  core::FleetState state;
  state.graph = &graph;
  state.now = app.arrival;
  state.stable_cores.assign(graph.n_sites(), 0);
  state.degradable_cores.assign(graph.n_sites(), 0);
  core::MipSchedulerConfig mip_config = core::make_mip_config();
  mip_config.clique_k = 3;  // match the step-1 listing
  core::MipScheduler scheduler{mip_config};
  const core::Scheduler::Placement placement = scheduler.place(app, state);

  std::string allowed;
  for (const std::size_t s : placement.allowed) {
    allowed += (allowed.empty() ? "" : "+") + fleet.specs[s].name;
  }
  std::printf("\nSteps 2+3 — MIP evaluated the candidates (%lld LP/MIP "
              "solves) and picked subgraph {%s};\n",
              static_cast<long long>(scheduler.solve_count()),
              allowed.c_str());
  std::printf("  initial site: %s\n",
              fleet.specs[placement.site].name.c_str());
  if (placement.scheduled_moves.empty()) {
    std::printf("  trajectory: stays put for its whole lifetime "
                "(no predicted deficit)\n");
  } else {
    for (const core::Move& move : placement.scheduled_moves) {
      std::printf("  planned move at t+%.1f h -> %s\n",
                  axis.hours(move.at_tick - app.arrival),
                  fleet.specs[move.to_site].name.c_str());
    }
  }

  // --- Step 4: VM placement onto servers ---
  dcsim::SiteConfig site_config;
  site_config.n_servers = 12;
  site_config.server = {40, 512.0};
  dcsim::SiteBlock site{{site_config}};
  std::printf("\nStep 4 — packing %d VMs onto %s's servers (best-fit "
              "consolidation):\n", app.total_vms(),
              fleet.specs[placement.site].name.c_str());
  for (int v = 0; v < app.total_vms(); ++v) {
    site.place(0, v, app.shape.cores, app.shape.memory_gb,
               /*degradable=*/v >= app.n_stable, dcsim::BlockPolicy::best_fit);
  }
  const int powered = site.powered_servers(0);
  std::printf("  %d of %d servers powered (%d cores allocated); the other "
              "%d stay dark — §3.1's energy goal in action.\n", powered,
              site_config.n_servers, site.allocated_cores(0),
              site_config.n_servers - powered);
  return 0;
}
