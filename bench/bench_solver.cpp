// Solver engine sweep: the two production engines (revised simplex B&B
// and subgraph decomposition) and the default solve_mip vs the frozen
// seed tableau solver (solver/reference/), on the exact model family
// MipScheduler emits.
//
// Each cell of the sites x k x horizon sweep emulates one replanning round
// of a fleet: `sites` apps, each with its own k-site trajectory MIP over
// the bucketed horizon, solved cold by the reference engine, solve_revised
// and the decomposed engine (the chain DP master). Model construction is
// NOT part of any timed region; it is measured once and reported as
// build_ms. The
// amortized replan series then times patching cached models
// (build_steady_ms) and patch-plus-solve on their compiled plans
// (solve_steady_ms), the scheduler's steady state.
//
// Every objective is cross-checked against the reference to 1e-6; any
// divergence makes the binary exit non-zero. The 100-site/k=4/24h cell is
// the acceptance cell: decomposed must beat monolithic revised by
// >= 3x there, also enforced with a non-zero exit. `--json <path>` writes
// the sweep (per-stage timings, blocks, master iterations) so CI can
// archive the perf trajectory as BENCH_solver.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/incremental.h"
#include "vbatt/solver/reference.h"
#include "vbatt/util/rng.h"

namespace {

using namespace vbatt;

constexpr double kObjTol = 1e-6;
constexpr int kBucketHours = 6;  // scheduler bucket width (24 ticks x 15 min)

/// A scheduling-shaped MIP: k sites x T buckets trajectory problem, the
/// exact structure MipScheduler emits for one app.
solver::Model trajectory_mip(int sites, int buckets, std::uint64_t seed) {
  util::Rng rng{seed};
  solver::Model model;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(buckets));
  std::vector<std::vector<int>> y(static_cast<std::size_t>(buckets));
  for (int k = 0; k < buckets; ++k) {
    for (int s = 0; s < sites; ++s) {
      x[static_cast<std::size_t>(k)].push_back(
          model.add_binary("x", rng.uniform(0.0, 50.0)));
      y[static_cast<std::size_t>(k)].push_back(
          model.add_var("y", 100.0, 0.0, 1.0));
    }
  }
  for (int k = 0; k < buckets; ++k) {
    std::vector<std::pair<int, double>> one;
    for (int s = 0; s < sites; ++s) {
      one.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
    }
    model.add_constraint(std::move(one), solver::Rel::eq, 1.0);
    for (int s = 0; s < sites; ++s) {
      std::vector<std::pair<int, double>> terms;
      terms.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
      double rhs = 0.0;
      if (k > 0) {
        terms.emplace_back(
            x[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(s)],
            -1.0);
      } else {
        rhs = s == 0 ? 1.0 : 0.0;
      }
      terms.emplace_back(
          y[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], -1.0);
      model.add_constraint(std::move(terms), solver::Rel::le, rhs);
    }
  }
  return model;
}

/// Re-draw the drifting part of a trajectory MIP in place: the x costs
/// (the forecast-dependent deficit penalties). Replays the exact rng
/// stream trajectory_mip draws for `seed`, so a patched model is bitwise
/// identical to a scratch build with the same seed — the incremental-build
/// contract MipScheduler relies on, exercised here on the bench's own
/// model family.
void patch_trajectory_mip(solver::Model& model, int sites, int buckets,
                          std::uint64_t seed) {
  util::Rng rng{seed};
  for (int k = 0; k < buckets; ++k) {
    for (int s = 0; s < sites; ++s) {
      // Interleaved layout: x[k][s] at 2*(k*sites+s), y right after.
      const auto xi = static_cast<std::size_t>(2 * (k * sites + s));
      model.vars()[xi].cost = rng.uniform(0.0, 50.0);
    }
  }
}

/// Consecutive replans the steady-state build must amortize over.
constexpr int kReplanRounds = 4;

struct CellResult {
  int sites = 0;
  int k = 0;
  int horizon_hours = 0;
  int buckets = 0;
  double build_ms = 0.0;       // replan model construction, untimed below
  // Amortized replan series: from-scratch build of every app's model
  // (first replan) vs patching the cached models in place (every replan
  // after), over kReplanRounds of drifting forecasts.
  double build_first_ms = 0.0;
  double build_steady_ms = 0.0;
  // Fastest steady-state round of patch + solve_mip through the
  // cached models and their compiled plans (every app of the cell).
  double solve_steady_ms = 0.0;
  bool delta_identical = true;  // patched == scratch, planned == fresh
  const char* engine_selected = "";  // resolve_engine on this cell's models
  double ref_ms = 0.0;         // reference engine, replan solves
  double revised_ms = 0.0;     // revised engine (solve_revised), cold
  double decomposed_ms = 0.0;  // decomposition (chain DP master)
  int ref_nodes = 0;
  int revised_nodes = 0;
  int decomposed_nodes = 0;
  std::int64_t ref_pivots = 0;
  std::int64_t revised_pivots = 0;
  // Decomposition stage counters (summed over the cell's apps).
  int blocks = 0;
  int chain_blocks = 0;
  int master_iterations = 0;
  int monolithic_fallbacks = 0;
  bool objectives_match = true;
};

template <typename Fn>
double wall_ms(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-N wall time of `fn`; both engines are deterministic, so repeats
/// re-measure identical work and the min strips scheduler noise.
template <typename Fn>
double best_ms(int repeats, const Fn& fn) {
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) best = std::min(best, wall_ms(fn));
  return best;
}

CellResult run_cell(int sites, int k, int horizon_hours) {
  CellResult cell;
  cell.sites = sites;
  cell.k = k;
  cell.horizon_hours = horizon_hours;
  cell.buckets = (horizon_hours + kBucketHours - 1) / kBucketHours;
  const int apps = sites;  // one trajectory MIP per app, as a replan does
  const auto n_apps = static_cast<std::size_t>(apps);
  // Large cells re-measure plenty of work per repeat; fewer repeats keep
  // the sweep's total runtime in check without hurting the min.
  const int repeats = sites >= 100 ? 3 : 5;

  // The bench compares the engines head to head, so each solve pins one
  // through its entry point; the default solve_mip gets its own
  // cross-check below.
  const auto solve_decomposed = [](const solver::Model& model) {
    solver::CompiledModel plan{model};
    return solver::solve_mip_decomposed(model, plan);
  };

  const auto check = [&](const solver::MipResult& got,
                         const solver::MipResult& want) {
    if (got.status != want.status ||
        std::abs(got.objective - want.objective) > kObjTol) {
      cell.objectives_match = false;
    }
  };

  // The replan's models. Construction happens here, outside every timed
  // region.
  std::vector<solver::Model> models;
  models.reserve(n_apps);
  cell.build_ms = wall_ms([&] {
    for (int a = 0; a < apps; ++a) {
      const auto seed = static_cast<std::uint64_t>(
          7000000 + 1000 * sites + 100 * k + 10 * horizon_hours + a);
      models.push_back(trajectory_mip(k, cell.buckets, seed));
    }
  });

  std::vector<solver::MipResult> ref_results(n_apps);
  cell.ref_ms = best_ms(repeats, [&] {
    for (std::size_t a = 0; a < n_apps; ++a) {
      ref_results[a] = solver::reference::solve_mip(models[a]);
    }
  });

  std::vector<solver::MipResult> revised_results(n_apps);
  cell.revised_ms = best_ms(repeats, [&] {
    for (std::size_t a = 0; a < n_apps; ++a) {
      revised_results[a] = solver::solve_revised(models[a]);
    }
  });

  std::vector<solver::MipResult> decomposed_results(n_apps);
  cell.decomposed_ms = best_ms(repeats, [&] {
    for (std::size_t a = 0; a < n_apps; ++a) {
      decomposed_results[a] = solve_decomposed(models[a]);
    }
  });

  for (std::size_t a = 0; a < n_apps; ++a) {
    const solver::MipResult& want = ref_results[a];
    check(revised_results[a], want);
    check(decomposed_results[a], want);
    cell.ref_nodes += want.nodes_explored;
    cell.revised_nodes += revised_results[a].nodes_explored;
    cell.decomposed_nodes += decomposed_results[a].nodes_explored;
    cell.ref_pivots += want.pivots;
    cell.revised_pivots += revised_results[a].pivots;
    cell.blocks += decomposed_results[a].blocks;
    cell.chain_blocks += decomposed_results[a].chain_blocks;
    cell.master_iterations += decomposed_results[a].master_iterations;
    if (decomposed_results[a].monolithic_fallback) {
      ++cell.monolithic_fallbacks;
    }
  }

  // Engine selection: what solve_mip dispatches this cell's models to (a
  // pure function of shape — every app in the cell shares it),
  // cross-checked against the reference on one untimed pass.
  cell.engine_selected =
      solver::engine_name(solver::resolve_engine(models[0]));
  for (std::size_t a = 0; a < n_apps; ++a) {
    check(solver::solve_mip(models[a]), ref_results[a]);
  }

  // Amortized replan series (incremental model build): replan 1 builds
  // every app's model from scratch into a ModelCache; replans 2..N patch
  // the cached models' drifting costs in place, the way MipScheduler's
  // incremental builder does. Steady state is the min patch round; the
  // patched model is checked bitwise against a scratch build of the same
  // forecast so the fast path provably changes nothing.
  {
    solver::ModelCache cache;
    const auto drift_seed = [&](int round, int a) {
      return static_cast<std::uint64_t>(9000000 + 100000 * round +
                                        1000 * sites + 100 * k +
                                        10 * horizon_hours + a);
    };
    const auto key_of = [](int a) {
      return solver::ModelCache::Key{a, 0, 0};
    };
    cell.build_first_ms = wall_ms([&] {
      for (int a = 0; a < apps; ++a) {
        cache.get(key_of(a), [&] {
          return trajectory_mip(k, cell.buckets, drift_seed(0, a));
        });
      }
    });
    const auto no_build = [&]() -> solver::Model {
      cell.delta_identical = false;  // cache miss on a steady round
      return trajectory_mip(k, cell.buckets, 0);
    };
    cell.build_steady_ms = 1e300;
    for (int round = 1; round <= kReplanRounds; ++round) {
      cell.build_steady_ms = std::min(cell.build_steady_ms, wall_ms([&] {
        for (int a = 0; a < apps; ++a) {
          patch_trajectory_mip(cache.get(key_of(a), no_build).model, k,
                               cell.buckets, drift_seed(round, a));
        }
      }));
    }
    const solver::Model scratch =
        trajectory_mip(k, cell.buckets, drift_seed(kReplanRounds, 0));
    if (!solver::models_bitwise_equal(cache.get(key_of(0), no_build).model,
                                      scratch)) {
      cell.delta_identical = false;
    }

    // Steady-state replan: patch plus solve_mip on each cached
    // model's compiled plan, as MipScheduler does between topology
    // changes. The first planned solve compiles; the timed rounds after
    // it reuse the plan. Each result is held to a from-scratch solve.
    std::vector<solver::MipResult> planned(n_apps);
    const auto planned_round = [&](int round) {
      for (int a = 0; a < apps; ++a) {
        solver::ModelCache::Entry& entry = cache.get(key_of(a), no_build);
        patch_trajectory_mip(entry.model, k, cell.buckets,
                             drift_seed(round, a));
        planned[static_cast<std::size_t>(a)] =
            solver::solve_mip(entry.model, entry.plan);
      }
    };
    planned_round(0);
    cell.solve_steady_ms = 1e300;
    for (int round = 1; round <= kReplanRounds; ++round) {
      cell.solve_steady_ms = std::min(
          cell.solve_steady_ms, wall_ms([&] { planned_round(round); }));
    }
    for (int a = 0; a < apps; ++a) {
      const solver::MipResult fresh =
          solver::solve_mip(cache.get(key_of(a), no_build).model);
      const solver::MipResult& got = planned[static_cast<std::size_t>(a)];
      if (got.status != fresh.status || got.x != fresh.x ||
          got.nodes_explored != fresh.nodes_explored) {
        cell.delta_identical = false;
      }
    }
  }
  return cell;
}

bool write_json(const std::string& path, const std::vector<CellResult>& rows) {
  std::ofstream out{path};
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "solver");
  json.begin_array("results");
  for (const CellResult& r : rows) {
    json.begin_object();
    json.field("sites", r.sites);
    json.field("k", r.k);
    json.field("horizon_hours", r.horizon_hours);
    json.field("buckets", r.buckets);
    json.field("build_ms", r.build_ms);
    json.field("build_first_ms", r.build_first_ms);
    json.field("build_steady_ms", r.build_steady_ms);
    json.field("build_amortization",
               r.build_first_ms / std::max(1e-9, r.build_steady_ms));
    json.field("solve_steady_ms", r.solve_steady_ms);
    json.field("delta_identical", r.delta_identical);
    json.field("engine_selected", r.engine_selected);
    json.field("ref_ms", r.ref_ms);
    json.field("revised_ms", r.revised_ms);
    json.field("decomposed_ms", r.decomposed_ms);
    json.field("speedup", r.ref_ms / std::max(1e-9, r.revised_ms));
    json.field("decomposed_speedup",
               r.revised_ms / std::max(1e-9, r.decomposed_ms));
    json.field("ref_nodes", r.ref_nodes);
    json.field("revised_nodes", r.revised_nodes);
    json.field("decomposed_nodes", r.decomposed_nodes);
    json.field("ref_pivots", r.ref_pivots);
    json.field("revised_pivots", r.revised_pivots);
    json.field("blocks", r.blocks);
    json.field("chain_blocks", r.chain_blocks);
    json.field("master_iterations", r.master_iterations);
    json.field("monolithic_fallbacks", r.monolithic_fallbacks);
    json.field("objectives_match", r.objectives_match);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int max_sites = 1 << 30;  // --max-sites caps the sweep (perf_smoke)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--max-sites" && i + 1 < argc) {
      max_sites = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json] [--max-sites n]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf(
      "solver replan sweep: reference tableau vs revised vs decomposed\n");
  std::printf(
      "  %5s %2s %8s %7s %7s %7s %6s %7s | %9s %9s %9s | %7s %7s | %6s "
      "%6s %5s | %-10s | %s\n",
      "sites", "k", "horizon", "buckets", "bld1 ms", "bldN ms", "amort",
      "slvN ms",
      "ref ms", "rev ms", "dec ms", "spd", "dec spd", "blocks", "master",
      "fall", "engine", "match");

  std::vector<CellResult> rows;
  bool all_match = true;
  bool all_delta_identical = true;
  double acceptance_speedup = -1.0;      // 100-site / k=4 / 24h cell
  double build_amortization = -1.0;      // 250-site / k=4 / 168h cell
  for (const int sites : {10, 25, 100, 250}) {
    if (sites > max_sites) continue;
    for (const int k : {2, 4}) {
      for (const int horizon_hours : {24, 168}) {
        const CellResult cell = run_cell(sites, k, horizon_hours);
        all_match = all_match && cell.objectives_match;
        all_delta_identical = all_delta_identical && cell.delta_identical;
        rows.push_back(cell);
        const double speedup = cell.ref_ms / std::max(1e-9, cell.revised_ms);
        const double dec_speedup =
            cell.revised_ms / std::max(1e-9, cell.decomposed_ms);
        if (sites == 100 && k == 4 && horizon_hours == 24) {
          acceptance_speedup = dec_speedup;
        }
        const double amortization =
            cell.build_first_ms / std::max(1e-9, cell.build_steady_ms);
        if (sites == 250 && k == 4 && horizon_hours == 168) {
          build_amortization = amortization;
        }
        std::printf(
            "  %5d %2d %7dh %7d %7.2f %7.2f %5.1fx %7.2f | %9.2f %9.2f "
            "%9.2f | %6.1fx %6.1fx | %6d %6d %5d | %-10s | %s\n",
            cell.sites, cell.k, cell.horizon_hours, cell.buckets,
            cell.build_first_ms, cell.build_steady_ms, amortization,
            cell.solve_steady_ms,
            cell.ref_ms, cell.revised_ms, cell.decomposed_ms, speedup,
            dec_speedup, cell.blocks,
            cell.master_iterations, cell.monolithic_fallbacks,
            cell.engine_selected,
            cell.objectives_match && cell.delta_identical ? "yes" : "NO");
      }
    }
  }

  if (!json_path.empty()) {
    if (!write_json(json_path, rows)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: an engine diverged from the reference solver\n");
    return 1;
  }
  if (!all_delta_identical) {
    std::fprintf(stderr,
                 "FAIL: a patched model diverged bitwise from its scratch "
                 "build, or a planned solve from a fresh one\n");
    return 1;
  }
  if (acceptance_speedup >= 0.0 && acceptance_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: decomposed speedup %.2fx < 3x on the 100-site "
                 "k=4 24h acceptance cell\n",
                 acceptance_speedup);
    return 1;
  }
  if (build_amortization >= 0.0 && build_amortization < 3.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state model build only %.2fx faster than "
                 "first-replan build on the 250-site k=4 168h cell (>= 3x "
                 "required)\n",
                 build_amortization);
    return 1;
  }
  return 0;
}
