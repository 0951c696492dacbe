#include "vbatt/core/mip_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "vbatt/stats/quantile.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::core {

MipScheduler::MipScheduler(MipSchedulerConfig config)
    : config_{std::move(config)} {
  if (config_.clique_k < 1 || config_.candidate_subgraphs < 1 ||
      config_.bucket_ticks < 1 || config_.max_buckets < 1) {
    throw std::invalid_argument{"MipSchedulerConfig: invalid"};
  }
  if (config_.capacity_safety <= 0.0 || config_.capacity_safety > 1.0) {
    throw std::invalid_argument{
        "MipSchedulerConfig: capacity_safety out of (0, 1]"};
  }
  if (config_.objective != MipSchedulerConfig::Objective::none) {
    if (config_.objective_signal == nullptr) {
      throw std::invalid_argument{
          "MipSchedulerConfig: objective != none requires objective_signal"};
    }
    if (config_.objective_kw_per_core <= 0.0 ||
        config_.objective_eps_rel < 0.0) {
      throw std::invalid_argument{
          "MipSchedulerConfig: invalid econ objective parameters"};
    }
  }
}

int MipScheduler::bucket_count(const FleetState& state,
                               util::Tick end_tick) const {
  util::Tick horizon_end = static_cast<util::Tick>(state.graph->n_ticks());
  if (config_.horizon_ticks >= 0) {
    horizon_end = std::min(horizon_end, cache_now_ + config_.horizon_ticks);
  }
  if (end_tick >= 0) horizon_end = std::min(horizon_end, end_tick);
  const util::Tick span = std::max<util::Tick>(1, horizon_end - cache_now_);
  const auto buckets = static_cast<int>(
      (span + config_.bucket_ticks - 1) / config_.bucket_ticks);
  return std::min(buckets, config_.max_buckets);
}

void MipScheduler::refresh_capacity(const FleetState& state) {
  cache_now_ = state.now;
  const std::size_t n_sites = state.graph->n_sites();
  const int buckets = bucket_count(state, /*end_tick=*/-1);

  capacity_.assign(n_sites, std::vector<double>(
                                static_cast<std::size_t>(buckets), 0.0));
  load_.assign(n_sites, std::vector<double>(
                             static_cast<std::size_t>(buckets), 0.0));
  committed_moves_gb_.assign(static_cast<std::size_t>(buckets), 0.0);

  const auto trace_end = static_cast<util::Tick>(state.graph->n_ticks());
  const util::Tick window_end = std::min(
      trace_end,
      cache_now_ + config_.bucket_ticks * static_cast<util::Tick>(buckets));

  util::ThreadPool& pool = util::ThreadPool::shared();

  // One forecast materialization per replan; capacity bucketing and clique
  // ranking both read from it instead of per-tick forecast_cores calls.
  forecast_cache_.refresh(*state.graph, cache_now_, cache_now_, window_end,
                          pool);

  const auto fill_sites = [&](std::size_t first, std::size_t last) {
    std::vector<double> cores;
    for (std::size_t s = first; s < last; ++s) {
      const std::vector<int>& series = forecast_cache_.series(s);
      for (int b = 0; b < buckets; ++b) {
        const util::Tick begin = cache_now_ + b * config_.bucket_ticks;
        const util::Tick end =
            std::min(trace_end, begin + config_.bucket_ticks);
        // Bucket capacity: 25th percentile of the forecast over the bucket.
        // A strict window-minimum proved too trigger-happy (forecast noise
        // manufactures phantom deficits and churns the plan) while the mean
        // lets the planner ride the capacity edge and get bitten by
        // intra-bucket dips; the lower quartile balances the two.
        cores.clear();
        for (util::Tick t = begin; t < end; ++t) {
          cores.push_back(static_cast<double>(
              series[static_cast<std::size_t>(t - cache_now_)]));
        }
        double value = 0.0;
        if (!cores.empty()) {
          value = stats::order_statistic_in_place(cores, cores.size() / 4);
        }
        capacity_[s][static_cast<std::size_t>(b)] = value;
      }
    }
  };
  pool.parallel_for(n_sites, fill_sites);

  ranked_ = rank_subgraphs(*state.graph, config_.clique_k, cache_now_,
                           config_.bucket_ticks *
                               static_cast<util::Tick>(buckets),
                           forecast_cache_, pool);

  // Econ-stage coefficients: the price/carbon signal summed over each
  // bucket's ticks, same bucket boundaries as capacity_. The per-app x
  // cost is this sum scaled by the app's core power draw.
  if (config_.objective != MipSchedulerConfig::Objective::none) {
    objective_sum_.assign(
        n_sites,
        std::vector<double>(static_cast<std::size_t>(buckets), 0.0));
    const energy::SiteSeries& signal = *config_.objective_signal;
    for (std::size_t s = 0; s < n_sites; ++s) {
      for (int b = 0; b < buckets; ++b) {
        const util::Tick begin = cache_now_ + b * config_.bucket_ticks;
        const util::Tick end =
            std::min(trace_end, begin + config_.bucket_ticks);
        double sum = 0.0;
        for (util::Tick t = begin; t < end; ++t) {
          sum += signal.value(s, static_cast<double>(t));
        }
        objective_sum_[s][static_cast<std::size_t>(b)] = sum;
      }
    }
  } else {
    objective_sum_.clear();
  }
}

std::optional<MipScheduler::Trajectory> MipScheduler::solve_app(
    const FleetState& state, int stable_cores, double stable_mem_gb,
    util::Tick end_tick, const std::vector<std::size_t>& sites,
    std::optional<std::size_t> current_site) {
  const int total_buckets = static_cast<int>(committed_moves_gb_.size());
  int b0 = static_cast<int>((state.now - cache_now_) / config_.bucket_ticks);
  b0 = std::clamp(b0, 0, total_buckets - 1);
  int b_end = bucket_count(state, end_tick);
  b_end = std::clamp(b_end, b0 + 1, total_buckets);
  const int full_nb = b_end - b0;
  const auto n_sites = sites.size();
  if (n_sites == 0) return std::nullopt;

  const double demand = static_cast<double>(stable_cores);
  const bool econ_stage =
      config_.objective != MipSchedulerConfig::Objective::none;
  // Scale turning a bucket's summed signal into real units for this app:
  // cores * kW/core * h/tick gives kWh per tick; /1000 converts $/MWh
  // to $/kWh (cost) or g to kg (carbon). Undiscounted by design — the
  // stage value must replay exactly against a per-tick ledger.
  const double econ_scale =
      econ_stage ? demand * config_.objective_kw_per_core *
                       (state.graph->axis().minutes_per_tick() / 60.0) /
                       1000.0
                 : 0.0;

  /// Build and solve the model over `nb` buckets; nullopt when the solver
  /// fails (infeasible or node budget exhausted).
  const auto attempt = [&](const int nb) -> std::optional<Trajectory> {
  const bool has_y0 = current_site.has_value();
  const int y_k0 = has_y0 ? 0 : 1;  // first bucket carrying y vars

  // Variable layout, fixed per structural family (nb, n_sites, has_y0):
  // the x block first, k-major — x[k][s] = "app resides at sites[s]
  // during bucket b0+k" — then the y block, also k-major (move-in
  // indicators; continuous, the x-differences they bound are integral at
  // optimality). Initial placements transfer no state, so k=0 has no y.
  const auto x_index = [n_sites](int k, std::size_t s) {
    return static_cast<std::size_t>(k) * n_sites + s;
  };
  const auto y_index = [nb, n_sites, y_k0](int k, std::size_t s) {
    return static_cast<std::size_t>(nb) * n_sites +
           static_cast<std::size_t>(k - y_k0) * n_sites + s;
  };
  const auto has_y = [has_y0](int k) { return k > 0 || has_y0; };

  // The replan-dependent data: cost vectors and the k=0 move-row rhs.
  // Scratch build and in-place patch both evaluate these expressions in
  // the same order, which is what makes a patched model bitwise-identical
  // to a rebuilt one.
  const auto x_cost = [&](int k, std::size_t s) {
    const std::size_t b = static_cast<std::size_t>(b0 + k);
    const double cap = config_.capacity_safety * capacity_[sites[s]][b];
    const double overflow = load_[sites[s]][b] + demand - cap;
    const double deficit_frac =
        demand > 0.0 ? std::clamp(overflow / demand, 0.0, 1.0) : 0.0;
    const double discount =
        std::pow(config_.discount_per_bucket, static_cast<double>(k));
    return stable_mem_gb * deficit_frac * config_.deficit_penalty * discount;
  };
  const auto y_cost = [&](int k) {
    return stable_mem_gb *
           std::pow(config_.discount_per_bucket, static_cast<double>(k));
  };
  const auto k0_rhs = [&](std::size_t s) {
    return has_y0 && sites[s] == *current_site ? 1.0 : 0.0;
  };

  const auto build_scratch = [&]() {
    solver::Model fresh_model;
    for (int k = 0; k < nb; ++k) {
      for (std::size_t s = 0; s < n_sites; ++s) {
        fresh_model.add_binary("x", x_cost(k, s));
      }
    }
    for (int k = y_k0; k < nb; ++k) {
      const double cost = y_cost(k);
      for (std::size_t s = 0; s < n_sites; ++s) {
        fresh_model.add_var("y", cost, 0.0, 1.0);
      }
    }
    for (int k = 0; k < nb; ++k) {
      std::vector<std::pair<int, double>> one;
      for (std::size_t s = 0; s < n_sites; ++s) {
        one.emplace_back(static_cast<int>(x_index(k, s)), 1.0);
      }
      fresh_model.add_constraint(std::move(one), solver::Rel::eq, 1.0);

      if (!has_y(k)) continue;
      for (std::size_t s = 0; s < n_sites; ++s) {
        // x[k][s] - x[k-1][s] - y[k][s] <= (k==0 ? [s==current] : 0)
        std::vector<std::pair<int, double>> terms;
        terms.emplace_back(static_cast<int>(x_index(k, s)), 1.0);
        double rhs = 0.0;
        if (k > 0) {
          terms.emplace_back(static_cast<int>(x_index(k - 1, s)), -1.0);
        } else {
          rhs = k0_rhs(s);
        }
        terms.emplace_back(static_cast<int>(y_index(k, s)), -1.0);
        fresh_model.add_constraint(std::move(terms), solver::Rel::le, rhs);
      }
    }
    return fresh_model;
  };

  // Patch a cached model of the same family in place: every allocation
  // (variable vector, term vectors, name strings) is reused; only costs
  // and the k=0 move-row rhs are rewritten.
  const auto patch = [&](solver::Model& cached) {
    for (int k = 0; k < nb; ++k) {
      for (std::size_t s = 0; s < n_sites; ++s) {
        cached.vars()[x_index(k, s)].cost = x_cost(k, s);
      }
    }
    for (int k = y_k0; k < nb; ++k) {
      const double cost = y_cost(k);
      for (std::size_t s = 0; s < n_sites; ++s) {
        cached.vars()[y_index(k, s)].cost = cost;
      }
    }
    if (has_y0) {
      // Row layout: k=0's eq row sits at 0 followed by its n_sites move
      // rows — the only rows whose rhs depends on replan data (the
      // current-site position).
      for (std::size_t s = 0; s < n_sites; ++s) {
        cached.set_rhs(1 + s, k0_rhs(s));
      }
    }
  };

  solver::Model scratch_model;  // used when incremental build is off
  solver::Model* model_ptr = nullptr;
  solver::ModelCache::Entry* cached = nullptr;
  const auto build_t0 = std::chrono::steady_clock::now();
  if (config_.incremental_build) {
    const solver::ModelCache::Key key{
        nb, static_cast<std::int64_t>(n_sites), has_y0 ? 1 : 0};
    bool fresh = false;
    cached = &model_cache_.get(key, build_scratch, &fresh);
    if (fresh) {
      ++model_builds_;
    } else {
      patch(cached->model);
      ++model_patches_;
      if (config_.verify_incremental_build) {
        const solver::Model rebuilt = build_scratch();
        const std::string diff =
            solver::diff_models_bitwise(cached->model, rebuilt);
        if (!diff.empty()) {
          throw std::logic_error{
              "MipScheduler: patched model diverged from scratch build: " +
              diff};
        }
        // The plan the next solve reuses must be what a recompile of the
        // patched model produces: patches never touch structure.
        if (cached->plan.compiled &&
            !(cached->plan == solver::CompiledModel{cached->model})) {
          throw std::logic_error{
              "MipScheduler: cached compiled plan diverged from a recompile "
              "of the patched model"};
        }
      }
    }
    model_ptr = &cached->model;
  } else {
    scratch_model = build_scratch();
    ++model_builds_;
    model_ptr = &scratch_model;
  }
  model_build_ms_ += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - build_t0)
                         .count();
  solver::Model& model = *model_ptr;

  ++solve_count_;
  // A cached model solves on its cached plan, compiled once per family.
  // The econ and peak stages below add rows, so their solves (and the next
  // solve on this plan) compile afresh.
  solver::MipResult primary =
      cached != nullptr ? solver::solve_mip(model, cached->plan, config_.mip)
                        : solver::solve_mip(model, config_.mip);
  if (primary.status != solver::LpStatus::optimal) return std::nullopt;

  solver::MipResult chosen = primary;

  // Econ stage (in place): cap O1 at the stage-1 optimum, swap in the
  // undiscounted cost/carbon coefficients, and minimize. The coefficient
  // vector is cached per structural family and patched in place exactly
  // like the model itself — patch and scratch evaluate the same
  // expressions in the same order, so a patched vector is
  // bitwise-identical to a rebuilt one. On success the cap row and econ
  // costs stay active through the optional peak stage (which then bounds
  // the econ objective, keeping the chain lexicographic) and are undone
  // after it; on failure they unwind immediately and the peak stage runs
  // against O1 as before.
  std::vector<double> econ_saved_costs;
  bool econ_capped = false;
  if (econ_stage) {
    const std::size_t n_structural = model.n_vars();
    const auto econ_coeff = [&](int k, std::size_t s) {
      return objective_sum_[sites[s]][static_cast<std::size_t>(b0 + k)] *
             econ_scale;
    };
    const auto econ_scratch = [&]() {
      std::vector<double> c(n_structural, 0.0);
      for (int k = 0; k < nb; ++k) {
        for (std::size_t s = 0; s < n_sites; ++s) {
          c[x_index(k, s)] = econ_coeff(k, s);
        }
      }
      return c;
    };
    // The econ vector lives in the model's cache entry (a scratch vector
    // when incremental build is off).
    std::vector<double> scratch_econ;
    std::vector<double>& econ = cached != nullptr ? cached->econ : scratch_econ;
    if (econ.empty()) {
      econ = econ_scratch();
    } else {
      for (int k = 0; k < nb; ++k) {
        for (std::size_t s = 0; s < n_sites; ++s) {
          econ[x_index(k, s)] = econ_coeff(k, s);
        }
      }
      if (config_.verify_incremental_build) {
        const std::vector<double> rebuilt = econ_scratch();
        if (rebuilt.size() != econ.size() ||
            (!rebuilt.empty() &&
             std::memcmp(rebuilt.data(), econ.data(),
                         rebuilt.size() * sizeof(double)) != 0)) {
          throw std::logic_error{
              "MipScheduler: patched econ coefficients diverged from "
              "scratch build"};
        }
      }
    }

    econ_saved_costs.resize(n_structural);
    std::vector<std::pair<int, double>> o1_terms;
    for (std::size_t v = 0; v < n_structural; ++v) {
      const double c = model.vars()[v].cost;
      econ_saved_costs[v] = c;
      if (c != 0.0) o1_terms.emplace_back(static_cast<int>(v), c);
    }
    model.add_constraint(std::move(o1_terms), solver::Rel::le,
                         primary.objective +
                             std::abs(primary.objective) *
                                 config_.objective_eps_rel +
                             1e-6);
    for (std::size_t v = 0; v < n_structural; ++v) {
      model.vars()[v].cost = econ[v];
    }
    ++solve_count_;
    solver::MipResult second = solver::solve_mip(model, config_.mip);
    if (second.status == solver::LpStatus::optimal) {
      chosen = second;
      econ_capped = true;
    } else {
      // Unwind immediately: the peak stage below must see O1 costs.
      model.pop_constraint();
      for (std::size_t v = 0; v < n_structural; ++v) {
        model.vars()[v].cost = econ_saved_costs[v];
      }
    }
  }

  if (config_.optimize_peak) {
    // Peak stage, in place: cap the objective of the stage just solved
    // (O1, or the econ objective when that stage is active — its costs
    // are still on the model), zero the costs, and minimize the peak
    // per-bucket move volume; every edit is undone after the solve.
    const std::size_t n_structural = model.n_vars();
    std::vector<std::pair<int, double>> o1_terms;
    std::vector<double> primary_costs(n_structural, 0.0);
    for (std::size_t i = 0; i < n_structural; ++i) {
      const double c = model.vars()[i].cost;
      primary_costs[i] = c;
      if (c != 0.0) o1_terms.emplace_back(static_cast<int>(i), c);
    }
    model.add_constraint(std::move(o1_terms), solver::Rel::le,
                         chosen.objective +
                             std::abs(chosen.objective) *
                                 config_.peak_eps_rel +
                             1e-6);
    for (std::size_t i = 0; i < n_structural; ++i) {
      model.vars()[i].cost = 0.0;
    }
    const int peak = model.add_var("peak", 1.0);
    int peak_rows = 0;
    for (int k = 0; k < nb; ++k) {
      if (!has_y(k)) continue;
      std::vector<std::pair<int, double>> terms;
      for (std::size_t s = 0; s < n_sites; ++s) {
        terms.emplace_back(static_cast<int>(y_index(k, s)), stable_mem_gb);
      }
      terms.emplace_back(peak, -1.0);
      model.add_constraint(
          std::move(terms), solver::Rel::le,
          -committed_moves_gb_[static_cast<std::size_t>(b0 + k)]);
      ++peak_rows;
    }
    ++solve_count_;
    solver::MipResult second = solver::solve_mip(model, config_.mip);
    // Restore the stage-1 model: peak rows, peak variable, O1 cap, costs.
    for (int r = 0; r < peak_rows; ++r) model.pop_constraint();
    model.pop_var();
    model.pop_constraint();
    for (std::size_t i = 0; i < n_structural; ++i) {
      model.vars()[i].cost = primary_costs[i];
    }
    if (second.status == solver::LpStatus::optimal) {
      second.x.resize(n_structural);  // drop the peak variable
      chosen = second;
      chosen.objective = model.objective_of(second.x);
    }
  }

  if (econ_capped) {
    // Undo the econ stage (LIFO under the peak stage's own pops) and
    // re-express the chosen objective in O1 units, as every caller of
    // Trajectory::cost expects.
    model.pop_constraint();
    for (std::size_t v = 0; v < econ_saved_costs.size(); ++v) {
      model.vars()[v].cost = econ_saved_costs[v];
    }
    chosen.objective = model.objective_of(chosen.x);
  }

  Trajectory trajectory;
  trajectory.cost = chosen.objective;
  trajectory.start = cache_now_ + b0 * config_.bucket_ticks;
  trajectory.sites.resize(static_cast<std::size_t>(nb));
  for (int k = 0; k < nb; ++k) {
    std::size_t site = sites[0];
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (chosen.x[x_index(k, s)] > 0.5) {
        site = sites[s];
        break;
      }
    }
    trajectory.sites[static_cast<std::size_t>(k)] = site;
  }
  if (econ_stage) {
    // Econ value of the final plan, bucket by bucket in horizon order —
    // the exact quantity the accounting-identity tests replay per tick.
    double econ_value = 0.0;
    for (int k = 0; k < nb; ++k) {
      const std::size_t site = trajectory.sites[static_cast<std::size_t>(k)];
      econ_value +=
          objective_sum_[site][static_cast<std::size_t>(b0 + k)] * econ_scale;
    }
    trajectory.objective_cost = econ_value;
  }
  return trajectory;
  };  // attempt

  std::optional<Trajectory> trajectory = attempt(full_nb);
  if (trajectory) return trajectory;
  // Fallback rung 1: the full-horizon model failed; a model half as deep
  // is exponentially cheaper to branch on and usually feasible.
  if (full_nb > 1) {
    ++fallback_count_;
    trajectory = attempt(std::max(1, full_nb / 2));
    if (trajectory) return trajectory;
  }
  // Fallback rung 2: no MIP answer at any horizon. The caller degrades to
  // greedy behavior (greedy placement for arrivals; replans keep the
  // current site, i.e. greedy's purely reactive stance). Never fatal.
  ++fallback_count_;
  return std::nullopt;
}

std::vector<Move> MipScheduler::commit(std::int64_t app_id,
                                       const Trajectory& trajectory,
                                       int stable_cores, double stable_mem_gb,
                                       std::optional<std::size_t> current_site) {
  std::vector<Move> moves;
  const int total_buckets = static_cast<int>(committed_moves_gb_.size());
  const int b0 = static_cast<int>(
      (trajectory.start - cache_now_) / config_.bucket_ticks);
  std::optional<std::size_t> prev = current_site;
  for (std::size_t k = 0; k < trajectory.sites.size(); ++k) {
    const std::size_t site = trajectory.sites[k];
    const int b = b0 + static_cast<int>(k);
    if (b >= 0 && b < total_buckets) {
      load_[site][static_cast<std::size_t>(b)] +=
          static_cast<double>(stable_cores);
      if (prev.has_value() && *prev != site) {
        committed_moves_gb_[static_cast<std::size_t>(b)] += stable_mem_gb;
      }
    }
    if (prev.has_value() && *prev != site) {
      util::Tick at = trajectory.start +
                      static_cast<util::Tick>(k) * config_.bucket_ticks;
      if (config_.spread_moves_in_bucket) {
        // Deterministic stagger inside the bucket (keyed by app id).
        at += static_cast<util::Tick>(
            static_cast<std::uint64_t>(app_id) %
            static_cast<std::uint64_t>(config_.bucket_ticks));
      }
      moves.push_back(Move{app_id, site, std::max(cache_now_, at)});
    }
    prev = site;
  }
  return moves;
}

Scheduler::Placement MipScheduler::place(const workload::Application& app,
                                         const FleetState& state) {
  if (cache_now_ < 0) refresh_capacity(state);

  const util::Tick end_tick =
      app.lifetime_ticks < 0 ? -1 : state.now + app.lifetime_ticks;

  // Evaluate the top-ranked candidate subgraphs with the MIP; keep the
  // cheapest trajectory (steps 2+3 of §3.1 combined).
  std::optional<Trajectory> best;
  const std::vector<std::size_t>* best_sites = nullptr;
  int evaluated = 0;
  for (const RankedSubgraph& candidate : ranked_) {
    if (evaluated >= config_.candidate_subgraphs) break;
    if (candidate.mean_cores < app.stable_cores()) continue;  // hopeless
    ++evaluated;
    const std::optional<Trajectory> trajectory =
        solve_app(state, app.stable_cores(), app.stable_memory_gb(),
                  end_tick, candidate.sites, std::nullopt);
    if (trajectory && (!best || trajectory->cost < best->cost)) {
      best = trajectory;
      best_sites = &candidate.sites;
    }
  }

  Placement placement;
  if (!best) {
    // Degenerate fallback (no clique fits / every solve failed): greedy
    // headroom site.
    ++fallback_count_;
    GreedyScheduler greedy;
    return greedy.place(app, state);
  }
  placement.allowed = *best_sites;
  placement.site = best->sites.front();
  placement.scheduled_moves = commit(app.app_id, *best, app.stable_cores(),
                                     app.stable_memory_gb(), std::nullopt);
  prev_trajectories_[app.app_id] = *best;
  return placement;
}

std::vector<Move> MipScheduler::replan(const FleetState& state) {
  refresh_capacity(state);

  // Re-solve live apps largest-first against fresh ledgers.
  std::vector<const LiveApp*> live;
  live.reserve(state.apps.size());
  for (const auto& [id, app] : state.apps) live.push_back(&app);
  std::sort(live.begin(), live.end(), [](const LiveApp* a, const LiveApp* b) {
    if (a->app.stable_cores() != b->app.stable_cores()) {
      return a->app.stable_cores() > b->app.stable_cores();
    }
    return a->app.app_id < b->app.app_id;
  });

  // Drop stored trajectories of departed apps.
  for (auto it = prev_trajectories_.begin();
       it != prev_trajectories_.end();) {
    if (state.apps.find(it->first) == state.apps.end()) {
      it = prev_trajectories_.erase(it);
    } else {
      ++it;
    }
  }

  std::vector<Move> schedule;
  for (const LiveApp* app : live) {
    const std::optional<Trajectory> trajectory = solve_app(
        state, app->app.stable_cores(), app->app.stable_memory_gb(),
        app->end_tick, app->allowed, app->site);
    if (!trajectory) continue;
    std::vector<Move> moves =
        commit(app->app.app_id, *trajectory, app->app.stable_cores(),
               app->app.stable_memory_gb(), app->site);
    schedule.insert(schedule.end(), moves.begin(), moves.end());
    prev_trajectories_[app->app.app_id] = *trajectory;
  }
  return schedule;
}

MipSchedulerConfig make_mip_config() {
  MipSchedulerConfig config;
  config.name = "MIP";
  config.horizon_ticks = -1;
  config.optimize_peak = false;
  return config;
}

void MipScheduler::save_state(util::wire::Writer& w) const {
  const auto save_matrix = [&w](const std::vector<std::vector<double>>& m) {
    w.u64(m.size());
    for (const std::vector<double>& row : m) w.vec_f64(row);
  };
  w.i64(cache_now_);
  save_matrix(capacity_);
  save_matrix(load_);
  w.vec_f64(committed_moves_gb_);
  save_matrix(objective_sum_);
  w.u64(ranked_.size());
  for (const RankedSubgraph& sub : ranked_) {
    w.vec_u64(sub.sites);
    w.f64(sub.cov);
    w.f64(sub.mean_cores);
  }
  w.u64(prev_trajectories_.size());
  for (const auto& [id, trajectory] : prev_trajectories_) {
    w.i64(id);
    w.f64(trajectory.cost);
    w.f64(trajectory.objective_cost);
    w.i64(trajectory.start);
    w.vec_u64(trajectory.sites);
  }
}

void MipScheduler::restore_state(util::wire::Reader& r) {
  const auto load_matrix = [&r] {
    const std::uint64_t n = r.u64();
    std::vector<std::vector<double>> m;
    m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.push_back(r.vec_f64());
    return m;
  };
  cache_now_ = r.i64();
  capacity_ = load_matrix();
  load_ = load_matrix();
  committed_moves_gb_ = r.vec_f64();
  objective_sum_ = load_matrix();
  ranked_.clear();
  const std::uint64_t n_ranked = r.u64();
  for (std::uint64_t i = 0; i < n_ranked; ++i) {
    RankedSubgraph sub;
    sub.sites = r.vec_u64();
    sub.cov = r.f64();
    sub.mean_cores = r.f64();
    ranked_.push_back(std::move(sub));
  }
  prev_trajectories_.clear();
  const std::uint64_t n_prev = r.u64();
  for (std::uint64_t i = 0; i < n_prev; ++i) {
    const std::int64_t id = r.i64();
    Trajectory trajectory;
    trajectory.cost = r.f64();
    trajectory.objective_cost = r.f64();
    trajectory.start = r.i64();
    trajectory.sites = r.vec_u64();
    prev_trajectories_.emplace(id, std::move(trajectory));
  }
}

MipSchedulerConfig make_mip24h_config() {
  MipSchedulerConfig config;
  config.name = "MIP-24h";
  config.horizon_ticks = 96;  // one day at 15-minute ticks
  config.optimize_peak = false;
  return config;
}

MipSchedulerConfig make_mip_peak_config() {
  MipSchedulerConfig config;
  config.name = "MIP-peak";
  config.horizon_ticks = -1;
  config.optimize_peak = true;
  config.spread_moves_in_bucket = true;
  return config;
}

MipSchedulerConfig make_mip_cost_config(const energy::SiteSeries* signal) {
  MipSchedulerConfig config;
  config.name = "MIP-cost";
  config.horizon_ticks = -1;
  config.objective = MipSchedulerConfig::Objective::cost;
  config.objective_signal = signal;
  return config;
}

MipSchedulerConfig make_mip_carbon_config(const energy::SiteSeries* signal) {
  MipSchedulerConfig config;
  config.name = "MIP-carbon";
  config.horizon_ticks = -1;
  config.objective = MipSchedulerConfig::Objective::carbon;
  config.objective_signal = signal;
  return config;
}

}  // namespace vbatt::core
