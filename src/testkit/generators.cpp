#include "vbatt/testkit/generators.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "vbatt/energy/carbon.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/site.h"

namespace vbatt::testkit {

namespace {

/// Synthetic adversarial trace in [0, 1]. All three kinds drop to
/// 1 - amp/100: `square` toggles every `period` ticks (per-site phase so
/// sites dip out of step), `cliff` holds full power then falls off once
/// and never recovers, `calm` sits at the low level the whole run.
std::vector<double> synth_series(const std::string& kind, std::size_t n_ticks,
                                 double low, std::size_t period,
                                 util::Rng& rng) {
  std::vector<double> series(n_ticks, 1.0);
  if (kind == "calm") {
    std::fill(series.begin(), series.end(), low);
  } else if (kind == "cliff") {
    const std::size_t at = n_ticks > 1 ? rng.below(n_ticks) : 0;
    for (std::size_t t = at; t < n_ticks; ++t) series[t] = low;
  } else {  // square
    const std::size_t phase = rng.below(period);
    for (std::size_t t = 0; t < n_ticks; ++t) {
      series[t] = ((t + phase) / period) % 2 == 0 ? 1.0 : low;
    }
  }
  return series;
}

}  // namespace

energy::FleetConfig make_model_fleet_config(const Spec& spec) {
  const auto sites =
      static_cast<int>(std::max<std::int64_t>(1, spec.get("sites", 2)));
  const int wind = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("wind", 1), 0, sites));
  energy::FleetConfig config;
  config.n_solar = sites - wind;
  config.n_wind = wind;
  config.region_km =
      static_cast<double>(std::max<std::int64_t>(10, spec.get("region", 400)));
  config.peak_mw =
      static_cast<double>(std::max<std::int64_t>(1, spec.get("peak", 6)));
  config.seed = spec.child_seed("fleet");
  return config;
}

energy::Fleet make_fleet(const Spec& spec) {
  const auto sites =
      static_cast<int>(std::max<std::int64_t>(1, spec.get("sites", 2)));
  const int wind = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("wind", 1), 0, sites));
  const auto days = std::max<std::int64_t>(1, spec.get("days", 1));
  const double peak_mw =
      static_cast<double>(std::max<std::int64_t>(1, spec.get("peak", 6)));
  const double region_km =
      static_cast<double>(std::max<std::int64_t>(10, spec.get("region", 400)));
  const std::string kind = spec.get("trace", std::string{"square"});
  const util::TimeAxis axis{15};
  const auto n_ticks =
      static_cast<std::size_t>(days * axis.ticks_per_day());

  if (kind == "model") {
    return energy::generate_fleet(make_model_fleet_config(spec), axis,
                                  n_ticks);
  }
  energy::Fleet fleet;
  const double amp =
      std::clamp<std::int64_t>(spec.get("amp", 60), 0, 100) / 100.0;
  const auto period = static_cast<std::size_t>(
      std::max<std::int64_t>(1, spec.get("period", 16)));
  util::Rng geo{spec.child_seed("geo")};
  fleet.axis = axis;
  for (int s = 0; s < sites; ++s) {
    energy::SiteSpec site;
    site.id = s;
    site.name = "fuzz-" + std::to_string(s);
    site.source =
        s < wind ? energy::Source::wind : energy::Source::solar;
    site.peak_mw = peak_mw;
    site.location = {geo.uniform(0.0, region_km),
                     geo.uniform(0.0, region_km)};
    util::Rng trace_rng{
        spec.child_seed("trace", static_cast<std::uint64_t>(s))};
    fleet.specs.push_back(site);
    fleet.traces.emplace_back(
        axis, peak_mw,
        synth_series(kind, n_ticks, 1.0 - amp, period, trace_rng),
        site.source);
  }
  return fleet;
}

core::VbGraphConfig make_graph_config(const Spec& spec) {
  core::VbGraphConfig config;
  config.oracle_forecasts = spec.get("oracle", std::int64_t{0}) != 0;
  if (spec.has("fwin")) {
    config.forecaster.window_per_lead =
        static_cast<double>(std::max<std::int64_t>(1, spec.get("fwin", 1))) /
        1000.0;
  }
  if (spec.has("fseed")) {
    config.forecaster.seed =
        static_cast<std::uint64_t>(spec.get("fseed", std::int64_t{0}));
  }
  return config;
}

core::VbGraph make_graph(const Spec& spec) {
  return core::VbGraph{make_fleet(spec), make_graph_config(spec)};
}

std::vector<workload::Application> make_apps(const Spec& spec,
                                             const core::VbGraph& graph) {
  workload::AppGeneratorConfig config;
  config.apps_per_hour =
      std::max<std::int64_t>(0, spec.get("aph100", 100)) / 100.0;
  // generate_apps rejects a zero rate; the shrinker's aph100=0 floor means
  // "no workload at all", which is a perfectly good minimal scenario.
  if (config.apps_per_hour <= 0.0) return {};
  config.min_vms = 1;
  config.max_vms = static_cast<int>(
      std::max<std::int64_t>(1, spec.get("maxvms", 8)));
  config.degradable_fraction =
      std::clamp<std::int64_t>(spec.get("deg100", 40), 0, 100) / 100.0;
  config.median_lifetime_hours =
      static_cast<double>(std::max<std::int64_t>(1, spec.get("life", 24)));
  config.seed = spec.child_seed("apps");
  return workload::generate_apps(config, graph.axis(), graph.n_ticks());
}

Scenario make_scenario(const Spec& spec) {
  core::VbGraph graph = make_graph(spec);
  std::vector<workload::Application> apps = make_apps(spec, graph);
  return Scenario{std::move(graph), std::move(apps)};
}

fault::FaultSchedule make_fault_events(const Spec& spec) {
  const auto n_events = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, spec.get("events", 8)));
  constexpr std::uint64_t kSites = 8;
  constexpr std::uint64_t kTicks = 192;
  fault::FaultSchedule schedule;
  schedule.events.reserve(static_cast<std::size_t>(n_events));
  for (std::uint64_t i = 0; i < n_events; ++i) {
    util::Rng rng{spec.child_seed("fault", i)};
    fault::FaultEvent e;
    auto kind = static_cast<fault::FaultKind>(rng.below(5));
    e.site = rng.below(kSites);
    e.start = static_cast<util::Tick>(rng.below(kTicks));
    e.end = e.start + 1 + static_cast<util::Tick>(rng.below(32));
    switch (kind) {
      case fault::FaultKind::site_brownout:
        e.alpha = rng.uniform(0.0, 0.95);
        break;
      case fault::FaultKind::forecast_error:
        e.alpha = rng.uniform(-0.5, 0.5);
        e.sigma = rng.uniform(0.0, 0.3);
        break;
      case fault::FaultKind::link_down:
        e.peer = (e.site + 1 + rng.below(kSites - 1)) % kSites;
        break;
      case fault::FaultKind::server_failure:
        e.count = 1 + static_cast<int>(rng.below(6));
        break;
      case fault::FaultKind::site_blackout:
        break;
    }
    e.kind = kind;
    schedule.events.push_back(e);
  }
  return schedule;
}

solver::Model make_model(const Spec& spec) {
  const auto n_vars = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("vars", 4), 1, 24));
  const auto n_rows = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("rows", 4), 0, 24));
  const auto n_ints = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("ints", 1), 0, n_vars));
  util::Rng rng{spec.child_seed("model")};

  solver::Model model;
  for (int v = 0; v < n_vars; ++v) {
    const bool integer = v < n_ints;
    // Finite upper bounds keep every draw bounded; integrality gets a
    // small box so branch & bound trees stay shallow.
    const double ub = integer ? 1.0 + static_cast<double>(rng.below(4))
                              : rng.uniform(1.0, 12.0);
    std::string name{"x"};
    name += std::to_string(v);
    model.add_var(std::move(name), rng.uniform(-10.0, 10.0), 0.0, ub,
                  integer);
  }
  for (int r = 0; r < n_rows; ++r) {
    const int width = 1 + static_cast<int>(
                              rng.below(static_cast<std::uint64_t>(
                                  std::min(3, n_vars))));
    std::vector<std::pair<int, double>> terms;
    int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_vars)));
    for (int k = 0; k < width; ++k) {
      terms.emplace_back(v, rng.uniform(-5.0, 5.0));
      v = (v + 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(n_vars)))) %
          n_vars;
    }
    const auto rel = static_cast<solver::Rel>(rng.below(3));
    model.add_constraint(std::move(terms), rel, rng.uniform(-8.0, 20.0));
  }
  return model;
}

workload::BatchWorkload make_batch(const Spec& spec, const util::TimeAxis& axis,
                                   std::size_t n_ticks) {
  workload::BatchGeneratorConfig config;
  config.jobs_per_hour =
      std::max<std::int64_t>(0, spec.get("jph100", 60)) / 100.0;
  config.tasks_per_hour =
      std::max<std::int64_t>(0, spec.get("tph100", 120)) / 100.0;
  config.max_cores = static_cast<int>(
      std::clamp<std::int64_t>(spec.get("bcores", 8), 1, 64));
  config.min_cores = std::min(config.min_cores, config.max_cores);
  config.max_run_ticks = static_cast<util::Tick>(
      std::clamp<std::int64_t>(spec.get("brun", 24), 1, 96));
  config.min_run_ticks = std::min(config.min_run_ticks, config.max_run_ticks);
  config.max_slack =
      std::clamp<std::int64_t>(spec.get("bslack100", 300), 100, 800) / 100.0;
  config.min_slack = std::min(config.min_slack, config.max_slack);
  config.max_resume_latency_ticks = static_cast<util::Tick>(
      std::clamp<std::int64_t>(spec.get("blat", 4), 0, 16));
  config.seed = spec.child_seed("batch");
  return workload::generate_batch(config, axis, n_ticks);
}

energy::SiteSeries make_price_series(const Spec& spec, std::size_t n_sites,
                                     std::size_t n_ticks) {
  energy::PriceSeriesConfig config;
  config.base_usd_per_mwh =
      static_cast<double>(spec.get("pbase", std::int64_t{42}));
  config.swing_usd_per_mwh = static_cast<double>(
      std::max<std::int64_t>(0, spec.get("pswing", 18)));
  config.site_spread_usd_per_mwh = static_cast<double>(
      std::max<std::int64_t>(0, spec.get("pspread", 6)));
  config.seed = spec.child_seed("price");
  return energy::make_price_series(config, util::TimeAxis{15}, n_sites,
                                   n_ticks);
}

energy::SiteSeries make_carbon_series(const Spec& spec, std::size_t n_sites,
                                      std::size_t n_ticks) {
  energy::CarbonSeriesConfig config;
  config.grid.grid_base_gco2_per_kwh = static_cast<double>(
      std::max<std::int64_t>(0, spec.get("cbase", 320)));
  config.grid.grid_swing_gco2_per_kwh = static_cast<double>(
      std::max<std::int64_t>(0, spec.get("cswing", 90)));
  config.site_spread_gco2_per_kwh = static_cast<double>(
      std::max<std::int64_t>(0, spec.get("cspread", 25)));
  config.seed = spec.child_seed("carbon");
  return energy::make_carbon_series(config, util::TimeAxis{15}, n_sites,
                                    n_ticks);
}

void gen_graph_keys(Spec& spec, util::Rng& rng) {
  const auto sites = 1 + static_cast<std::int64_t>(rng.below(3));
  spec.set("sites", sites);
  spec.set("wind", static_cast<std::int64_t>(rng.below(
                       static_cast<std::uint64_t>(sites + 1))));
  spec.set("days", 1 + static_cast<std::int64_t>(rng.below(2)));
  spec.set("peak", 2 + static_cast<std::int64_t>(rng.below(8)));
  static const char* kKinds[] = {"model", "square", "cliff", "calm"};
  spec.set("trace", std::string{kKinds[rng.below(4)]});
  spec.set("amp", 20 + static_cast<std::int64_t>(rng.below(81)));
  spec.set("period", 4 + static_cast<std::int64_t>(rng.below(29)));
}

void gen_app_keys(Spec& spec, util::Rng& rng) {
  spec.set("aph100", 25 + static_cast<std::int64_t>(rng.below(200)));
  spec.set("maxvms", 2 + static_cast<std::int64_t>(rng.below(10)));
  spec.set("deg100", static_cast<std::int64_t>(rng.below(101)));
  spec.set("life", 4 + static_cast<std::int64_t>(rng.below(60)));
}

void gen_batch_keys(Spec& spec, util::Rng& rng) {
  spec.set("jph100", static_cast<std::int64_t>(rng.below(301)));
  spec.set("tph100", static_cast<std::int64_t>(rng.below(401)));
  spec.set("bcores", 1 + static_cast<std::int64_t>(rng.below(16)));
  spec.set("brun", 2 + static_cast<std::int64_t>(rng.below(47)));
  spec.set("bslack100", 100 + static_cast<std::int64_t>(rng.below(501)));
  spec.set("blat", static_cast<std::int64_t>(rng.below(9)));
}

void gen_econ_keys(Spec& spec, util::Rng& rng) {
  spec.set("pbase", 20 + static_cast<std::int64_t>(rng.below(61)));
  spec.set("pswing", static_cast<std::int64_t>(rng.below(41)));
  spec.set("pspread", static_cast<std::int64_t>(rng.below(21)));
  spec.set("cbase", 200 + static_cast<std::int64_t>(rng.below(301)));
  spec.set("cswing", static_cast<std::int64_t>(rng.below(151)));
  spec.set("cspread", static_cast<std::int64_t>(rng.below(61)));
}

}  // namespace vbatt::testkit
