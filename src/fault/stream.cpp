#include "vbatt/fault/stream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "vbatt/util/rng.h"

namespace vbatt::fault {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error{"StreamInjector: " + what};
}

std::pair<std::size_t, std::size_t> canonical_edge(std::size_t a,
                                                   std::size_t b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

StreamInjector::StreamInjector(const core::VbGraph& graph,
                               std::uint64_t noise_seed)
    : graph_{graph},
      noise_seed_{noise_seed},
      n_sites_{graph.n_sites()},
      n_ticks_{graph.n_ticks()} {
  base_power_.reserve(n_sites_);
  base_forecast_.reserve(n_sites_);
  // The forecasts are filled on this copy, from its still-pristine power
  // series; the caller's graph is left as it was.
  for (std::size_t s = 0; s < n_sites_; ++s) {
    base_power_.push_back(graph_.site(s).power_norm);
    base_forecast_.push_back(graph_.forecast_norm(s));
  }
  blackouts_.resize(n_sites_);
  brownouts_.resize(n_sites_);
  forecast_faults_.resize(n_sites_);
  outage_windows_.resize(n_sites_);
  admin_.resize(n_sites_);
  drains_.resize(n_sites_);
  admin_open_.assign(n_sites_, 0);
  drain_open_.assign(n_sites_, 0);
  down_.assign(n_sites_ * n_ticks_, 0);
  degraded_.assign(n_sites_ * n_ticks_, 0);
  down_now_.assign(n_sites_, 0);
}

StreamInjector::StreamInjector(const core::VbGraph& graph,
                               std::uint64_t noise_seed,
                               const FaultSchedule& schedule)
    : StreamInjector{graph, noise_seed} {
  schedule.validate(n_sites_, n_ticks_);
  // Record everything first and bake each site once: re-baking per event
  // would copy a site's whole series once per event on it. graph_ is still
  // the pristine copy, so there is nothing to restore before baking.
  for (const FaultEvent& e : schedule.events) record(e, -1);
  for (std::size_t s = 0; s < n_sites_; ++s) bake_site(s);
}

void StreamInjector::inject(const FaultEvent& e, util::Tick now) {
  record(e, now);
  rebake_site(e.site);
}

void StreamInjector::record(const FaultEvent& e, util::Tick now) {
  const auto horizon = static_cast<util::Tick>(n_ticks_);
  if (e.site >= n_sites_) {
    reject("fault event field 'site' out of range: " +
           std::to_string(e.site));
  }
  if (e.start <= now) {
    reject("fault event field 'start' not in the future (start=" +
           std::to_string(e.start) + ", now=" + std::to_string(now) + ")");
  }
  if (e.end <= e.start) {
    reject("fault event field 'end' must exceed 'start' (start=" +
           std::to_string(e.start) + ", end=" + std::to_string(e.end) + ")");
  }
  const util::Tick stop = std::min(e.end, horizon);

  switch (e.kind) {
    case FaultKind::site_blackout:
      blackouts_[e.site].push_back({e.start, stop});
      break;
    case FaultKind::site_brownout:
      if (e.alpha < 0.0 || e.alpha >= 1.0) {
        reject("fault event field 'alpha' outside [0, 1) for brownout: " +
               std::to_string(e.alpha));
      }
      brownouts_[e.site].push_back({e.start, stop, e.alpha});
      break;
    case FaultKind::forecast_error:
      if (e.sigma < 0.0) {
        reject("fault event field 'sigma' negative: " +
               std::to_string(e.sigma));
      }
      forecast_faults_[e.site].push_back(
          {e.start, stop, e.alpha, e.sigma, accepted_});
      break;
    case FaultKind::link_down:
      if (e.peer >= n_sites_) {
        reject("fault event field 'peer' out of range: " +
               std::to_string(e.peer));
      }
      if (e.peer == e.site) {
        reject("fault event field 'peer' equals 'site' for link_down");
      }
      if (!graph_.latency().link_exists(e.site, e.peer)) {
        reject("fault event names a non-existent link " +
               std::to_string(e.site) + "-" + std::to_string(e.peer));
      }
      link_transitions_[e.start].emplace_back(e.site, e.peer, false);
      ++epoch_bumps_[e.start];
      if (e.end < horizon) {
        link_transitions_[e.end].emplace_back(e.site, e.peer, true);
        ++epoch_bumps_[e.end];
      }
      break;
    case FaultKind::server_failure:
      if (e.count <= 0) {
        reject("fault event field 'count' not positive: " +
               std::to_string(e.count));
      }
      outages_[e.start].push_back(core::ServerOutage{e.site, e.count, e.end});
      ++epoch_bumps_[e.start];
      if (e.end < horizon) ++epoch_bumps_[e.end];  // repair lands
      outage_windows_[e.site].push_back({e.start, stop});
      break;
  }
  ++accepted_;
}

void StreamInjector::admin_down(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("admin_down: site out of range");
  if (admin_open_[site]) return;  // already down
  admin_[site].push_back({from, static_cast<util::Tick>(n_ticks_)});
  admin_open_[site] = 1;
  ++epoch_bumps_[from];
  rebake_site(site);
}

void StreamInjector::admin_up(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("admin_up: site out of range");
  if (!admin_open_[site]) return;
  admin_[site].back().end = from;
  admin_open_[site] = 0;
  ++epoch_bumps_[from];
  rebake_site(site);
}

bool StreamInjector::admin_is_down(std::size_t site) const {
  return site < n_sites_ && admin_open_[site] != 0;
}

void StreamInjector::drain(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("drain: site out of range");
  if (drain_open_[site]) return;
  drains_[site].push_back({from, static_cast<util::Tick>(n_ticks_)});
  drain_open_[site] = 1;
  rebake_site(site);
}

void StreamInjector::undrain(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("undrain: site out of range");
  if (!drain_open_[site]) return;
  drains_[site].back().end = from;
  drain_open_[site] = 0;
  rebake_site(site);
}

bool StreamInjector::is_draining(std::size_t site) const {
  return site < n_sites_ && drain_open_[site] != 0;
}

void StreamInjector::set_power(std::size_t site, util::Tick start,
                               const std::vector<double>& values,
                               util::Tick now) {
  if (site >= n_sites_) reject("set_power: site out of range");
  if (start <= now) reject("set_power: start tick not in the future");
  if (static_cast<std::size_t>(start) + values.size() > n_ticks_) {
    reject("set_power: series runs past the horizon");
  }
  std::copy(values.begin(), values.end(),
            base_power_[site].begin() + static_cast<std::size_t>(start));
  rebake_site(site);
}

void StreamInjector::set_forecast(std::size_t site, std::size_t lead,
                                  util::Tick start,
                                  const std::vector<double>& values,
                                  util::Tick now) {
  if (site >= n_sites_) reject("set_forecast: site out of range");
  if (lead >= base_forecast_[site].size()) {
    reject("set_forecast: lead index out of range");
  }
  if (start <= now) reject("set_forecast: start tick not in the future");
  if (static_cast<std::size_t>(start) + values.size() > n_ticks_) {
    reject("set_forecast: series runs past the horizon");
  }
  std::copy(values.begin(), values.end(),
            base_forecast_[site][lead].begin() +
                static_cast<std::size_t>(start));
  rebake_site(site);
}

void StreamInjector::rebake_site(std::size_t s) {
  graph_.mutable_sites()[s].power_norm = base_power_[s];
  graph_.mutable_forecast_norm(s) = base_forecast_[s];
  bake_site(s);
}

void StreamInjector::bake_site(std::size_t s) {
  core::VbSite& site = graph_.mutable_sites()[s];

  // Power: brownouts multiply, then every zeroing window (blackout, drain,
  // admin) absorbs — order-independent, so a fixed pass order reproduces
  // what schedule-order interleaving bakes.
  for (const Brownout& b : brownouts_[s]) {
    for (util::Tick t = b.start; t < b.end; ++t) {
      site.power_norm[static_cast<std::size_t>(t)] *= b.alpha;
    }
  }
  const auto zero = [&](const std::vector<Window>& windows) {
    for (const Window& w : windows) {
      for (util::Tick t = w.start; t < w.end; ++t) {
        site.power_norm[static_cast<std::size_t>(t)] = 0.0;
      }
    }
  };
  zero(blackouts_[s]);
  zero(drains_[s]);
  zero(admin_[s]);

  // Forecast corruption: one child stream per event, keyed by its
  // acceptance index, so the same events yield the same corrupted series
  // however they were delivered.
  for (const ForecastFault& f : forecast_faults_[s]) {
    util::Rng rng{util::seed_for(noise_seed_, "forecast-noise",
                                 f.noise_index)};
    for (std::vector<double>& lead : graph_.mutable_forecast_norm(s)) {
      for (util::Tick t = f.start; t < f.end; ++t) {
        double& v = lead[static_cast<std::size_t>(t)];
        v = std::clamp(v * (1.0 + f.alpha) + rng.normal(0.0, f.sigma), 0.0,
                       1.0);
      }
    }
  }

  rebake_masks(s);
}

void StreamInjector::rebake_masks(std::size_t s) {
  const std::size_t base = s * n_ticks_;
  std::fill(down_.begin() + base, down_.begin() + base + n_ticks_, 0);
  std::fill(degraded_.begin() + base, degraded_.begin() + base + n_ticks_, 0);
  const auto mask = [&](std::vector<char>& m, const Window& w) {
    for (util::Tick t = w.start; t < w.end; ++t) {
      m[base + static_cast<std::size_t>(t)] = 1;
    }
  };
  for (const Window& w : blackouts_[s]) {
    mask(down_, w);
    mask(degraded_, w);
  }
  for (const Window& w : admin_[s]) {
    mask(down_, w);
    mask(degraded_, w);
  }
  for (const Brownout& b : brownouts_[s]) mask(degraded_, {b.start, b.end});
  for (const Window& w : outage_windows_[s]) mask(degraded_, w);
  // Drains deliberately set neither mask.
}

void StreamInjector::rebake_all() {
  for (std::size_t s = 0; s < n_sites_; ++s) rebake_site(s);
}

void StreamInjector::begin_tick(util::Tick t) {
  if (const auto bump = epoch_bumps_.find(t); bump != epoch_bumps_.end()) {
    epoch_ += bump->second;
    epoch_bumps_.erase(bump);
  }
  const auto due = link_transitions_.find(t);
  if (due == link_transitions_.end()) return;
  for (const auto& [a, b, up] : due->second) {
    graph_.mutable_latency().set_edge_up(a, b, up);
    if (up) {
      severed_.erase(canonical_edge(a, b));
    } else {
      severed_.insert(canonical_edge(a, b));
    }
  }
  link_transitions_.erase(due);
}

bool StreamInjector::site_down(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < down_.size() && down_[at] != 0;
}

bool StreamInjector::site_degraded(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < degraded_.size() && degraded_[at] != 0;
}

std::vector<core::ServerOutage> StreamInjector::server_outages_at(
    util::Tick t) {
  const auto due = outages_.find(t);
  if (due == outages_.end()) return {};
  return due->second;
}

void StreamInjector::on_tick_end(const core::TickSnapshot& snap) {
  for (std::size_t s = 0; s < n_sites_; ++s) {
    down_now_[s] = site_down(s, snap.t) ? 1 : 0;
  }
  checker_.check(snap, down_now_);
}

// --- serialization --------------------------------------------------------

namespace {
constexpr std::uint32_t kInjectorFormatVersion = 1;
}  // namespace

void StreamInjector::save(util::wire::Writer& w) const {
  w.u32(kInjectorFormatVersion);
  w.u64(noise_seed_);
  w.u64(epoch_);
  w.u64(accepted_);

  for (std::size_t s = 0; s < n_sites_; ++s) {
    w.vec_f64(base_power_[s]);
    w.u64(base_forecast_[s].size());
    for (const std::vector<double>& lead : base_forecast_[s]) {
      w.vec_f64(lead);
    }
  }
  const auto save_windows = [&w](const std::vector<Window>& v) {
    w.u64(v.size());
    for (const Window& x : v) {
      w.i64(x.start);
      w.i64(x.end);
    }
  };
  for (std::size_t s = 0; s < n_sites_; ++s) {
    save_windows(blackouts_[s]);
    w.u64(brownouts_[s].size());
    for (const Brownout& b : brownouts_[s]) {
      w.i64(b.start);
      w.i64(b.end);
      w.f64(b.alpha);
    }
    w.u64(forecast_faults_[s].size());
    for (const ForecastFault& f : forecast_faults_[s]) {
      w.i64(f.start);
      w.i64(f.end);
      w.f64(f.alpha);
      w.f64(f.sigma);
      w.u64(f.noise_index);
    }
    save_windows(outage_windows_[s]);
    save_windows(admin_[s]);
    save_windows(drains_[s]);
    w.u8(admin_open_[s]);
    w.u8(drain_open_[s]);
  }

  w.u64(link_transitions_.size());
  for (const auto& [tick, list] : link_transitions_) {
    w.i64(tick);
    w.u64(list.size());
    for (const auto& [a, b, up] : list) {
      w.u64(a);
      w.u64(b);
      w.u8(up ? 1 : 0);
    }
  }
  w.u64(severed_.size());
  for (const auto& [a, b] : severed_) {
    w.u64(a);
    w.u64(b);
  }
  w.u64(outages_.size());
  for (const auto& [tick, list] : outages_) {
    w.i64(tick);
    w.u64(list.size());
    for (const core::ServerOutage& o : list) {
      w.u64(o.site);
      w.i64(o.count);
      w.i64(o.repair_tick);
    }
  }
  w.u64(epoch_bumps_.size());
  for (const auto& [tick, n] : epoch_bumps_) {
    w.i64(tick);
    w.u64(n);
  }
}

void StreamInjector::restore(util::wire::Reader& r) {
  if (const std::uint32_t version = r.u32();
      version != kInjectorFormatVersion) {
    throw std::runtime_error{"StreamInjector::restore: unsupported version " +
                             std::to_string(version)};
  }
  noise_seed_ = r.u64();
  epoch_ = r.u64();
  accepted_ = r.u64();

  for (std::size_t s = 0; s < n_sites_; ++s) {
    base_power_[s] = r.vec_f64();
    if (base_power_[s].size() != n_ticks_) {
      throw std::runtime_error{"StreamInjector::restore: power series size"};
    }
    const std::uint64_t n_leads = r.u64();
    if (n_leads != base_forecast_[s].size()) {
      throw std::runtime_error{"StreamInjector::restore: lead count"};
    }
    for (std::vector<double>& lead : base_forecast_[s]) lead = r.vec_f64();
  }
  const auto load_windows = [&r](std::vector<Window>& v) {
    v.clear();
    const std::uint64_t n = r.u64();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Window x;
      x.start = r.i64();
      x.end = r.i64();
      v.push_back(x);
    }
  };
  for (std::size_t s = 0; s < n_sites_; ++s) {
    load_windows(blackouts_[s]);
    brownouts_[s].clear();
    const std::uint64_t n_brown = r.u64();
    for (std::uint64_t i = 0; i < n_brown; ++i) {
      Brownout b;
      b.start = r.i64();
      b.end = r.i64();
      b.alpha = r.f64();
      brownouts_[s].push_back(b);
    }
    forecast_faults_[s].clear();
    const std::uint64_t n_fore = r.u64();
    for (std::uint64_t i = 0; i < n_fore; ++i) {
      ForecastFault f;
      f.start = r.i64();
      f.end = r.i64();
      f.alpha = r.f64();
      f.sigma = r.f64();
      f.noise_index = r.u64();
      forecast_faults_[s].push_back(f);
    }
    load_windows(outage_windows_[s]);
    load_windows(admin_[s]);
    load_windows(drains_[s]);
    admin_open_[s] = static_cast<char>(r.u8());
    drain_open_[s] = static_cast<char>(r.u8());
  }

  link_transitions_.clear();
  const std::uint64_t n_trans = r.u64();
  for (std::uint64_t i = 0; i < n_trans; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_list = r.u64();
    auto& list = link_transitions_[tick];
    for (std::uint64_t k = 0; k < n_list; ++k) {
      const std::size_t a = static_cast<std::size_t>(r.u64());
      const std::size_t b = static_cast<std::size_t>(r.u64());
      const bool up = r.u8() != 0;
      list.emplace_back(a, b, up);
    }
  }
  severed_.clear();
  const std::uint64_t n_sev = r.u64();
  for (std::uint64_t i = 0; i < n_sev; ++i) {
    const std::size_t a = static_cast<std::size_t>(r.u64());
    const std::size_t b = static_cast<std::size_t>(r.u64());
    severed_.emplace(a, b);
  }
  outages_.clear();
  const std::uint64_t n_out = r.u64();
  for (std::uint64_t i = 0; i < n_out; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_list = r.u64();
    auto& list = outages_[tick];
    for (std::uint64_t k = 0; k < n_list; ++k) {
      core::ServerOutage o;
      o.site = static_cast<std::size_t>(r.u64());
      o.count = static_cast<int>(r.i64());
      o.repair_tick = r.i64();
      list.push_back(o);
    }
  }
  epoch_bumps_.clear();
  const std::uint64_t n_bumps = r.u64();
  for (std::uint64_t i = 0; i < n_bumps; ++i) {
    const util::Tick tick = r.i64();
    epoch_bumps_[tick] = r.u64();
  }

  rebake_all();
  for (const auto& [a, b] : severed_) {
    graph_.mutable_latency().set_edge_up(a, b, false);
  }
}

}  // namespace vbatt::fault
