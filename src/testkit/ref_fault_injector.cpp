#include "vbatt/testkit/ref_fault_injector.h"

#include <algorithm>
#include <cmath>

#include "vbatt/util/rng.h"

namespace vbatt::testkit {

using fault::FaultEvent;
using fault::FaultKind;

RefFaultInjector::RefFaultInjector(const core::VbGraph& graph,
                                   const fault::FaultSchedule& schedule,
                                   std::uint64_t noise_seed)
    : graph_{graph}, n_ticks_{graph.n_ticks()} {
  schedule.validate(graph.n_sites(), graph.n_ticks());
  const std::size_t n_sites = graph.n_sites();
  down_.assign(n_sites * n_ticks_, 0);
  degraded_.assign(n_sites * n_ticks_, 0);

  const auto end_tick = static_cast<util::Tick>(n_ticks_);
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const FaultEvent& e = schedule.events[i];
    const util::Tick stop = std::min(e.end, end_tick);
    core::VbSite& site = graph_.mutable_sites()[e.site];
    const auto mask = [&](std::vector<char>& m) {
      for (util::Tick t = e.start; t < stop; ++t) {
        m[e.site * n_ticks_ + static_cast<std::size_t>(t)] = 1;
      }
    };
    switch (e.kind) {
      case FaultKind::site_blackout:
        for (util::Tick t = e.start; t < stop; ++t) {
          site.power_norm[static_cast<std::size_t>(t)] = 0.0;
        }
        mask(down_);
        mask(degraded_);
        break;
      case FaultKind::site_brownout:
        for (util::Tick t = e.start; t < stop; ++t) {
          site.power_norm[static_cast<std::size_t>(t)] *= e.alpha;
        }
        mask(degraded_);
        break;
      case FaultKind::forecast_error: {
        // Corrupt every lead's forecast over the window; actuals untouched.
        // One child stream per event keeps the noise deterministic and
        // independent of event ordering elsewhere in the schedule.
        util::Rng rng{util::seed_for(noise_seed, "forecast-noise", i)};
        for (std::vector<double>& lead : site.forecast_norm) {
          for (util::Tick t = e.start; t < stop; ++t) {
            double& f = lead[static_cast<std::size_t>(t)];
            f = std::clamp(f * (1.0 + e.alpha) + rng.normal(0.0, e.sigma),
                           0.0, 1.0);
          }
        }
        break;
      }
      case FaultKind::link_down:
        link_transitions_[e.start].emplace_back(e.site, e.peer, false);
        ++epoch_bumps_[e.start];
        if (e.end < end_tick) {
          link_transitions_[e.end].emplace_back(e.site, e.peer, true);
          ++epoch_bumps_[e.end];
        }
        break;
      case FaultKind::server_failure:
        outages_[e.start].push_back(
            core::ServerOutage{e.site, e.count, e.end});
        ++epoch_bumps_[e.start];
        if (e.end < end_tick) ++epoch_bumps_[e.end];  // repair lands
        mask(degraded_);
        break;
    }
  }
}

void RefFaultInjector::begin_tick(util::Tick t) {
  if (const auto bump = epoch_bumps_.find(t); bump != epoch_bumps_.end()) {
    epoch_ += bump->second;
  }
  const auto due = link_transitions_.find(t);
  if (due == link_transitions_.end()) return;
  for (const auto& [a, b, up] : due->second) {
    graph_.mutable_latency().set_edge_up(a, b, up);
  }
}

bool RefFaultInjector::site_down(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < down_.size() && down_[at] != 0;
}

bool RefFaultInjector::site_degraded(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < degraded_.size() && degraded_[at] != 0;
}

std::vector<core::ServerOutage> RefFaultInjector::server_outages_at(
    util::Tick t) {
  const auto due = outages_.find(t);
  if (due == outages_.end()) return {};
  return due->second;
}

}  // namespace vbatt::testkit
