// Frozen one-shot fault baker — the one oracle for fault::StreamInjector.
//
// Bakes a complete FaultSchedule into a private copy of the VbGraph at
// construction, one event at a time in schedule order, straight into the
// copied series: the pre-stream injector, kept as an executable
// specification of what each fault kind does to power, forecasts, the
// down/degraded masks, server outages and the topology epoch. It is never
// used on a production path and checks no invariants. Its users: the
// fault.stream_parity fuzz property and tests/test_fault_stream.cpp, which
// demand that a StreamInjector fed the same schedule (whole or event by
// event) bakes identical series and answers every hook identically.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/fault/schedule.h"

namespace vbatt::testkit {

class RefFaultInjector final : public core::FaultHooks {
 public:
  /// Bake `schedule` (validated against `graph`) into a private copy of
  /// `graph`. `noise_seed` drives the forecast-noise stream; equal seeds
  /// give identical baked graphs.
  RefFaultInjector(const core::VbGraph& graph,
                   const fault::FaultSchedule& schedule,
                   std::uint64_t noise_seed = 0);

  /// The faulted graph.
  const core::VbGraph& graph() const noexcept { return graph_; }

  // core::FaultHooks
  void begin_tick(util::Tick t) override;
  std::uint64_t topology_epoch() const override { return epoch_; }
  bool site_down(std::size_t s, util::Tick t) const override;
  bool site_degraded(std::size_t s, util::Tick t) const override;
  std::vector<core::ServerOutage> server_outages_at(util::Tick t) override;
  void on_tick_end(const core::TickSnapshot&) override {}

 private:
  core::VbGraph graph_;  // the faulted copy
  std::size_t n_ticks_ = 0;
  /// Per-site fault masks, tick-indexed (site * n_ticks + t).
  std::vector<char> down_;      // blackout active
  std::vector<char> degraded_;  // any site fault active
  /// Link transitions due at a tick: (a, b, up).
  std::map<util::Tick,
           std::vector<std::tuple<std::size_t, std::size_t, bool>>>
      link_transitions_;
  std::map<util::Tick, std::vector<core::ServerOutage>> outages_;
  /// Topology-epoch bumps due at a tick (link transitions plus
  /// server-failure starts and repairs), accumulated into epoch_ by
  /// begin_tick.
  std::map<util::Tick, std::uint64_t> epoch_bumps_;
  std::uint64_t epoch_ = 0;
};

}  // namespace vbatt::testkit
