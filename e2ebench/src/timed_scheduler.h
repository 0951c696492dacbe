// Scheduler decorator for traced runs: forwards every virtual to the real
// scheduler and records one span plus one latency sample per placement
// and replan. Forwarding everything keeps the decisions, and therefore
// the result bytes, identical to an undecorated run.
#pragma once

#include <vector>

#include "harness.h"
#include "vbatt/core/scheduler.h"

namespace e2e {

/// Latency samples of the decorated calls; one sink may collect from
/// several decorators.
struct SchedSamples {
  std::vector<double> place_ms;
  std::vector<double> replan_ms;
  /// Moves decided: scheduled at placement plus every replan's schedule.
  std::int64_t moves = 0;
};

class TimedScheduler final : public vbatt::core::Scheduler {
 public:
  TimedScheduler(vbatt::core::Scheduler& inner, Tracer& tracer,
                 SchedSamples& samples)
      : inner_{inner}, tracer_{tracer}, samples_{samples} {}

  std::string name() const override { return inner_.name(); }

  Placement place(const vbatt::workload::Application& app,
                  const vbatt::core::FleetState& state) override {
    const Scope span{&tracer_, "core.sched.place"};
    const Clock::time_point t0 = Clock::now();
    Placement placement = inner_.place(app, state);
    samples_.place_ms.push_back(ms_since(t0));
    samples_.moves +=
        static_cast<std::int64_t>(placement.scheduled_moves.size());
    return placement;
  }

  std::vector<vbatt::core::Move> replan(
      const vbatt::core::FleetState& state) override {
    const Scope span{&tracer_, "core.sched.replan"};
    const Clock::time_point t0 = Clock::now();
    std::vector<vbatt::core::Move> out = inner_.replan(state);
    samples_.replan_ms.push_back(ms_since(t0));
    samples_.moves += static_cast<std::int64_t>(out.size());
    return out;
  }

  vbatt::util::Tick replan_period_ticks() const override {
    return inner_.replan_period_ticks();
  }
  void on_topology_change() override { inner_.on_topology_change(); }
  std::int64_t fallback_count() const override {
    return inner_.fallback_count();
  }
  double model_build_ms() const override { return inner_.model_build_ms(); }
  void save_state(vbatt::util::wire::Writer& w) const override {
    inner_.save_state(w);
  }
  void restore_state(vbatt::util::wire::Reader& r) override {
    inner_.restore_state(r);
  }

 private:
  vbatt::core::Scheduler& inner_;
  Tracer& tracer_;
  SchedSamples& samples_;
};

/// Record the core.sched.* metrics of one traced repetition.
inline void report_sched(const SchedSamples& samples, Report& report) {
  double place = 0.0;
  for (const double ms : samples.place_ms) place += ms;
  double replan = 0.0;
  for (const double ms : samples.replan_ms) replan += ms;
  report.layer("core.sched.place_calls",
               static_cast<double>(samples.place_ms.size()), "count");
  report.layer("core.sched.place_ms", place, "ms");
  report.layer("core.sched.place_p50_ms", median(samples.place_ms), "ms");
  report.layer("core.sched.place_tail_ms", tail_of(samples.place_ms).value,
               "ms");
  report.layer("core.sched.replan_calls",
               static_cast<double>(samples.replan_ms.size()), "count");
  report.layer("core.sched.replan_ms", replan, "ms");
  report.layer("core.sched.replan_p50_ms", median(samples.replan_ms), "ms");
  report.layer("core.sched.moves", static_cast<double>(samples.moves), "count");
}

}  // namespace e2e
