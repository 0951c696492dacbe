// Frozen scan-based batch overlay — the differential oracle for
// workload::BatchOverlay.
//
// This is BatchOverlay::step as it stood before the overlay kept an
// admission heap and live lists: every step scans every job and task ever
// submitted, four times (admit, slack check, collect for each EDF sort).
// It is an executable specification, not a fast executor. The production
// overlay must match it after every step on stats and save_state bytes
// (every field of every entity), including across a save/restore in
// mid-run.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/util/time.h"
#include "vbatt/util/wire.h"
#include "vbatt/workload/batch.h"

namespace vbatt::testkit {

class ReferenceOverlay {
 public:
  /// Entities are trusted (the oracle does not validate).
  void submit(const workload::DeadlineJob& job);
  void submit(const workload::HarvestTask& task);

  void step(util::Tick t, const std::vector<std::int64_t>& free_cores);
  void finalize();

  const workload::BatchStats& stats() const noexcept { return stats_; }
  /// The byte layout of BatchOverlay::save_state.
  void save_state(util::wire::Writer& w) const;

 private:
  struct JobState {
    workload::DeadlineJob job;
    std::int64_t remaining = 0;
    std::int64_t site = -1;
    bool admitted = false;
    bool completed = false;
    bool missed = false;
    util::Tick finish_tick = -1;
  };
  struct TaskState {
    workload::HarvestTask task;
    std::int64_t remaining = 0;
    std::int64_t site = -1;
    util::Tick warmup_left = 0;
    bool admitted = false;
    bool ever_ran = false;
    bool completed = false;
    bool missed = false;
    util::Tick finish_tick = -1;
    std::int64_t suspends = 0;
    std::int64_t resumes = 0;
  };

  std::vector<JobState> jobs_;
  std::vector<TaskState> tasks_;
  workload::BatchStats stats_;
  bool finalized_ = false;
};

}  // namespace vbatt::testkit
