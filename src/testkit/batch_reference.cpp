#include "vbatt/testkit/batch_reference.h"

#include <algorithm>
#include <stdexcept>

namespace vbatt::testkit {

void ReferenceOverlay::submit(const workload::DeadlineJob& job) {
  JobState state;
  state.job = job;
  state.remaining = job.work_core_ticks;
  jobs_.push_back(state);
}

void ReferenceOverlay::submit(const workload::HarvestTask& task) {
  TaskState state;
  state.task = task;
  state.remaining = task.work_core_ticks;
  tasks_.push_back(state);
}

void ReferenceOverlay::step(util::Tick t,
                            const std::vector<std::int64_t>& free_cores) {
  if (finalized_) {
    throw std::logic_error{"ReferenceOverlay::step after finalize"};
  }
  std::vector<std::int64_t> free = free_cores;

  // 1. Admission: everything that has arrived by t joins the pool.
  for (JobState& job : jobs_) {
    if (!job.admitted && job.job.arrival <= t) job.admitted = true;
  }
  for (TaskState& task : tasks_) {
    if (!task.admitted && task.task.arrival <= t) {
      task.admitted = true;
      stats_.harvest_offered_core_ticks += task.task.work_core_ticks;
    }
  }

  // 2. Slack exhaustion: an entity that cannot finish even running its
  // full gang every remaining tick before the deadline is marked missed
  // now (never later, never earlier — the conservation fuzz property pins
  // exactly this rule).
  for (JobState& job : jobs_) {
    if (!job.admitted || job.completed || job.missed) continue;
    const util::Tick ticks_left = job.job.deadline - t;
    if (job.remaining >
        static_cast<std::int64_t>(job.job.cores) * ticks_left) {
      job.missed = true;
      job.site = -1;
      ++stats_.deadline_jobs_missed;
    }
  }
  for (TaskState& task : tasks_) {
    if (!task.admitted || task.completed || task.missed) continue;
    const util::Tick ticks_left = task.task.deadline - t;
    if (task.remaining >
        static_cast<std::int64_t>(task.task.cores) * ticks_left) {
      task.missed = true;
      task.site = -1;  // a kill, not a checkpoint: no suspend episode
      ++stats_.harvest_deadline_misses;
      stats_.harvest_lost_core_ticks += task.remaining;
    }
  }

  // Gang placement with site stickiness: keep the current site while it
  // still fits, else take the emptiest site (ties to the lowest index).
  const auto pick_site = [&free](std::int64_t current,
                                 int cores) -> std::int64_t {
    if (current >= 0 &&
        free[static_cast<std::size_t>(current)] >= cores) {
      return current;
    }
    std::int64_t best = -1;
    std::int64_t best_free = 0;
    for (std::size_t s = 0; s < free.size(); ++s) {
      if (free[s] >= cores && free[s] > best_free) {
        best = static_cast<std::int64_t>(s);
        best_free = free[s];
      }
    }
    return best;
  };

  // 3. EDF over deadline jobs — strictly ahead of every harvest filler.
  std::vector<std::size_t> order;
  order.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& job = jobs_[i];
    if (job.admitted && !job.completed && !job.missed) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (jobs_[a].job.deadline != jobs_[b].job.deadline) {
      return jobs_[a].job.deadline < jobs_[b].job.deadline;
    }
    return jobs_[a].job.job_id < jobs_[b].job.job_id;
  });
  for (const std::size_t i : order) {
    JobState& job = jobs_[i];
    const std::int64_t site = pick_site(job.site, job.job.cores);
    if (site < 0) {
      job.site = -1;  // deferred into its slack window
      continue;
    }
    free[static_cast<std::size_t>(site)] -= job.job.cores;
    stats_.overlay_active_core_ticks += job.job.cores;
    job.site = site;
    const std::int64_t progress =
        std::min<std::int64_t>(job.job.cores, job.remaining);
    job.remaining -= progress;
    stats_.deadline_work_core_ticks += progress;
    if (job.remaining == 0) {
      job.completed = true;
      job.finish_tick = t;
      job.site = -1;
      ++stats_.deadline_jobs_completed;
    }
  }

  // 4. EDF over harvest fillers on whatever is left.
  order.clear();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskState& task = tasks_[i];
    if (task.admitted && !task.completed && !task.missed) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (tasks_[a].task.deadline != tasks_[b].task.deadline) {
      return tasks_[a].task.deadline < tasks_[b].task.deadline;
    }
    return tasks_[a].task.task_id < tasks_[b].task.task_id;
  });
  for (const std::size_t i : order) {
    TaskState& task = tasks_[i];
    const std::int64_t prev_site = task.site;
    const std::int64_t site = pick_site(prev_site, task.task.cores);
    if (site < 0) {
      if (prev_site >= 0) {
        // Displaced: checkpoint and wait.
        ++stats_.suspend_episodes;
        ++task.suspends;
      }
      task.site = -1;
      continue;
    }
    bool resumed = false;
    if (prev_site < 0) {
      resumed = task.ever_ran;  // first start pays no warmup
    } else if (prev_site != site) {
      // Migrated mid-flight: checkpoint here, restore there.
      ++stats_.suspend_episodes;
      ++task.suspends;
      resumed = true;
    }
    if (resumed) {
      ++stats_.resume_episodes;
      ++task.resumes;
      task.warmup_left = task.task.resume_latency_ticks;
    }
    free[static_cast<std::size_t>(site)] -= task.task.cores;
    stats_.overlay_active_core_ticks += task.task.cores;
    task.site = site;
    task.ever_ran = true;
    if (task.warmup_left > 0) {
      --task.warmup_left;
      stats_.harvest_warmup_core_ticks += task.task.cores;
      continue;
    }
    const std::int64_t progress =
        std::min<std::int64_t>(task.task.cores, task.remaining);
    task.remaining -= progress;
    stats_.harvest_goodput_core_ticks += progress;
    if (task.remaining == 0) {
      task.completed = true;
      task.finish_tick = t;
      task.site = -1;
      ++stats_.harvest_tasks_completed;
    }
  }
}

void ReferenceOverlay::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (const TaskState& task : tasks_) {
    if (task.admitted && !task.completed && !task.missed) {
      stats_.harvest_suspended_core_ticks += task.remaining;
    }
  }
}

void ReferenceOverlay::save_state(util::wire::Writer& w) const {
  w.u8(finalized_ ? 1 : 0);
  w.i64(stats_.deadline_jobs_completed);
  w.i64(stats_.deadline_jobs_missed);
  w.i64(stats_.deadline_work_core_ticks);
  w.i64(stats_.harvest_offered_core_ticks);
  w.i64(stats_.harvest_goodput_core_ticks);
  w.i64(stats_.harvest_lost_core_ticks);
  w.i64(stats_.harvest_suspended_core_ticks);
  w.i64(stats_.harvest_warmup_core_ticks);
  w.i64(stats_.harvest_tasks_completed);
  w.i64(stats_.harvest_deadline_misses);
  w.i64(stats_.suspend_episodes);
  w.i64(stats_.resume_episodes);
  w.i64(stats_.overlay_active_core_ticks);
  w.u64(jobs_.size());
  for (const JobState& job : jobs_) {
    w.i64(job.job.job_id);
    w.i64(job.job.arrival);
    w.i64(job.job.cores);
    w.i64(job.job.work_core_ticks);
    w.i64(job.job.deadline);
    w.i64(job.remaining);
    w.i64(job.site);
    w.u8(static_cast<std::uint8_t>((job.admitted ? 1 : 0) |
                                   (job.completed ? 2 : 0) |
                                   (job.missed ? 4 : 0)));
    w.i64(job.finish_tick);
  }
  w.u64(tasks_.size());
  for (const TaskState& task : tasks_) {
    w.i64(task.task.task_id);
    w.i64(task.task.arrival);
    w.i64(task.task.cores);
    w.i64(task.task.work_core_ticks);
    w.i64(task.task.resume_latency_ticks);
    w.i64(task.task.deadline);
    w.i64(task.remaining);
    w.i64(task.site);
    w.i64(task.warmup_left);
    w.u8(static_cast<std::uint8_t>((task.admitted ? 1 : 0) |
                                   (task.completed ? 2 : 0) |
                                   (task.missed ? 4 : 0) |
                                   (task.ever_ran ? 8 : 0)));
    w.i64(task.finish_tick);
    w.i64(task.suspends);
    w.i64(task.resumes);
  }
}

}  // namespace vbatt::testkit
