#include "vbatt/workload/batch.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "vbatt/util/rng.h"

namespace vbatt::workload {

namespace {

using Pending = std::pair<util::Tick, std::size_t>;

void push_pending(std::vector<Pending>& heap, util::Tick arrival,
                  std::size_t index) {
  heap.emplace_back(arrival, index);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

/// Pop every entity with arrival <= t off the min-heap, call admit(index)
/// on each, and merge the indices it reports open (true) into the
/// ascending `live` list.
template <class Admit>
void admit_due(std::vector<Pending>& heap, std::vector<std::size_t>& live,
               util::Tick t, Admit admit) {
  const std::size_t old_size = live.size();
  while (!heap.empty() && heap.front().first <= t) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::size_t index = heap.back().second;
    heap.pop_back();
    if (admit(index)) live.push_back(index);
  }
  const auto mid = live.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(mid, live.end());
  std::inplace_merge(live.begin(), mid, live.end());
}

}  // namespace

void BatchOverlay::validate(const DeadlineJob& job) {
  if (job.cores <= 0 || job.work_core_ticks <= 0 || job.arrival < 0 ||
      job.deadline <= job.arrival) {
    throw std::invalid_argument{"DeadlineJob: invalid (job_id " +
                                std::to_string(job.job_id) + ")"};
  }
}

void BatchOverlay::validate(const HarvestTask& task) {
  if (task.cores <= 0 || task.work_core_ticks <= 0 || task.arrival < 0 ||
      task.deadline <= task.arrival || task.resume_latency_ticks < 0) {
    throw std::invalid_argument{"HarvestTask: invalid (task_id " +
                                std::to_string(task.task_id) + ")"};
  }
}

BatchOverlay::BatchOverlay(const BatchWorkload& workload) {
  jobs_.reserve(workload.jobs.size());
  for (const DeadlineJob& job : workload.jobs) submit(job);
  tasks_.reserve(workload.tasks.size());
  for (const HarvestTask& task : workload.tasks) submit(task);
}

void BatchOverlay::submit(const DeadlineJob& job) {
  validate(job);
  JobState state;
  state.job = job;
  state.remaining = job.work_core_ticks;
  push_pending(pending_jobs_, job.arrival, jobs_.size());
  jobs_.push_back(state);
}

void BatchOverlay::submit(const HarvestTask& task) {
  validate(task);
  TaskState state;
  state.task = task;
  state.remaining = task.work_core_ticks;
  push_pending(pending_tasks_, task.arrival, tasks_.size());
  tasks_.push_back(state);
}

void BatchOverlay::rebuild_index() {
  pending_jobs_.clear();
  pending_tasks_.clear();
  live_jobs_.clear();
  live_tasks_.clear();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& job = jobs_[i];
    if (!job.admitted) {
      push_pending(pending_jobs_, job.job.arrival, i);
    } else if (!job.completed && !job.missed) {
      live_jobs_.push_back(i);
    }
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskState& task = tasks_[i];
    if (!task.admitted) {
      push_pending(pending_tasks_, task.task.arrival, i);
    } else if (!task.completed && !task.missed) {
      live_tasks_.push_back(i);
    }
  }
}

void BatchOverlay::step(util::Tick t,
                        const std::vector<std::int64_t>& free_cores) {
  if (finalized_) {
    throw std::logic_error{"BatchOverlay::step after finalize"};
  }
  std::vector<std::int64_t> free = free_cores;

  // 1. Admission: everything that has arrived by t joins the pool.
  admit_due(pending_jobs_, live_jobs_, t, [this](std::size_t i) {
    JobState& job = jobs_[i];
    job.admitted = true;
    return !job.completed && !job.missed;
  });
  admit_due(pending_tasks_, live_tasks_, t, [this](std::size_t i) {
    TaskState& task = tasks_[i];
    task.admitted = true;
    stats_.harvest_offered_core_ticks += task.task.work_core_ticks;
    return !task.completed && !task.missed;
  });

  // 2. Slack exhaustion: an entity that cannot finish even running its
  // full gang every remaining tick before the deadline is marked missed
  // now (never later, never earlier — the conservation fuzz property pins
  // exactly this rule). Missed entities leave the live lists.
  std::erase_if(live_jobs_, [&](std::size_t i) {
    JobState& job = jobs_[i];
    const util::Tick ticks_left = job.job.deadline - t;
    if (job.remaining <=
        static_cast<std::int64_t>(job.job.cores) * ticks_left) {
      return false;
    }
    job.missed = true;
    job.site = -1;
    ++stats_.deadline_jobs_missed;
    return true;
  });
  std::erase_if(live_tasks_, [&](std::size_t i) {
    TaskState& task = tasks_[i];
    const util::Tick ticks_left = task.task.deadline - t;
    if (task.remaining <=
        static_cast<std::int64_t>(task.task.cores) * ticks_left) {
      return false;
    }
    task.missed = true;
    task.site = -1;  // a kill, not a checkpoint: no suspend episode
    ++stats_.harvest_deadline_misses;
    stats_.harvest_lost_core_ticks += task.remaining;
    return true;
  });

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
  // The sort starts from the open entities in index order, so ties (equal
  // deadline and id) resolve exactly as a scan over every entity would.
  std::vector<std::size_t> order = live_jobs_;
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
  order.assign(live_tasks_.begin(), live_tasks_.end());
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

  std::erase_if(live_jobs_,
                [this](std::size_t i) { return jobs_[i].completed; });
  std::erase_if(live_tasks_,
                [this](std::size_t i) { return tasks_[i].completed; });
}

void BatchOverlay::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (const TaskState& task : tasks_) {
    if (task.admitted && !task.completed && !task.missed) {
      stats_.harvest_suspended_core_ticks += task.remaining;
    }
  }
}

std::vector<BatchOverlay::JobRecord> BatchOverlay::job_records() const {
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const JobState& job : jobs_) {
    records.push_back({job.job.job_id, job.admitted, job.completed,
                       job.missed, job.finish_tick, job.remaining});
  }
  return records;
}

std::vector<BatchOverlay::TaskRecord> BatchOverlay::task_records() const {
  std::vector<TaskRecord> records;
  records.reserve(tasks_.size());
  for (const TaskState& task : tasks_) {
    records.push_back({task.task.task_id, task.admitted, task.completed,
                       task.missed, task.finish_tick, task.remaining,
                       task.suspends, task.resumes});
  }
  return records;
}

void BatchOverlay::save_state(util::wire::Writer& w) const {
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

void BatchOverlay::restore_state(util::wire::Reader& r) {
  finalized_ = r.u8() != 0;
  stats_ = BatchStats{};
  stats_.deadline_jobs_completed = r.i64();
  stats_.deadline_jobs_missed = r.i64();
  stats_.deadline_work_core_ticks = r.i64();
  stats_.harvest_offered_core_ticks = r.i64();
  stats_.harvest_goodput_core_ticks = r.i64();
  stats_.harvest_lost_core_ticks = r.i64();
  stats_.harvest_suspended_core_ticks = r.i64();
  stats_.harvest_warmup_core_ticks = r.i64();
  stats_.harvest_tasks_completed = r.i64();
  stats_.harvest_deadline_misses = r.i64();
  stats_.suspend_episodes = r.i64();
  stats_.resume_episodes = r.i64();
  stats_.overlay_active_core_ticks = r.i64();
  jobs_.clear();
  const std::uint64_t n_jobs = r.u64();
  jobs_.reserve(n_jobs);
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    JobState job;
    job.job.job_id = r.i64();
    job.job.arrival = r.i64();
    job.job.cores = static_cast<int>(r.i64());
    job.job.work_core_ticks = r.i64();
    job.job.deadline = r.i64();
    job.remaining = r.i64();
    job.site = r.i64();
    const std::uint8_t flags = r.u8();
    job.admitted = (flags & 1) != 0;
    job.completed = (flags & 2) != 0;
    job.missed = (flags & 4) != 0;
    job.finish_tick = r.i64();
    jobs_.push_back(job);
  }
  tasks_.clear();
  const std::uint64_t n_tasks = r.u64();
  tasks_.reserve(n_tasks);
  for (std::uint64_t i = 0; i < n_tasks; ++i) {
    TaskState task;
    task.task.task_id = r.i64();
    task.task.arrival = r.i64();
    task.task.cores = static_cast<int>(r.i64());
    task.task.work_core_ticks = r.i64();
    task.task.resume_latency_ticks = r.i64();
    task.task.deadline = r.i64();
    task.remaining = r.i64();
    task.site = r.i64();
    task.warmup_left = r.i64();
    const std::uint8_t flags = r.u8();
    task.admitted = (flags & 1) != 0;
    task.completed = (flags & 2) != 0;
    task.missed = (flags & 4) != 0;
    task.ever_ran = (flags & 8) != 0;
    task.finish_tick = r.i64();
    task.suspends = r.i64();
    task.resumes = r.i64();
    tasks_.push_back(task);
  }
  rebuild_index();
}

BatchWorkload generate_batch(const BatchGeneratorConfig& config,
                             const util::TimeAxis& axis,
                             std::size_t n_ticks) {
  if (config.jobs_per_hour < 0.0 || config.tasks_per_hour < 0.0 ||
      config.min_cores < 1 || config.max_cores < config.min_cores ||
      config.min_run_ticks < 1 ||
      config.max_run_ticks < config.min_run_ticks ||
      config.min_slack < 1.0 || config.max_slack < config.min_slack ||
      config.max_resume_latency_ticks < 0) {
    throw std::invalid_argument{"BatchGeneratorConfig: invalid"};
  }
  BatchWorkload workload;
  const double ticks_per_hour = static_cast<double>(axis.ticks_per_hour());
  const auto draw_cores = [&config](util::Rng& rng) {
    return config.min_cores +
           static_cast<int>(rng.below(static_cast<std::uint64_t>(
               config.max_cores - config.min_cores + 1)));
  };
  const auto draw_run = [&config](util::Rng& rng) {
    return config.min_run_ticks +
           static_cast<util::Tick>(rng.below(static_cast<std::uint64_t>(
               config.max_run_ticks - config.min_run_ticks + 1)));
  };

  util::Rng job_rng{util::seed_for(config.seed, "batch-jobs")};
  const double job_rate =
      std::min(1.0, config.jobs_per_hour / ticks_per_hour);
  std::int64_t next_job_id = 1;
  for (std::size_t t = 0; t < n_ticks; ++t) {
    if (job_rng.uniform() >= job_rate) continue;
    DeadlineJob job;
    job.job_id = next_job_id++;
    job.arrival = static_cast<util::Tick>(t);
    job.cores = draw_cores(job_rng);
    const util::Tick run = draw_run(job_rng);
    job.work_core_ticks = static_cast<std::int64_t>(job.cores) * run;
    const double slack = job_rng.uniform(config.min_slack, config.max_slack);
    job.deadline =
        job.arrival +
        std::max<util::Tick>(
            1, static_cast<util::Tick>(static_cast<double>(run) * slack));
    workload.jobs.push_back(job);
  }

  util::Rng task_rng{util::seed_for(config.seed, "batch-tasks")};
  const double task_rate =
      std::min(1.0, config.tasks_per_hour / ticks_per_hour);
  std::int64_t next_task_id = 1;
  for (std::size_t t = 0; t < n_ticks; ++t) {
    if (task_rng.uniform() >= task_rate) continue;
    HarvestTask task;
    task.task_id = next_task_id++;
    task.arrival = static_cast<util::Tick>(t);
    task.cores = draw_cores(task_rng);
    const util::Tick run = draw_run(task_rng);
    task.work_core_ticks = static_cast<std::int64_t>(task.cores) * run;
    task.resume_latency_ticks = static_cast<util::Tick>(task_rng.below(
        static_cast<std::uint64_t>(config.max_resume_latency_ticks + 1)));
    const double slack =
        task_rng.uniform(config.min_slack, config.max_slack);
    task.deadline =
        task.arrival +
        std::max<util::Tick>(
            1, static_cast<util::Tick>(static_cast<double>(run) * slack));
    workload.tasks.push_back(task);
  }
  return workload;
}

}  // namespace vbatt::workload
