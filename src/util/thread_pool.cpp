#include "vbatt/util/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

namespace vbatt::util {

namespace {

/// Chunks per lane: over-chunking past the lane count lets fast lanes
/// take tail work from slow ones; each extra chunk costs one fetch_add.
constexpr std::size_t kChunksPerLane = 4;

/// Polls `pending` up to kSpinIters times before a thread parks on an
/// atomic wait. A replan publishes its jobs back to back (cache fill,
/// capacity buckets, clique scoring), so an idle worker still polling
/// joins the next job, and a caller whose last worker is finishing a chunk
/// returns, without a futex wake. Polling yields every kSpinYieldEvery
/// tries so that on a busy or single-core host the lanes with work run.
constexpr int kSpinIters = 2048;
constexpr int kSpinYieldEvery = 16;

template <typename Pending>
void spin_while(const Pending& pending) {
  for (int spin = 1; spin <= kSpinIters && pending(); ++spin) {
    if (spin % kSpinYieldEvery == 0) std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_workers) {
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_ = true;
  ++job_;
  job_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    spin_while([&] { return job_ == seen; });
    job_.wait(seen);
    seen = job_;
    if (stopping_) return;  // set before the destructor's bump of job_
    // Count this worker in before looking at the job: a publisher closes
    // its job (open_ = false) and then waits for busy_ to reach 0, so
    // either it sees this increment and waits, or this load sees the job
    // closed. While counted in, the descriptor cannot change.
    ++busy_;
    if (open_) run_chunks(*body_, n_, chunks_);
    if (--busy_ == 0) busy_.notify_one();
  }
}

void ThreadPool::run_chunks(
    const std::function<void(std::size_t, std::size_t)>& body, std::size_t n,
    std::size_t chunks) {
  for (std::size_t c = next_++; c < chunks; c = next_++) {
    try {
      body(c * n / chunks, (c + 1) * n / chunks);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{error_mutex_};
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // taken_ is held from publishing until the last worker has left, so a
  // call that finds it set (another thread's job, or a chunk of this
  // pool's own job) runs inline.
  if (workers_.empty() || n == 1 || taken_.exchange(true)) {
    body(0, n);
    return;
  }
  const std::size_t chunks =
      std::min(n, (workers_.size() + 1) * kChunksPerLane);
  body_ = &body;
  n_ = n;
  chunks_ = chunks;
  next_ = 0;
  open_ = true;
  ++job_;
  job_.notify_all();
  run_chunks(body, n, chunks);

  // Every chunk is claimed now; the ones still running belong to workers
  // counted in busy_.
  open_ = false;
  spin_while([this] { return busy_ != 0; });
  for (std::size_t busy = busy_; busy != 0; busy = busy_) busy_.wait(busy);
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock{error_mutex_};
    error = std::exchange(error_, nullptr);
  }
  taken_ = false;
  if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::parse_threads(const char* value, std::size_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 1 ||
      static_cast<unsigned long>(parsed) > kMaxThreads) {
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t ThreadPool::default_threads() {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return parse_threads(std::getenv("VBATT_THREADS"), hardware);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool{default_threads() - 1};
  return pool;
}

}  // namespace vbatt::util
