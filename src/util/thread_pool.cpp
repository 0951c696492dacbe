#include "vbatt/util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace vbatt::util {

namespace {

/// The pool whose worker_loop the current thread is running, if any. Set
/// once per worker thread; the blocking entry points compare against it
/// to fail fast instead of deadlocking (see assert_not_own_worker).
thread_local const ThreadPool* t_worker_pool = nullptr;

/// The pool whose parallel_for this thread is currently publishing (it
/// holds that pool's job_gate_). A re-entrant parallel_for from inside
/// one of the publisher's own chunks would self-deadlock on the gate, so
/// it degrades to the serial inline fallback instead — identical results
/// by the per-index-slot contract, just no extra fan-out.
thread_local const ThreadPool* t_job_publisher = nullptr;

/// A worker that calls parallel_for or drain on its own pool blocks on
/// work only the pool's (now occupied) workers could run: parallel_for
/// waits on a job whose lanes include the caller's own, and drain waits
/// for running_ to hit zero while the caller itself is counted in
/// running_. Both are silent deadlocks when every worker nests, so they
/// are rejected deterministically.
void assert_not_own_worker(const ThreadPool* pool, const char* what) {
  if (t_worker_pool == pool) {
    throw std::logic_error{
        std::string{"ThreadPool::"} + what +
        " called from inside one of this pool's own workers; nested "
        "blocking on the same pool deadlocks once every worker nests. "
        "Run the nested loop serially or use a separate pool."};
  }
}

constexpr std::uint64_t kIdxBits = 12;
constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;

/// Chunks per lane: over-chunking past the lane count lets fast lanes
/// steal tail work from slow ones; each extra chunk costs only one CAS.
constexpr std::size_t kChunksPerLane = 4;

/// Spin budget before a worker parks / the caller blocks on the job cv.
/// Yield periodically so a single-core host hands the CPU back to
/// whichever thread actually holds unfinished chunks.
constexpr int kSpinIters = 2048;
constexpr int kSpinYieldEvery = 16;

std::uint64_t pack_job(std::size_t n_chunks, std::size_t next) {
  return (static_cast<std::uint64_t>(n_chunks) << kIdxBits) |
         static_cast<std::uint64_t>(next);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_workers) {
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopping_.store(true, std::memory_order_relaxed);
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::job_available() const {
  const std::uint64_t w = job_word_.load(std::memory_order_acquire);
  return (w & kIdxMask) < ((w >> kIdxBits) & kIdxMask);
}

bool ThreadPool::try_claim(std::size_t& chunk) {
  std::uint64_t w = job_word_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = w & kIdxMask;
    const std::uint64_t chunks = (w >> kIdxBits) & kIdxMask;
    if (next >= chunks) return false;
    // On success the acquire half synchronizes with the publisher's
    // release-store, making the job descriptor fields visible. A stale
    // `w` can only win the CAS if it still equals the current word, in
    // which case `next` is the current job's next chunk — claims can
    // never leak across jobs.
    if (job_word_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      chunk = static_cast<std::size_t>(next);
      return true;
    }
  }
}

void ThreadPool::run_chunk(std::size_t chunk) {
  const std::size_t n = job_n_;
  const std::size_t chunks = job_chunks_;
  const std::size_t begin = chunk * n / chunks;
  const std::size_t end = (chunk + 1) * n / chunks;
  try {
    (*job_body_)(begin, end);
  } catch (...) {
    const std::lock_guard<std::mutex> lock{job_error_mutex_};
    if (!job_error_) job_error_ = std::current_exception();
  }
  // The error write above must precede this increment: the publisher
  // reads job_error_ unguarded after observing done == chunks.
  if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
    // Last chunk may finish on a worker while the caller is parked; the
    // empty critical section pairs with the caller's predicate check.
    const std::lock_guard<std::mutex> lock{job_wait_mutex_};
    job_cv_.notify_all();
  }
}

bool ThreadPool::run_job_chunks() {
  bool any = false;
  std::size_t chunk = 0;
  while (try_claim(chunk)) {
    any = true;
    // Wake chain: pass the baton to one more sleeper while unclaimed
    // chunks remain, instead of the publisher waking everyone up front.
    if (job_available() && sleepers_.load(std::memory_order_relaxed) > 0) {
      const std::lock_guard<std::mutex> lock{mutex_};
      ready_.notify_one();
    }
    run_chunk(chunk);
  }
  return any;
}

bool ThreadPool::run_one_task() {
  if (pending_tasks_.load(std::memory_order_acquire) == 0) return false;
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
    pending_tasks_.fetch_sub(1, std::memory_order_relaxed);
    ++running_;
  }
  task();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (--running_ == 0 && tasks_.empty()) idle_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    if (run_job_chunks()) continue;
    if (run_one_task()) continue;
    // Spin-then-park: barriers usually arrive back-to-back, so burn a
    // short budget polling before paying the futex round-trip.
    bool found = false;
    for (int spin = 0; spin < kSpinIters; ++spin) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (job_available() ||
          pending_tasks_.load(std::memory_order_relaxed) > 0) {
        found = true;
        break;
      }
      if ((spin & (kSpinYieldEvery - 1)) == kSpinYieldEvery - 1) {
        std::this_thread::yield();
      }
    }
    if (found) continue;
    std::unique_lock<std::mutex> lock{mutex_};
    ++sleepers_;
    ready_.wait(lock, [this] {
      return stopping_.load(std::memory_order_relaxed) || !tasks_.empty() ||
             job_available();
    });
    --sleepers_;
    // Drain the queue even when stopping: destruction must not drop
    // queued work (drain() callers are still waiting on it).
    if (stopping_.load(std::memory_order_relaxed) && tasks_.empty() &&
        !job_available()) {
      return;
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  // Guard every raw submission: a throwing task must surface on drain(),
  // never std::terminate the worker.
  auto guarded = [this, task = std::move(task)]() mutable {
    try {
      task();
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (!submit_error_) submit_error_ = std::current_exception();
    }
  };
  if (workers_.empty()) {
    guarded();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    tasks_.push(std::move(guarded));
    pending_tasks_.fetch_add(1, std::memory_order_release);
  }
  ready_.notify_one();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker_pool == this;
}

void ThreadPool::drain() {
  assert_not_own_worker(this, "drain");
  std::unique_lock<std::mutex> lock{mutex_};
  idle_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
  if (submit_error_) {
    std::exception_ptr error = std::move(submit_error_);
    submit_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  // Rejected even when n is small enough to run inline: whether the call
  // deadlocks must not depend on the data size.
  assert_not_own_worker(this, "parallel_for");
  if (n == 0) return;
  const std::size_t lanes = workers_.size() + 1;
  if (lanes == 1 || n == 1 || t_job_publisher == this) {
    body(0, n);
    return;
  }

  // One job in flight at a time; concurrent external callers queue here.
  const std::lock_guard<std::mutex> gate{job_gate_};
  struct PublisherScope {
    const ThreadPool* prev;
    explicit PublisherScope(const ThreadPool* pool) : prev{t_job_publisher} {
      t_job_publisher = pool;
    }
    ~PublisherScope() { t_job_publisher = prev; }
  } publisher_scope{this};
  const std::size_t chunks =
      std::min({n, lanes * kChunksPerLane, static_cast<std::size_t>(kIdxMask)});
  job_body_ = &body;
  job_n_ = n;
  job_chunks_ = chunks;
  job_done_.store(0, std::memory_order_relaxed);
  job_error_ = nullptr;
  job_word_.store(pack_job(chunks, 0), std::memory_order_release);
  // Wake at most one parked worker; claimants chain further wakeups. A
  // stale sleepers_ read only costs this job some parallelism — the
  // caller's claim loop below completes the job regardless.
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    const std::lock_guard<std::mutex> lock{mutex_};
    ready_.notify_one();
  }

  // Caller participation: claim until nothing is left. On a host where
  // workers never get scheduled in time this runs every chunk inline.
  std::size_t chunk = 0;
  while (try_claim(chunk)) run_chunk(chunk);

  if (job_done_.load(std::memory_order_acquire) != chunks) {
    for (int spin = 0;
         spin < kSpinIters && job_done_.load(std::memory_order_acquire) != chunks;
         ++spin) {
      if ((spin & (kSpinYieldEvery - 1)) == kSpinYieldEvery - 1) {
        std::this_thread::yield();
      }
    }
    if (job_done_.load(std::memory_order_acquire) != chunks) {
      std::unique_lock<std::mutex> lock{job_wait_mutex_};
      job_cv_.wait(lock, [this, chunks] {
        return job_done_.load(std::memory_order_acquire) == chunks;
      });
    }
  }
  if (job_error_) {
    std::exception_ptr error = std::move(job_error_);
    job_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::parse_threads(const char* value, std::size_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) return fallback;
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
