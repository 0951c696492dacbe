// Fixed-size fork-join thread pool with a deterministic parallel_for.
//
// The scheduler's replan work (clique ranking, per-site capacity refresh,
// the forecast-cache fill) and two input builds (fleet generation, the
// forecast fill) fan independent work items across cores.
// Determinism is part of the contract: parallel_for cuts [0, n) into
// contiguous chunks and every index is executed exactly once, with every
// item writing only its own pre-assigned output slot — so parallel
// results are bit-identical to a serial run. The thread count (and which
// thread happens to claim which chunk) changes wall-clock time, never
// the answer.
//
// Dispatch: a parallel_for takes the pool, writes one job descriptor,
// opens the job and wakes the workers (they wait on a publish counter);
// the caller and the workers claim chunks from an atomic counter until
// none are left. The caller then closes the job and returns once every
// worker that joined it has left. Idle workers, and a caller waiting for
// its last worker, poll briefly before they park: a replan publishes
// jobs back to back.
//
// One job holds the workers at a time. A parallel_for that finds them on
// a job runs inline as body(0, n) on its own thread instead of waiting.
// That is the nesting rule — a parallel_for from inside one of the same
// pool's chunks, on the caller or on a worker, runs inline — and it also
// covers a second external thread calling while a job is in flight. No
// caller ever blocks on another's job, so no lock a chunk takes can
// deadlock against the pool.
//
// Sizing: shared() holds default_threads() - 1 workers (the caller is the
// extra lane). A zero-worker pool, such as shared() at VBATT_THREADS=1,
// runs every body inline on the caller with no synchronization at all.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vbatt::util {

class ThreadPool {
 public:
  /// Largest VBATT_THREADS value parse_threads accepts.
  static constexpr std::size_t kMaxThreads = 256;

  /// Spawn `n_workers` worker threads (0 = serial pool, no threads).
  explicit ThreadPool(std::size_t n_workers);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the caller adds one more lane during
  /// parallel_for).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Run `body(begin, end)` over contiguous chunks of [0, n). The calling
  /// thread claims and executes chunks alongside the workers; returns
  /// after every chunk finished. The first exception thrown by any chunk
  /// is rethrown on the caller (remaining chunks still complete). With no
  /// workers, n == 1, or while the workers are on a job (another
  /// thread's, or the one whose chunk makes this call), the body runs
  /// inline on the caller as body(0, n).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Intended total parallelism: VBATT_THREADS if set and valid,
  /// otherwise std::thread::hardware_concurrency().
  static std::size_t default_threads();

  /// Parse a VBATT_THREADS-style value: a decimal in [1, kMaxThreads].
  /// nullptr, empty, garbage, overflow and out-of-range values fall back
  /// to `fallback`. Exposed for tests.
  static std::size_t parse_threads(const char* value, std::size_t fallback);

  /// Process-wide pool sized from default_threads() (that many lanes
  /// including the caller). Serial when default_threads() <= 1.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claim and run chunks of the current job until none are left.
  void run_chunks(const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t n, std::size_t chunks);

  // The job descriptor. The publisher writes it while holding taken_ and
  // before it opens the job; a worker reads it only after counting itself
  // into busy_ and seeing the job open, and the publisher does not return
  // (nor release taken_) until busy_ is back to 0.
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunks_ = 0;
  std::atomic<std::size_t> next_{0};  // next unclaimed chunk

  std::atomic<bool> taken_{false};  // a caller owns the workers
  std::atomic<bool> open_{false};   // workers may join the current job
  std::atomic<std::size_t> busy_{0};  // workers inside the current job
  // Bumped to publish a job and to stop; idle workers wait on it.
  std::atomic<std::uint64_t> job_{0};
  std::atomic<bool> stopping_{false};

  std::mutex error_mutex_;
  std::exception_ptr error_;  // first chunk exception of the current job

  std::vector<std::thread> workers_;
};

}  // namespace vbatt::util
